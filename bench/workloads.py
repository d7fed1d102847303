"""Workload definitions: seeded measure documents and the CLI job lists.

Every generated document is plain JSON built with numpy alone, so the
program under test receives only documents, never benchmark objects.
The seed changes the documents (frames, phases, polynomial
coefficients) but not the amount of work in them: matrix sizes, grid
sizes, degrees, mass energies and mass norms are fixed, and the frame
changes are ones the algorithms are covariant under. That keeps the
spread between seeds down to timing noise.

What each workload is for, as layer metrics (bench/layers.py) and the
end-to-end metric they should move:
- catalog: the `*.dup` counts, `measure.szego_weight.refine2_calls` and
  `cli.main.self_s` move `wall_s`; so does any fixed cost added per
  command, and cost added at import moves `setup_s`.
- recurrence-deep: `polynomials.*.self_s` and
  `polynomials.stieltjes.blocks` move `wall_s` (polynomials is over 90%
  of self time); the other three workloads barely call polynomials.
- factor-noncommuting: `outer.spectral_factorize.self_s`, `outer.sweeps`
  and `outer.errors` move `wall_s` and the failed-job count; there are
  no polynomials calls.
- table-ingest: `measure.make_measure.self_s`,
  `specio.parse_measure_spec.self_s` and `specio.spec_hash.self_s` move
  `wall_s` and `peak_rss_mb`.
"""

from __future__ import annotations

import dataclasses

import numpy as np

WORKLOADS = ("catalog", "recurrence-deep", "factor-noncommuting", "table-ingest")

SCALAR_SPECS = ("free_semicircle", "arcsine", "semicircle_mass")
MATRIX_SPECS = ("matrix_semicircle_mass", "matrix_conjugated")

# The Stieltjes loop at n = 100 costs about 5 s per call on the shipped
# 2x2 specs (M = 4096) today, so a pass over them would not fit one run;
# the deep workload uses the same families at M = 512, which still
# resolves degree 100 (256 distinct nodes) and keeps the loop dominant.
DEEP_ORDER = 512
DEEP_N = 100


@dataclasses.dataclass(frozen=True)
class Job:
    """One CLI invocation; `doc` names a generated document or a shipped spec."""

    command: str
    doc: str
    args: tuple[str, ...] = ()

    @property
    def label(self) -> str:
        return " ".join((self.command, self.doc) + self.args)


def _matrix(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary (QR of a complex Gaussian, phases fixed)."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _phases(rng: np.random.Generator, dim: int) -> np.ndarray:
    return np.exp(2j * np.pi * rng.random(dim))


def _rotation(dim: int) -> np.ndarray:
    """Fixed real orthogonal frame mixing every channel (Givens chain)."""
    u = np.eye(dim)
    for i in range(dim - 1):
        c, s = np.cos(0.5 + 0.3 * i), np.sin(0.5 + 0.3 * i)
        g = np.eye(dim)
        g[i : i + 2, i : i + 2] = [[c, -s], [s, c]]
        u = g @ u
    return u


def _conjugated(channels, unitary, masses, order: int, normalize: str) -> dict:
    return {
        "dim": len(channels),
        "density": {
            "family": "conjugated_diagonal",
            "channels": [{"family": c} for c in channels],
            "unitary": _matrix(unitary),
        },
        "masses": [{"energy": e, "weight": _matrix(w)} for e, w in masses],
        "quad_order": order,
        "normalize": normalize,
    }


def _channel_mass(unitary: np.ndarray, channel: int, size: float) -> np.ndarray:
    """Rank-one weight along one channel of u* diag(f) u, so the measure commutes."""
    v = unitary[channel].conj()
    return size * np.outer(v, v.conj())


def deep_documents(rng: np.random.Generator) -> dict[str, dict]:
    """Recurrence-deep: commuting families, with and without live masses.

    The frames are Haar-random; the Stieltjes loop and the commuting
    factor are unitarily covariant, so the work is the same for any seed.
    """
    u2 = _unitary(rng, 2)
    shipped_mass = np.array([[0.072, -0.096j], [0.096j, 0.128]])
    mass2 = u2 @ shipped_mass @ u2.conj().T
    semicircle_mass = {
        "dim": 2,
        "density": {"family": "semicircle"},
        "masses": [{"energy": 2.5, "weight": _matrix(mass2)}],
        "quad_order": DEEP_ORDER,
        "normalize": "auto",
    }
    conjugated = _conjugated(
        ["semicircle", "arcsine"], _unitary(rng, 2), [], DEEP_ORDER, "strict"
    )
    u4 = _unitary(rng, 4)
    # E = 2.08 maps to |z| = 0.75, so its mass stays above the 1e-10
    # freeze floor for most of the 100 steps and forces a full
    # re-orthogonalization on each of them.
    masses4 = [(2.08, _channel_mass(u4, 0, 0.1)), (-2.6, _channel_mass(u4, 3, 0.1))]
    four = _conjugated(
        ["semicircle", "arcsine", "semicircle", "arcsine"], u4, masses4, DEEP_ORDER, "auto"
    )
    return {
        "deep_semicircle_mass_2": semicircle_mass,
        "deep_conjugated_2": conjugated,
        "deep_conjugated_mass_4": four,
    }


def noncommuting_document(rng: np.random.Generator, dim: int, order: int) -> dict:
    """Semicircle channel plus a mass outside the channel eigenbasis, auto-normalized.

    The normalizing congruence mixes the channels, so the weight is
    non-commuting and vanishes at t = 0, pi: the Wilson path runs. The
    base frame and mass (half of it on the semicircle channel) are
    fixed; the seed conjugates the whole measure by a diagonal unitary,
    under which the Cholesky start and the Wilson sweeps are covariant.
    """
    base = _rotation(dim)
    overlaps = np.full(dim, np.sqrt(0.5 / (dim - 1)))
    overlaps[0] = np.sqrt(0.5)
    phases = _phases(rng, dim)
    frame = base * phases[None, :]
    v = phases.conj() * (base.T @ overlaps)
    channels = ["semicircle"] + ["arcsine"] * (dim - 1)
    return _conjugated(channels, frame, [(-2.7, 0.2 * np.outer(v, v.conj()))], order, "auto")


def noncommuting_documents(rng: np.random.Generator) -> dict[str, dict]:
    return {
        "noncommuting_2_m4096": noncommuting_document(rng, 2, 4096),
        "noncommuting_4_m4096": noncommuting_document(rng, 4, 4096),
        # Same family at M = 1024: the Wilson path stalls above its target
        # and the CLI exits 4 (NoConvergence). Kept as a counted failure.
        "noncommuting_2_m1024": noncommuting_document(rng, 2, 1024),
    }


def table_document(rng: np.random.Generator, dim: int, order: int) -> dict:
    """Sampled arcsine-type density H(x) / (pi sqrt(4 - x^2)) with a rank-one mass.

    H(x) = B0 + x B1 with Hermitian B0, B1 in random frames that do not
    commute; B0 has spectrum in [2, 3] and |B1| <= 1/2, so the circle
    weight w(t) = H(2 cos t) is strictly positive definite.
    """
    u, v = _unitary(rng, dim), _unitary(rng, dim)
    b0 = u @ np.diag(2.0 + rng.random(dim)) @ u.conj().T
    b1 = v @ np.diag(rng.uniform(-0.5, 0.5, dim)) @ v.conj().T
    theta = -np.pi + (2 * np.arange(order) + 1) * np.pi / order
    x = 2.0 * np.cos(theta)
    f = (b0[None] + x[:, None, None] * b1[None]) / (np.pi * np.sqrt(4.0 - x * x))[:, None, None]
    f = 0.5 * (f + f.conj().transpose(0, 2, 1))
    m = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    m /= np.linalg.norm(m)
    return {
        "dim": dim,
        "density": {"family": "table", "values": [_matrix(s) for s in f]},
        "masses": [{"energy": 2.6, "weight": _matrix(0.2 * np.outer(m, m.conj()))}],
        "quad_order": order,
        "normalize": "auto",
    }


def table_documents(rng: np.random.Generator) -> dict[str, dict]:
    return {
        "table_4_m2048": table_document(rng, 4, 2048),
        "table_8_m1024": table_document(rng, 8, 1024),
    }


def _catalog_jobs() -> list[Job]:
    jobs = []
    for name in SCALAR_SPECS:
        jobs += [
            Job("check-measure", name),
            Job("recurrence", name, ("--n", "30", "--type", "type1")),
            Job("factorize", name),
            Job("blaschke", name),
            Job("limit", name, ("--radius", "0.8", "--angles", "24")),
            Job("verify", name, ("--n-list", "5,20,60", "--radius", "0.8")),
            Job("sumrule", name, ("--n", "100")),
        ]
    for name in MATRIX_SPECS:
        jobs += [
            Job("check-measure", name),
            Job("factorize", name, ("--order", "512")),
            Job("blaschke", name),
            Job("limit", name, ("--radius", "0.8", "--angles", "24")),
        ]
    return jobs


def build(workload: str, seed: int) -> tuple[dict[str, dict], list[Job]]:
    """Generated documents by name, and the job list in its seeded order.

    Shipped specs are referred to by name and are not in the returned
    documents; the seed also shuffles the order jobs run in.
    """
    rng = np.random.default_rng(seed)
    if workload == "catalog":
        docs, jobs = {}, _catalog_jobs()
    elif workload == "recurrence-deep":
        docs = deep_documents(rng)
        n = str(DEEP_N)
        jobs = [Job("recurrence", name, ("--n", n, "--type", "type3")) for name in docs]
        # verify and sumrule each rerun the 4x4 loop (about 8 s apiece),
        # which would not fit a run; they cover the 2x2 documents.
        for name in ("deep_semicircle_mass_2", "deep_conjugated_2"):
            jobs += [
                Job("verify", name, ("--n-list", f"5,20,60,{n}", "--radius", "0.8")),
                Job("sumrule", name, ("--n", n)),
            ]
    elif workload == "factor-noncommuting":
        docs = noncommuting_documents(rng)
        jobs = [
            Job(cmd, name, args)
            for name in docs
            for cmd, args in (
                ("factorize", ()),
                ("blaschke", ()),
                ("limit", ("--radius", "0.8", "--angles", "24")),
            )
        ]
    elif workload == "table-ingest":
        docs = table_documents(rng)
        jobs = [Job(cmd, name) for name in docs for cmd in ("check-measure", "factorize")]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    order = rng.permutation(len(jobs))
    return docs, [jobs[i] for i in order]

