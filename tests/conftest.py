"""Shared fixtures: shipped measure fixtures and slow session-scoped builds."""

import os

# One BLAS and OpenMP thread, set before numpy loads: the recurrence's
# tall-skinny GEMMs slow down several-fold when threads oversubscribe a
# shared core, and the time-bounded tests should not depend on that.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pathlib  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from matszego import specio
from matszego.measure import MatrixMeasure, SemicircleDensity, make_measure
from matszego.polynomials import PolySequence, stieltjes

SPECS_DIR = pathlib.Path(__file__).resolve().parent.parent / "specs"

SHIPPED = [
    "free_semicircle",
    "arcsine",
    "semicircle_mass",
    "matrix_semicircle_mass",
    "matrix_conjugated",
]


def load_shipped(name: str) -> MatrixMeasure:
    text = (SPECS_DIR / f"{name}.json").read_text()
    return specio.build_measure(specio.parse_measure_spec(text))


@pytest.fixture(scope="session")
def shipped_measures() -> dict[str, MatrixMeasure]:
    return {name: load_shipped(name) for name in SHIPPED}


@pytest.fixture(scope="session")
def semicircle_measure() -> MatrixMeasure:
    return make_measure(SemicircleDensity(1), quad_order=1024, normalize="strict")


@pytest.fixture(scope="session")
def mass_measure(shipped_measures) -> MatrixMeasure:
    return shipped_measures["semicircle_mass"]


@pytest.fixture(scope="session")
def mass_sequence(mass_measure) -> PolySequence:
    # n = 101 covers every test that reads degrees up to 100
    return stieltjes(mass_measure, 101)


def grid_values(seq: PolySequence) -> np.ndarray:
    """p_0..p_n at the x-nodes, (n + 1, M, l, l), one grid_at read per degree."""
    return np.stack([seq.grid_at(n) for n in range(seq.degree + 1)])


def random_smooth_weight(rng: np.random.Generator, dim: int, node_count: int,
                         harmonics: int = 3, floor: float = 0.4) -> np.ndarray:
    """Hermitian PD trig-polynomial samples on the midpoint grid, symmetric
    under t -> -t so they define a valid band density."""
    from matszego.linalg import midpoint_nodes

    theta = midpoint_nodes(node_count)
    w = np.zeros((node_count, dim, dim), dtype=complex)
    for k in range(harmonics + 1):
        c = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        c = 0.25 * (c + c.conj().T) / (k + 1.0)
        w += np.cos(k * theta)[:, None, None] * c
    w = 0.5 * (w + w.conj().transpose(0, 2, 1))
    lam_min = float(np.min(np.linalg.eigvalsh(w)))
    shift = max(0.0, -lam_min) + floor
    return w + shift * np.eye(dim)[None]


def haar_frames(states, rng: np.random.Generator):
    """The (z, frame) states with each frame right-multiplied by a
    Haar-random unitary: same spans, different bases."""
    out = []
    for z, v in states:
        v = np.asarray(v, dtype=complex)
        d = v.shape[1]
        if d > 0:
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            v = v @ np.linalg.qr(g)[0]
        out.append((z, v))
    return out


def _matrix_json(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def noncommuting_document(dim: int, order: int, semicircles: int = 1) -> dict:
    """Semicircle channels (the first semicircles of them) and arcsine
    channels under a fixed Givens frame, plus a mass at -2.7 off the
    channel basis, auto-normalized. The normalizing congruence mixes the
    channels, so the weight does not commute and loses rank one at
    z = +-1."""
    frame = np.eye(dim)
    for i in range(dim - 1):
        c, s = np.cos(0.5 + 0.3 * i), np.sin(0.5 + 0.3 * i)
        g = np.eye(dim)
        g[i : i + 2, i : i + 2] = [[c, -s], [s, c]]
        frame = g @ frame
    overlaps = np.full(dim, np.sqrt(0.5 / (dim - 1)))
    overlaps[0] = np.sqrt(0.5)
    v = frame.T @ overlaps
    return {
        "dim": dim,
        "density": {
            "family": "conjugated_diagonal",
            "channels": [{"family": "semicircle"}] * semicircles
            + [{"family": "arcsine"}] * (dim - semicircles),
            "unitary": _matrix_json(frame),
        },
        "masses": [{"energy": -2.7, "weight": _matrix_json(0.2 * np.outer(v, v))}],
        "quad_order": order,
        "normalize": "auto",
    }


def near_zero_document(eps: float, order: int) -> dict:
    """noncommuting_document(2, order) with the semicircle channel times
    (x - 0.5)^2 + eps: the weight nearly vanishes inside the band, at
    x = 0.5, so its factor's inverse is sharply peaked there."""
    doc = noncommuting_document(2, order)
    doc["density"]["channels"] = [
        {"family": "poly_semicircle", "coefficients": [0.25 + eps, -1.0, 1.0]},
        {"family": "arcsine"},
    ]
    return doc


def many_mass_document(dim: int, pairs: int) -> dict:
    """The semicircle with masses at E = +-(2 + 0.5 / k^2), k = 1..pairs,
    of weight 0.05 / k^2: scalar for dim 1, else rank one along
    (cos 0.3k, e^{0.7ik} sin 0.3k), so the kernels turn from one k to the next.
    The masses crowd the band edges as the paper's countably many do."""
    masses = []
    for k in range(1, pairs + 1):
        v = np.array([np.cos(0.3 * k), np.exp(0.7j * k) * np.sin(0.3 * k)])[:dim]
        weight = 0.05 / k**2 * (np.ones((1, 1)) if dim == 1 else np.outer(v, v.conj()))
        for sign in (1.0, -1.0):
            masses.append({"energy": sign * (2.0 + 0.5 / k**2), "weight": _matrix_json(weight)})
    return {"dim": dim, "density": {"family": "semicircle"}, "masses": masses,
            "quad_order": 4096, "normalize": "auto"}


def edge_pair_document(radius: float) -> dict:
    """The semicircle with masses 0.05 at E = +-(r + 1/r), whose disk
    points are +-r: auto normalization divides by 1.1, so
    G = 1.1^{-1/2} (1 - z^2) / sqrt 2."""
    energy = radius + 1.0 / radius
    return {"dim": 1, "density": {"family": "semicircle"}, "quad_order": 1024,
            "normalize": "auto",
            "masses": [{"energy": s * energy, "weight": {"re": [[0.05]]}} for s in (1.0, -1.0)]}


def semicircle_document(dim: int, order: int) -> dict:
    """The semicircle times I_dim: every channel vanishes at both band
    edges, so det w at the edge nodes is of order (2 sin^2(pi/M))^dim."""
    return {"dim": dim, "density": {"family": "semicircle"}, "quad_order": order,
            "normalize": "strict"}


def edge_table_document(order: int) -> dict:
    """Table of sqrt(4 - x^2) (A0 + x A1) / (2 pi) with A0, A1 not commuting
    and A0 +- 2 A1 positive definite: a common zero at both band edges."""
    from matszego.linalg import midpoint_nodes

    a0 = np.array([[2.0, 0.5j], [-0.5j, 1.5]])
    a1 = np.array([[0.3, 0.2], [0.2, -0.4]])
    x = 2.0 * np.cos(midpoint_nodes(order))
    f = np.sqrt(4.0 - x * x)[:, None, None] / (2.0 * np.pi) * (a0 + x[:, None, None] * a1)
    return {
        "dim": 2,
        "density": {"family": "table", "values": [_matrix_json(s) for s in f]},
        "quad_order": order,
        "normalize": "auto",
    }


def table_document(dim: int, order: int) -> dict:
    """Table of H(x) / (pi sqrt(4 - x^2)), H(x) = B0 + x B1 with B0, B1
    Hermitian in fixed random frames that do not commute (B0 with spectrum
    in [2, 3], |B1| <= 1/2), plus a rank-one mass at 2.6, auto-normalized:
    a strictly positive non-commuting table weight."""
    from matszego.linalg import midpoint_nodes

    rng = np.random.default_rng(1000 + dim)
    u = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    v = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    b0 = u @ np.diag(2.0 + rng.random(dim)) @ u.conj().T
    b1 = v @ np.diag(rng.uniform(-0.5, 0.5, dim)) @ v.conj().T
    x = 2.0 * np.cos(midpoint_nodes(order))
    f = (b0[None] + x[:, None, None] * b1[None]) / (np.pi * np.sqrt(4.0 - x * x))[:, None, None]
    f = 0.5 * (f + f.conj().transpose(0, 2, 1))
    m = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    m /= np.linalg.norm(m)
    return {
        "dim": dim,
        "density": {"family": "table", "values": [_matrix_json(s) for s in f]},
        "masses": [{"energy": 2.6, "weight": _matrix_json(0.2 * np.outer(m, m.conj()))}],
        "quad_order": order,
        "normalize": "auto",
    }
