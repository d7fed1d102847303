"""Matrix-valued measures mu = f(x) dx + sum_j w_j delta_{E_j} on the real
line, with the absolutely continuous part supported on [-2, 2] and point
masses strictly outside.

The a.c. part is discretized on the midpoint grid through x = 2 cos t:

    integral h dmu_ac  ~  (1/M) sum_m h(x_m) w(t_m),
    w(t) = 2 pi |sin t| f(2 cos t),   x_m = 2 cos t_m,

exact for polynomial integrands of low trigonometric degree. All
measures are normalized to mu(R) = identity, either verified ("strict")
or enforced by a congruence ("auto").
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import linalg
from .errors import DimensionMismatch, MassOnSupport, ValidationError
from .linalg import BoundarySampling, midpoint_nodes, operator_norm, principal_sqrt
from .tolerances import DEFAULT, Tolerances


# ---------------------------------------------------------------------------
# density families


class Density:
    """Matrix density f(x) on (-2, 2); subclasses implement evaluate."""

    kind = "abstract"
    dim = 0

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check_domain(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(np.abs(x) >= 2.0):
            raise ValidationError("density evaluated at |x| >= 2")
        return x


class SemicircleDensity(Density):
    """f(x) = sqrt(4 - x^2) / (2 pi) * identity; unit total mass."""

    kind = "semicircle"

    def __init__(self, dim: int = 1):
        self.dim = int(dim)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = self._check_domain(x)
        scalar = np.sqrt(4.0 - x * x) / (2.0 * np.pi)
        return scalar[:, None, None] * np.eye(self.dim)[None]


class ArcsineDensity(Density):
    """f(x) = 1 / (pi sqrt(4 - x^2)) * identity; unit total mass."""

    kind = "arcsine"

    def __init__(self, dim: int = 1):
        self.dim = int(dim)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = self._check_domain(x)
        scalar = 1.0 / (np.pi * np.sqrt(4.0 - x * x))
        return scalar[:, None, None] * np.eye(self.dim)[None]


class PolySemicircleDensity(Density):
    """q(x) * semicircle * identity with q a positive scalar polynomial.

    q is rescaled at construction so the density has unit total mass;
    the stored coefficients are the rescaled ones.
    """

    kind = "poly_semicircle"

    def __init__(self, coeffs, dim: int = 1):
        self.dim = int(dim)
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValidationError("poly_semicircle: coeffs must be a 1-d list")
        probe = np.linspace(-2.0, 2.0, 4001)
        q = np.polynomial.polynomial.polyval(probe, coeffs)
        if q.min() <= 0.0:
            raise ValidationError(
                f"poly_semicircle: polynomial reaches {q.min():.3e} on [-2,2]"
            )
        # exact unit mass via the quadrature the measure itself uses
        t = midpoint_nodes(8192)
        x = 2.0 * np.cos(t)
        qx = np.polynomial.polynomial.polyval(x, coeffs)
        total = float(np.mean(qx * 2.0 * np.sin(t) ** 2))
        self.coeffs = coeffs / total

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = self._check_domain(x)
        scalar = (
            np.polynomial.polynomial.polyval(x, self.coeffs)
            * np.sqrt(4.0 - x * x)
            / (2.0 * np.pi)
        )
        return scalar[:, None, None] * np.eye(self.dim)[None]


class ConjugatedDiagonalDensity(Density):
    """u* diag(f_1, ..., f_l) u for scalar member densities and unitary u."""

    kind = "conjugated_diagonal"

    def __init__(self, entries, unitary=None):
        entries = list(entries)
        if not entries:
            raise ValidationError("conjugated_diagonal: no entries")
        for e in entries:
            if e.dim != 1:
                raise ValidationError("conjugated_diagonal: entries must be scalar")
        self.entries = entries
        self.dim = len(entries)
        if unitary is None:
            unitary = np.eye(self.dim)
        u = np.asarray(unitary, dtype=complex)
        if u.shape != (self.dim, self.dim):
            raise DimensionMismatch("conjugated_diagonal: unitary has wrong shape")
        defect = float(operator_norm(u.conj().T @ u - np.eye(self.dim)))
        if defect > 1e-10:
            raise ValidationError(f"conjugated_diagonal: non-unitary (defect {defect:.2e})")
        self.unitary = u

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = self._check_domain(x)
        diag = np.zeros((x.size, self.dim, self.dim), dtype=complex)
        for i, e in enumerate(self.entries):
            diag[:, i, i] = e.evaluate(x)[:, 0, 0]
        u = self.unitary
        return np.einsum("ji,mjk,kl->mil", u.conj(), diag, u)


class TableDensity(Density):
    """Density given by samples of f(2 cos t) on a midpoint t-grid.

    Values must be Hermitian PSD and symmetric under t -> -t (the map
    x = 2 cos t cannot see an asymmetric part). Off-grid evaluation uses
    the trigonometric interpolant, so a smooth table refines spectrally.
    """

    kind = "table"

    def __init__(self, samples):
        sampling = BoundarySampling(np.asarray(samples, dtype=complex))
        v = sampling.values
        scale = max(float(np.max(np.abs(v))), 1e-300)
        herm = float(np.max(operator_norm(v - v.conj().transpose(0, 2, 1))))
        if herm > 1e-8 * scale:
            raise ValidationError(f"table: samples not Hermitian (defect {herm:.2e})")
        sym = float(np.max(np.abs(v - v[::-1])))
        if sym > 1e-8 * scale:
            raise ValidationError(f"table: samples not symmetric in t (defect {sym:.2e})")
        v = 0.5 * (v + v[::-1])
        v = 0.5 * (v + v.conj().transpose(0, 2, 1))
        if float(np.min(np.linalg.eigvalsh(v))) < -1e-10 * scale:
            raise ValidationError("table: samples not positive semi-definite")
        self.dim = sampling.dim
        self.samples = v
        self._n, self._coeffs = linalg.fourier_coefficients(BoundarySampling(v))

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = self._check_domain(x)
        theta = np.arccos(x / 2.0)
        vals = linalg.synthesize_at(self._n, self._coeffs, theta)
        return 0.5 * (vals + vals.conj().transpose(0, 2, 1))


class _CongruenceDensity(Density):
    """c f(x) c for Hermitian c; used by auto-normalization."""

    def __init__(self, base: Density, c: np.ndarray):
        self.base = base
        self.c = np.asarray(c, dtype=complex)
        self.dim = base.dim
        self.kind = f"normalized({base.kind})"

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        f = self.base.evaluate(x)
        return np.einsum("ij,mjk,kl->mil", self.c, f, self.c)


DENSITY_FAMILIES = {
    "semicircle": SemicircleDensity,
    "arcsine": ArcsineDensity,
    "poly_semicircle": PolySemicircleDensity,
    "conjugated_diagonal": ConjugatedDiagonalDensity,
    "table": TableDensity,
}


# ---------------------------------------------------------------------------
# bound states


@dataclasses.dataclass(frozen=True)
class BoundState:
    """Point mass of the measure in disk coordinates.

    z solves z + 1/z = energy with |z| < 1; multiplicity is the rank of
    the weight.
    """

    energy: float
    weight: np.ndarray
    z: complex
    multiplicity: int


def disk_coordinate(energy: float) -> complex:
    """The root of z + 1/z = E inside the unit disk (real E, |E| > 2)."""
    e = float(energy)
    if abs(e) <= 2.0:
        raise MassOnSupport(f"energy {e} lies in [-2, 2]")
    z = (e - np.sign(e) * np.sqrt(e * e - 4.0)) / 2.0
    return complex(z)


def mass_condition_sums(measure: "MatrixMeasure") -> tuple[float, float]:
    """(sum m_k (1 - |z_k|), sum m_k sqrt(|E_k| - 2)), multiplicity-weighted."""
    blaschke = sum(s.multiplicity * (1.0 - abs(s.z)) for s in measure.bound_states)
    root = sum(s.multiplicity * np.sqrt(abs(s.energy) - 2.0) for s in measure.bound_states)
    return float(blaschke), float(root)


# ---------------------------------------------------------------------------
# the measure


@dataclasses.dataclass(frozen=True)
class MatrixMeasure:
    dim: int
    density: Density
    bound_states: tuple[BoundState, ...]
    quad_order: int
    weight: BoundarySampling          # Szego-mapped a.c. weight on the grid
    x_nodes: np.ndarray               # 2 cos t_m
    normalization_defect: float       # ||mu(R) - I|| after construction
    correction: np.ndarray | None     # Hermitian c with mu = c mu_raw c, if auto

    @property
    def mass_energies(self) -> np.ndarray:
        return np.array([s.energy for s in self.bound_states])

    @property
    def mass_weights(self) -> np.ndarray:
        if not self.bound_states:
            return np.zeros((0, self.dim, self.dim), dtype=complex)
        return np.stack([s.weight for s in self.bound_states])


def _mass_rank(w: np.ndarray, tol: Tolerances) -> int:
    s = np.linalg.svd(w, compute_uv=False)
    if s[0] <= 0.0:
        raise ValidationError("mass weight is zero")
    return int(np.count_nonzero(s > tol.rank_rel * s[0]))


def _szego_samples(density: Density, order: int) -> tuple[np.ndarray, np.ndarray]:
    theta = midpoint_nodes(order)
    x = 2.0 * np.cos(theta)
    f = density.evaluate(x)
    w = (2.0 * np.pi * np.abs(np.sin(theta)))[:, None, None] * f
    return x, w


def make_measure(
    density: Density,
    masses=(),
    quad_order: int = 4096,
    normalize: str = "auto",
    tol: Tolerances = DEFAULT,
) -> MatrixMeasure:
    """Build and validate a measure.

    masses is a sequence of (energy, weight) with real energy, |energy| > 2,
    Hermitian PSD weight. normalize="strict" demands mu(R) = I within
    tol.norm; "auto" conjugates by the inverse square root of the total
    mass (after a scalar rescale) to enforce it.
    """
    dim = density.dim
    if dim < 1:
        raise ValidationError("density has no dimension")
    if normalize not in ("auto", "strict"):
        raise ValidationError(f"normalize must be 'auto' or 'strict', got {normalize!r}")

    clean_masses: list[tuple[float, np.ndarray]] = []
    seen: list[float] = []
    for k, (energy, w) in enumerate(masses):
        e = float(energy)
        if abs(e) <= 2.0:
            raise MassOnSupport(f"mass {k}: energy {e} lies in [-2, 2]")
        if any(abs(e - other) < 1e-12 for other in seen):
            raise ValidationError(f"mass {k}: duplicate energy {e}")
        seen.append(e)
        w = np.asarray(w, dtype=complex)
        if w.shape != (dim, dim):
            raise DimensionMismatch(f"mass {k}: weight shape {w.shape}, expected {(dim, dim)}")
        herm = float(operator_norm(w - w.conj().T))
        if herm > tol.herm * max(1.0, float(operator_norm(w))):
            raise ValidationError(f"mass {k}: weight not Hermitian (defect {herm:.2e})")
        w = 0.5 * (w + w.conj().T)
        lam = np.linalg.eigvalsh(w)
        if lam[0] < -tol.herm * max(1.0, lam[-1]):
            raise ValidationError(f"mass {k}: weight has eigenvalue {lam[0]:.3e}")
        clean_masses.append((e, w))

    x, w_ac = _szego_samples(density, quad_order)
    total = np.mean(w_ac, axis=0) + sum(w for _, w in clean_masses)
    defect = float(operator_norm(total - np.eye(dim)))

    correction = None
    if normalize == "strict":
        if defect > tol.norm:
            raise ValidationError(
                f"measure not normalized: ||mu(R) - I|| = {defect:.3e} > {tol.norm:.1e}"
            )
    elif defect > tol.norm:
        scale = dim / float(np.real(np.trace(total)))
        x_total = scale * 0.5 * (total + total.conj().T)
        xh = principal_sqrt(x_total, tol)
        c = np.sqrt(scale) * np.linalg.inv(xh)
        c = 0.5 * (c + c.conj().T)
        density = _CongruenceDensity(density, c)
        clean_masses = [(e, c @ w @ c) for e, w in clean_masses]
        x, w_ac = _szego_samples(density, quad_order)
        total = np.mean(w_ac, axis=0) + sum(w for _, w in clean_masses)
        defect = float(operator_norm(total - np.eye(dim)))
        correction = c
        if defect > tol.norm:
            raise ValidationError(f"auto-normalization left defect {defect:.3e}")

    # Hermitize the grid weight and check the Szego condition node-wise
    w_ac = 0.5 * (w_ac + w_ac.conj().transpose(0, 2, 1))
    dets = np.linalg.det(w_ac).real
    if dets.min() <= 0.0:
        raise ValidationError(
            f"Szego condition fails: det w(t) = {dets.min():.3e} at a node"
        )

    states = []
    for e, w in clean_masses:
        states.append(
            BoundState(
                energy=e,
                weight=w,
                z=disk_coordinate(e),
                multiplicity=_mass_rank(w, tol),
            )
        )
    states.sort(key=lambda s: (abs(s.z), np.angle(s.z)))

    x = np.ascontiguousarray(x)
    x.setflags(write=False)
    for s in states:
        s.weight.setflags(write=False)

    return MatrixMeasure(
        dim=dim,
        density=density,
        bound_states=tuple(states),
        quad_order=quad_order,
        weight=BoundarySampling(w_ac),
        x_nodes=x,
        normalization_defect=defect,
        correction=correction,
    )


def szego_weight(measure: MatrixMeasure, refine: int = 1) -> BoundarySampling:
    """The mapped weight w(t) = 2 pi |sin t| f(2 cos t) on the grid.

    refine > 1 resamples the density on a grid of refine * quad_order
    nodes (families evaluate exactly; tables interpolate spectrally).
    """
    if refine == 1:
        return measure.weight
    _, w = _szego_samples(measure.density, refine * measure.quad_order)
    w = 0.5 * (w + w.conj().transpose(0, 2, 1))
    return BoundarySampling(w)


def inner_product(measure: MatrixMeasure, fv, fe, gv, ge) -> np.ndarray:
    """<<f, g>> = integral f(x)* dmu(x) g(x) from sampled values.

    fv, gv hold f and g at the quadrature abscissae x_nodes, shape
    (M, l, l); fe, ge hold them at the mass energies, shape (K, l, l).
    """
    out = np.einsum("mji,mjk,mkl->il", fv.conj(), measure.weight.values, gv)
    out /= measure.quad_order
    if measure.bound_states:
        out = out + np.einsum("mji,mjk,mkl->il", fe.conj(), measure.mass_weights, ge)
    return out
