"""Matrix-valued measures mu = f(x) dx + sum_j w_j delta_{E_j} on the real
line, with the absolutely continuous part supported on [-2, 2] and point
masses strictly outside.

The a.c. part is discretized on the midpoint grid through x = 2 cos t:

    integral h dmu_ac  ~  (1/M) sum_m h(x_m) w(t_m),
    w(t) = 2 pi |sin t| f(2 cos t),   x_m = 2 cos t_m,

exact for polynomial integrands of low trigonometric degree. Densities
are only ever sampled on such grids (Density.sample), once per grid.
All measures are normalized to mu(R) = identity, either verified
("strict") or enforced by a congruence c applied to the samples
("auto"). Both constant-frame products of a sample stack, u* diag(f) u
for conjugated-diagonal densities and c f c, are GEMMs
(linalg.diagonal_congruence, linalg.frame_product).
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from . import linalg
from .errors import DimensionMismatch, MassOnSupport, ValidationError
from .linalg import BoundarySampling, midpoint_nodes, operator_norm
from .tolerances import DEFAULT, Tolerances


# ---------------------------------------------------------------------------
# density families


class Density:
    """Matrix density f(x) on (-2, 2); subclasses implement sample."""

    dim = 0

    def sample(self, order: int) -> np.ndarray:
        """f(2 cos t_m) on the midpoint grid of order nodes, shape (order, l, l)."""
        raise NotImplementedError


def _grid_x(order: int) -> np.ndarray:
    return 2.0 * np.cos(midpoint_nodes(order))


class SemicircleDensity(Density):
    """f(x) = sqrt(4 - x^2) / (2 pi) * identity; unit total mass."""

    def __init__(self, dim: int = 1):
        self.dim = int(dim)

    def sample(self, order: int) -> np.ndarray:
        x = _grid_x(order)
        scalar = np.sqrt(4.0 - x * x) / (2.0 * np.pi)
        return scalar[:, None, None] * np.eye(self.dim)[None]


class ArcsineDensity(Density):
    """f(x) = 1 / (pi sqrt(4 - x^2)) * identity; unit total mass."""

    def __init__(self, dim: int = 1):
        self.dim = int(dim)

    def sample(self, order: int) -> np.ndarray:
        x = _grid_x(order)
        scalar = 1.0 / (np.pi * np.sqrt(4.0 - x * x))
        return scalar[:, None, None] * np.eye(self.dim)[None]


class PolySemicircleDensity(Density):
    """q(x) * semicircle * identity with q a positive scalar polynomial.

    q is rescaled at construction so the density has unit total mass;
    the stored coefficients are the rescaled ones.
    """

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

    def sample(self, order: int) -> np.ndarray:
        x = _grid_x(order)
        scalar = (
            np.polynomial.polynomial.polyval(x, self.coeffs)
            * np.sqrt(4.0 - x * x)
            / (2.0 * np.pi)
        )
        return scalar[:, None, None] * np.eye(self.dim)[None]


class ConjugatedDiagonalDensity(Density):
    """u* diag(f_1, ..., f_l) u for scalar member densities and unitary u."""

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

    def sample(self, order: int) -> np.ndarray:
        """u* diag(f_1, ..., f_l) u at each node, as one GEMM (linalg.diagonal_congruence)."""
        channels = np.stack([e.sample(order)[:, 0, 0] for e in self.entries], axis=1)
        return linalg.diagonal_congruence(self.unitary, channels)


def _require_summable(scale: float, nodes: int) -> None:
    """Refuse a table whose largest sample magnitude could overflow the sum
    of its Szego weight 2 pi |sin t| f over its grid of `nodes` nodes, whose
    mean is the measure's total mass on that grid. The bound, reached by a
    constant table, exceeds the sums of the table's own FFT."""
    bound = 2.0 * np.pi * float(np.abs(np.sin(midpoint_nodes(nodes))).sum())
    if bound * scale > np.finfo(float).max:
        raise ValidationError(f"table: largest sample magnitude {scale:.3e} overflows "
                              f"the sum of the weight over {nodes} nodes")


class TableDensity(Density):
    """Density given by samples of f(2 cos t) on a midpoint t-grid.

    Values must be Hermitian PSD and symmetric under t -> -t (the map
    x = 2 cos t cannot see an asymmetric part). A node is PSD when its
    smallest eigenvalue is at least -1e-10 times the largest entry of the
    table. A batched Cholesky (linalg.positive_definite) admits a stack
    whose nodes are all positive definite; eigvalsh runs only on a stack
    that fails it, and decides the rule there. On its own grid the table
    is its own sample; other power-of-two grids get the trigonometric
    interpolant by FFT, so a smooth table refines spectrally.
    """

    def __init__(self, samples):
        sampling = BoundarySampling(np.asarray(samples, dtype=complex))
        v = sampling.values
        scale = max(float(np.max(np.abs(v))), 1e-300)
        _require_summable(scale, v.shape[0])
        herm = linalg.hermitian_defect(v)
        if herm > 1e-8 * scale:
            raise ValidationError(f"table: samples not Hermitian (defect {herm:.2e})")
        sym = float(np.max(np.abs(v - v[::-1])))
        if sym > 1e-8 * scale:
            raise ValidationError(f"table: samples not symmetric in t (defect {sym:.2e})")
        v = 0.5 * (v + v[::-1])
        v = 0.5 * (v + v.conj().transpose(0, 2, 1))
        # a Cholesky factor bounds every eigenvalue below by -O(eps |v|), far
        # above the rule's -1e-10 scale; eigvalsh decides only a failed one
        if not linalg.positive_definite(v) and np.min(linalg.eigvalsh(v)) < -1e-10 * scale:
            raise ValidationError("table: samples not positive semi-definite")
        grid = BoundarySampling(v)
        self.dim = grid.dim
        self.samples = grid.values  # read-only
        self._n, self._coeffs = linalg.fourier_coefficients(grid)

    def sample(self, order: int) -> np.ndarray:
        """The stored samples on the table's grid; else the interpolant.

        A larger grid zero-pads the coefficients. A smaller one folds them
        first: on a midpoint grid of order nodes, exp(i (n + k order) t)
        equals (-1)^k exp(i n t). The result is made exactly symmetric
        under t -> -t.
        """
        if order == self.samples.shape[0]:
            return self.samples
        n, coeffs = self._n, self._coeffs
        if order < n.size:
            folded = (n + order // 2) % order - order // 2
            sign = np.where((n - folded) // order % 2, -1.0, 1.0)
            c = np.zeros((order,) + coeffs.shape[1:], dtype=complex)
            np.add.at(c, folded + order // 2, sign[:, None, None] * coeffs)
            n, coeffs = np.arange(-order // 2, order // 2), c
        v = linalg.synthesize_on_grid(n, coeffs, order).values
        return 0.5 * (v + v[::-1])


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

    z solves z + 1/z = energy with |z| < 1. root is the rank-truncated
    square root Lambda^{1/2} U* of the weight, over its eigenvalues above
    tol.rank_rel times the largest, so root* root is the weight with its
    rounding-level kernel removed; multiplicity is its number of rows,
    the rank of the weight.
    """

    energy: float
    weight: np.ndarray
    z: complex
    multiplicity: int
    root: np.ndarray


def disk_coordinate(energy: float) -> complex:
    """The root of z + 1/z = E inside the unit disk (real E, |E| > 2)."""
    e = float(energy)
    if abs(e) <= 2.0:
        raise MassOnSupport(f"energy {e} lies in [-2, 2]")
    # z = 2 / z', z' = (E + sign(E) sqrt(E^2 - 4)) / 2 the root outside the
    # disk: a sum of like signs, so nothing cancels for far masses, and
    # sqrt(|E| - 2) sqrt(|E| + 2) neither overflows nor loses |E| - 2,
    # exact near the band
    root = np.sqrt(abs(e) - 2.0) * np.sqrt(abs(e) + 2.0)
    return complex(2.0 / (e + np.copysign(root, e)))


def mass_condition_sums(measure: "MatrixMeasure") -> tuple[float, float]:
    """(sum m_k (1 - |z_k|), sum m_k sqrt(|E_k| - 2)), multiplicity-weighted."""
    blaschke = sum(s.multiplicity * (1.0 - abs(s.z)) for s in measure.bound_states)
    root = sum(s.multiplicity * np.sqrt(abs(s.energy) - 2.0) for s in measure.bound_states)
    return float(blaschke), float(root)


# ---------------------------------------------------------------------------
# the measure


@dataclasses.dataclass(frozen=True)
class GridFold:
    """The midpoint grid folded onto its M/2 distinct abscissae.

    The grid pairs t_m with t_{M-1-m} = -t_m, where x = 2 cos t and
    w(t) are equal, so x holds x_m for m < M/2 (t_m < 0), the grid's
    first M/2 nodes, and each carries the pair's weight: root is the
    whitening c_m = Lambda^{1/2} U* / sqrt(M) with U Lambda U* =
    w(t_m) + w(t_{M-1-m}), so c_m* c_m is the pair's weight over M, and
    inverse is c_m^{-1} = U Lambda^{-1/2} sqrt(M). The grid part of the
    inner product is then a plain sum of (c_m f(x_m))* (c_m g(x_m)) over
    m < M/2. Shapes (M/2,) and (M/2, l, l).
    """

    x: np.ndarray
    root: np.ndarray
    inverse: np.ndarray

    def unfold(self, nodes: np.ndarray) -> np.ndarray:
        """nodes, an (M, ...) stack with its first M/2 entries set at x,
        with each copied in place to its mirror node M-1-m."""
        half = self.x.shape[0]
        nodes[half:] = nodes[:half][::-1]
        return nodes


@dataclasses.dataclass(frozen=True)
class MatrixMeasure:
    """A validated, normalized measure sampled on its quadrature grid.

    density is the document's density as given; with auto-normalization
    the measure is c (density) c with c = correction, and every weight
    sampling (szego_weight) applies c to the samples.
    """

    dim: int
    density: Density
    bound_states: tuple[BoundState, ...]
    quad_order: int
    weight: BoundarySampling          # Szego-mapped a.c. weight on the grid
    x_nodes: np.ndarray               # 2 cos t_m
    normalization_defect: float       # ||mu(R) - I|| after construction
    correction: np.ndarray | None     # Hermitian c with mu = c mu_raw c, if auto

    @property
    def mass_weights(self) -> np.ndarray:
        if not self.bound_states:
            return np.zeros((0, self.dim, self.dim), dtype=complex)
        return np.stack([s.weight for s in self.bound_states])

    @functools.cached_property
    def grid_fold(self) -> GridFold:
        """The grid folded onto its M/2 distinct abscissae (GridFold).

        One eigendecomposition per mirror pair, computed once, on first
        use by the recurrence, so commands that never run it skip them.
        make_measure has checked every node's weight positive definite; a
        pair sum that still loses an eigenvalue to rounding raises rather
        than being clipped.
        """
        w, half = self.weight.values, self.quad_order // 2
        lam, vec = linalg.eigh(w[:half] + w[: half - 1 : -1])
        if lam[:, 0].min() <= 0.0:
            raise _szego_failure(lam[:, 0].min())
        root = np.sqrt(lam / self.quad_order)[:, :, None] * vec.conj().transpose(0, 2, 1)
        inverse = vec * np.sqrt(self.quad_order / lam)[:, None, :]
        x = self.x_nodes[:half].copy()
        for a in (x, root, inverse):
            a.setflags(write=False)
        return GridFold(x=x, root=root, inverse=inverse)


def _szego_failure(lam_min: float) -> ValidationError:
    return ValidationError(f"Szego condition fails: w(t) has eigenvalue {lam_min:.3e} at a node")


def _mass_root(w: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Lambda^{1/2} U* over the eigenvalues of w above tol.rank_rel times the largest.

    Not the Hermitian square root: that keeps entries of rounding size on
    the kernel, a ghost mass the recurrence would eventually resolve.
    """
    lam, vec = linalg.eigh(w)
    if lam[-1] <= 0.0:
        raise ValidationError("mass weight is zero")
    keep = lam > tol.rank_rel * lam[-1]
    return np.sqrt(lam[keep])[:, None] * vec[:, keep].conj().T


def _szego_samples(f: np.ndarray, c: np.ndarray | None = None) -> np.ndarray:
    """w(t_m) = 2 pi |sin t_m| c f(2 cos t_m) c from density samples f; the
    congruence by c is one GEMM (linalg.frame_product)."""
    if c is not None:
        f = linalg.frame_product(c, f, c)
    theta = midpoint_nodes(f.shape[0])
    return (2.0 * np.pi * np.abs(np.sin(theta)))[:, None, None] * f


def _require_finite(stage: str, name: str, values: np.ndarray) -> None:
    """Refuse an array with an overflowed or NaN entry, naming the first."""
    if not np.isfinite(values).all():
        index = tuple(np.argwhere(~np.isfinite(values))[0].tolist())
        raise ValidationError(f"{stage}: {name} not finite: entry {index} is {values[index]}")


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
    mass (after a scalar rescale) to enforce it, and raises
    ValidationError when the total mass has no such root: its smallest
    eigenvalue at or below tol.sing_rel times its largest.
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
        herm = linalg.hermitian_defect(w)
        if herm > tol.herm * max(1.0, float(operator_norm(w))):
            raise ValidationError(f"mass {k}: weight not Hermitian (defect {herm:.2e})")
        w = 0.5 * (w + w.conj().T)
        lam = linalg.eigvalsh(w)
        if lam[0] < -tol.herm * max(1.0, lam[-1]):
            raise ValidationError(f"mass {k}: weight has eigenvalue {lam[0]:.3e}")
        clean_masses.append((e, w))

    x = _grid_x(quad_order)
    f = density.sample(quad_order)
    w_ac = _szego_samples(f)
    _require_finite("weight sampling", "Szego weight (node, row, column)", w_ac)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        total = np.mean(w_ac, axis=0) + sum(w for _, w in clean_masses)
    _require_finite("normalization", "total mass mu(R)", total)
    defect = float(operator_norm(total - np.eye(dim)))

    correction = None
    if normalize == "strict":
        if not defect <= tol.norm:
            raise ValidationError(
                f"measure not normalized: ||mu(R) - I|| = {defect:.3e} > {tol.norm:.1e}"
            )
    elif not defect <= tol.norm:
        scale = dim / float(np.real(np.trace(total)))
        x_total = scale * 0.5 * (total + total.conj().T)  # exactly Hermitian: no defect check
        lam, vec = linalg.eigh(x_total)
        if lam[0] <= tol.sing_rel * lam[-1]:
            raise ValidationError(
                f"auto-normalization: total mass mu(R) is singular: smallest eigenvalue "
                f"{lam[0] / scale:.3e} at or below tol.sing_rel x largest = "
                f"{tol.sing_rel * lam[-1] / scale:.3e}"
            )
        c = np.sqrt(scale) * linalg.inv(linalg.sqrt_from_eigh(lam, vec, tol))
        c = 0.5 * (c + c.conj().T)
        clean_masses = [(e, c @ w @ c) for e, w in clean_masses]
        w_ac = _szego_samples(f, c)
        total = np.mean(w_ac, axis=0) + sum(w for _, w in clean_masses)
        defect = float(operator_norm(total - np.eye(dim)))
        correction = c
        if not defect <= tol.norm:
            raise ValidationError(f"auto-normalization left defect {defect:.3e}")

    # Hermitize the grid weight and check the Szego condition node-wise:
    # a node's Cholesky factor exists exactly when its weight is positive
    # definite, at a fraction of eigvalsh's cost, which runs only to
    # report a failure
    w_ac = 0.5 * (w_ac + w_ac.conj().transpose(0, 2, 1))
    if not linalg.positive_definite(w_ac):
        raise _szego_failure(linalg.eigvalsh(w_ac)[:, 0].min())

    states = []
    for e, w in clean_masses:
        root_k = _mass_root(w, tol)
        states.append(
            BoundState(
                energy=e,
                weight=w,
                z=disk_coordinate(e),
                multiplicity=root_k.shape[0],
                root=root_k,
            )
        )
    states.sort(key=lambda s: (abs(s.z), np.angle(s.z)))

    x = np.ascontiguousarray(x)
    x.setflags(write=False)
    for s in states:
        s.weight.setflags(write=False)
        s.root.setflags(write=False)

    return MatrixMeasure(
        dim=dim,
        density=density,
        bound_states=tuple(states),
        quad_order=quad_order,
        weight=BoundarySampling(w_ac, positive=True),
        x_nodes=x,
        normalization_defect=defect,
        correction=correction,
    )


def szego_weight(measure: MatrixMeasure, refine: int = 1) -> BoundarySampling:
    """The mapped weight w(t) = 2 pi |sin t| f(2 cos t) on the grid.

    refine > 1 samples the density on a grid of refine * quad_order
    nodes (families exactly; tables by their trigonometric interpolant)
    and applies the normalizing congruence.
    """
    if refine == 1:
        return measure.weight
    f = measure.density.sample(refine * measure.quad_order)
    w = _szego_samples(f, measure.correction)
    w = 0.5 * (w + w.conj().transpose(0, 2, 1))
    return BoundarySampling(w)


def inner_product(measure: MatrixMeasure, fv, fe, gv, ge) -> np.ndarray:
    """<<f, g>> = integral f(x)* dmu(x) g(x) from sampled values.

    fv, gv hold f and g at the quadrature abscissae x_nodes, shapes
    (M, l, k) and (M, l, k'); fe, ge hold them at the mass energies,
    shapes (K, l, k) and (K, l, k'). The result is (k, k'). The grid
    part runs over chunks of (1 << 14) // (l (k + k')) nodes, about
    256 KB of f and g values: in each the weights are applied node by
    node to g, and the sum over nodes and rows is one product of
    (chunk l, k) and (chunk l, k') matrices. So a wide column stack
    never allocates an (M, l, k') temporary. The mass part is one GEMM.
    """
    m_grid = measure.quad_order
    w = measure.weight.values
    step = max(1, (1 << 14) // (measure.dim * (fv.shape[-1] + gv.shape[-1])))
    out = sum(
        _row_sum(fv[a : a + step], w[a : a + step] @ gv[a : a + step])
        for a in range(0, m_grid, step)
    ) / m_grid
    if measure.bound_states:
        out += _row_sum(fe, measure.mass_weights @ ge)
    return out


def _row_sum(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sum_m f_m* g_m over the leading axis, as one GEMM."""
    return f.reshape(-1, f.shape[-1]).conj().T @ g.reshape(-1, g.shape[-1])
