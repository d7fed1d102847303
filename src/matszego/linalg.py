"""Matrix-valued boundary samplings on the unit circle and small-matrix
decompositions used throughout the package.

Grid convention: M midpoint nodes t_m = -pi + (2m+1) pi / M, m = 0..M-1,
M a power of two. The grid contains no fixed point of t -> -t and is
closed under it: -t_m = t_{M-1-m}. Fourier coefficients are

    c_n = (1/M) sum_m exp(-i n t_m) f(t_m),

exact for trigonometric polynomials of degree < M/2 (indices with
|n| >= M/2 alias and are refused).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import (
    AliasedIndex,
    DimensionMismatch,
    NegativeEigenvalue,
    NotHermitian,
    Singular,
)
from .tolerances import DEFAULT, Tolerances


def midpoint_nodes(count: int) -> np.ndarray:
    """Midpoint grid t_m = -pi + (2m+1) pi / count."""
    _check_node_count(count)
    m = np.arange(count)
    return -np.pi + (2 * m + 1) * np.pi / count


def _check_node_count(count: int) -> None:
    if count < 4 or count & (count - 1) != 0:
        raise DimensionMismatch(f"node count must be a power of two >= 4, got {count}")


@dataclasses.dataclass(frozen=True)
class BoundarySampling:
    """Values of a matrix function on the midpoint grid.

    values has shape (M, l, l). The node angles are implied by M and
    available as .theta; samplings with equal M share the same grid.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=complex))
        if v.ndim != 3 or v.shape[1] != v.shape[2]:
            raise DimensionMismatch(f"expected (M, l, l) values, got shape {v.shape}")
        _check_node_count(v.shape[0])
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def node_count(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def theta(self) -> np.ndarray:
        return midpoint_nodes(self.node_count)

    @classmethod
    def from_function(cls, fn, node_count: int, dim: int) -> "BoundarySampling":
        """Sample fn(theta) -> (M, l, l) or per-node (l, l) on the grid."""
        theta = midpoint_nodes(node_count)
        vals = np.asarray(fn(theta), dtype=complex)
        if vals.shape != (node_count, dim, dim):
            raise DimensionMismatch(
                f"sampled values have shape {vals.shape}, expected {(node_count, dim, dim)}"
            )
        return cls(vals)

    def reflect(self) -> "BoundarySampling":
        """Sampling of theta -> f(-theta); index reversal on this grid."""
        return BoundarySampling(self.values[::-1])


def operator_norm(a: np.ndarray) -> np.ndarray:
    """Largest singular value; batched over leading axes."""
    a = np.asarray(a)
    if a.ndim < 2:
        raise DimensionMismatch("operator_norm needs a matrix")
    return np.linalg.svd(a, compute_uv=False)[..., 0]


def hermitian_defect(a: np.ndarray) -> float:
    return float(operator_norm(a - a.conj().swapaxes(-1, -2)))


def principal_sqrt(a: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix via eigh.

    Eigenvalues in [-tol.herm, 0) are treated as rounded zeros; below
    that raises NegativeEigenvalue.
    """
    a = np.asarray(a, dtype=complex)
    defect = hermitian_defect(a)
    if defect > tol.herm:
        raise NotHermitian(f"Hermiticity defect {defect:.3e} exceeds {tol.herm:.1e}")
    lam, q = np.linalg.eigh(a)
    if lam[0] < -tol.herm:
        raise NegativeEigenvalue(f"eigenvalue {lam[0]:.3e} below -{tol.herm:.1e}")
    lam = np.clip(lam, 0.0, None)
    return (q * np.sqrt(lam)) @ q.conj().T


def left_polar(a: np.ndarray, tol: Tolerances = DEFAULT) -> tuple[np.ndarray, np.ndarray]:
    """Decompose a = U P with U unitary and P = sqrt(a* a) Hermitian PD.

    Raises Singular when the smallest singular value is at or below
    tol.sing_rel * ||a||.
    """
    a = np.asarray(a, dtype=complex)
    w, s, vh = np.linalg.svd(a)
    if s[0] == 0.0 or s[-1] <= tol.sing_rel * s[0]:
        raise Singular(f"singular values span [{s[-1]:.3e}, {s[0]:.3e}]")
    u = w @ vh
    p = (vh.conj().T * s) @ vh
    return u, p


def norm_l2_1(f: BoundarySampling) -> float:
    """sqrt of the grid mean of the squared operator norm."""
    return float(np.sqrt(np.mean(operator_norm(f.values) ** 2)))


def norm_l2_2(f: BoundarySampling) -> float:
    """sqrt of the operator norm of the Gram mean (1/M) sum f* f."""
    return float(np.sqrt(operator_norm(gram_mean(f, f))))


def gram_mean(f: BoundarySampling, g: BoundarySampling) -> np.ndarray:
    """(1/M) sum_m f(t_m)* g(t_m)."""
    if f.node_count != g.node_count or f.dim != g.dim:
        raise DimensionMismatch("samplings live on different grids")
    fv, gv = f.values, g.values
    return np.einsum("mji,mjk->ik", fv.conj(), gv) / f.node_count


def two_grid_richardson(coarse: float, fine: float) -> tuple[float, float]:
    """(extrapolated value, estimate) from grid means on M and 2M nodes.

    Removes an exact a/M first-order term: value 2 fine - coarse, with
    the coarse/fine difference as the error estimate.
    """
    return 2.0 * fine - coarse, abs(fine - coarse)


def _phase(n: np.ndarray, node_count: int) -> np.ndarray:
    # exp(-i n t_m) = phase(n) * exp(-2 pi i n m / M) on the midpoint grid
    return np.exp(1j * np.pi * n * (node_count - 1) / node_count)


def fourier_coefficients(f: BoundarySampling) -> tuple[np.ndarray, np.ndarray]:
    """All resolvable coefficients in one FFT pass.

    Returns (n_values, coeffs) with n_values = -M/2 .. M/2-1 ascending
    and coeffs[k] = c_{n_values[k]} of shape (l, l).
    """
    m = f.node_count
    base = np.fft.fft(f.values, axis=0) / m
    n_values = np.arange(-m // 2, m // 2)
    coeffs = _phase(n_values, m)[:, None, None] * base[n_values % m]
    return n_values, coeffs


def matrix_fourier_coeff(f: BoundarySampling, n: int) -> np.ndarray:
    """Single coefficient c_n = (1/M) sum exp(-i n t_m) f(t_m)."""
    m = f.node_count
    if abs(n) >= m // 2:
        raise AliasedIndex(f"|n| = {abs(n)} is not resolvable on {m} nodes")
    weights = np.exp(-1j * n * f.theta)
    return np.einsum("m,mij->ij", weights, f.values) / m


def synthesize_on_grid(
    n_values: np.ndarray, coeffs: np.ndarray, node_count: int
) -> BoundarySampling:
    """Evaluate sum_n coeffs[n] exp(i n t) on a midpoint grid of node_count.

    node_count may differ from the grid the coefficients came from
    (used for two-grid Richardson refinement); indices must satisfy
    |n| < node_count/2.
    """
    _check_node_count(node_count)
    n_values = np.asarray(n_values)
    if np.any((n_values < -node_count // 2) | (n_values >= node_count // 2)):
        raise AliasedIndex("coefficient index out of range for target grid")
    dim = coeffs.shape[-1]
    spectrum = np.zeros((node_count, dim, dim), dtype=complex)
    spectrum[n_values % node_count] = (
        np.conj(_phase(n_values, node_count))[:, None, None] * coeffs
    )
    values = np.fft.ifft(spectrum, axis=0) * node_count
    return BoundarySampling(values)


def synthesize_at(n_values: np.ndarray, coeffs: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Evaluate sum_n coeffs[n] exp(i n theta) at arbitrary angles."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    basis = np.exp(1j * np.outer(theta, np.asarray(n_values)))
    return np.einsum("tn,nij->tij", basis, coeffs)


def analytic_part(f: BoundarySampling) -> BoundarySampling:
    """Riesz-type projection: halve c_0, keep n > 0, drop n < 0."""
    m = f.node_count
    n_values, coeffs = fourier_coefficients(f)
    coeffs = coeffs.copy()
    coeffs[n_values < 0] = 0.0
    coeffs[n_values == 0] *= 0.5
    return synthesize_on_grid(n_values, coeffs, m)
