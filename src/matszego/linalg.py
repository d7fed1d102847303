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
import math

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


def is_node_count(count: int) -> bool:
    """Whether a grid may have count nodes: a power of two >= 4."""
    return count >= 4 and count & (count - 1) == 0


def _check_node_count(count: int) -> None:
    if not is_node_count(count):
        raise DimensionMismatch(f"node count must be a power of two >= 4, got {count}")


@dataclasses.dataclass(frozen=True)
class BoundarySampling:
    """Values of a matrix function on the midpoint grid.

    values has shape (M, l, l). The node angles are implied by M and
    available as .theta; samplings with equal M share the same grid.
    positive is True only for a weight whose maker decided every block
    Hermitian and positive definite (measure.make_measure does, by a
    Cholesky factor of each); outer.spectral_factorize then does not
    decide it again. Every other sampling is decided there.
    """

    values: np.ndarray
    positive: bool = dataclasses.field(default=False, compare=False)

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


def operator_norm(a: np.ndarray) -> np.ndarray:
    """Largest singular value; batched over leading axes."""
    a = np.asarray(a)
    if a.ndim < 2:
        raise DimensionMismatch("operator_norm needs a matrix")
    return np.linalg.svd(a, compute_uv=False)[..., 0]


# Relative margin of the Frobenius brackets. A Frobenius norm (squares,
# one sum, one square root) and LAPACK's largest singular value are each
# within a small multiple of l * 2^-53 of the exact norm, about 1e-14 for
# the block sizes used here; 1e-8 covers both with room to spare.
_BRACKET_MARGIN = 1e-8
# Below this the squares in a Frobenius norm may underflow and lose digits.
_FRO_TINY = 1e-150


def frobenius_norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each block of a matrix or a stack: the squares of
    the real view of each block summed by one einsum, which, unlike
    np.linalg.norm, makes no stack-sized temporary."""
    flat = np.ascontiguousarray(a)
    if np.iscomplexobj(flat):
        flat = flat.view(flat.real.dtype)
    flat = flat.reshape(a.shape[:-2] + (-1,))
    return np.sqrt(np.einsum("...i,...i->...", flat, flat))


def _frobenius_top(a: np.ndarray) -> tuple[np.ndarray, float | None]:
    """(Frobenius norm per block, largest one or None when it brackets nothing).

    The largest is None when squares overflow or underflow (or entries
    are not finite): the Frobenius norms then say nothing reliable about
    the operator norms. It is 0.0 only when every entry is exactly zero.
    """
    fro = frobenius_norms(a)
    top = float(fro.max())
    if top == 0.0 and not a.any():
        return fro, 0.0
    if not _FRO_TINY <= top < np.inf:
        return fro, None
    return fro, top


def _distinct(blocks: np.ndarray) -> np.ndarray:
    """One copy of each bitwise-distinct block of an (N, m, n) stack.

    LAPACK returns the same floats for the same input, so equal blocks
    need one SVD between them. Rounding-level residuals are quantized and
    repeat many times.
    """
    rows = np.ascontiguousarray(blocks).reshape(blocks.shape[0], -1)
    keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize)))[:, 0]
    return blocks[np.unique(keys, return_index=True)[1]]


def _max_norm(a: np.ndarray, norms) -> float:
    """np.max(norms(a)) for a matrix or a stack, with norms run only on the
    blocks that can hold the maximum; norms maps a block or a stack to
    operator norms.

    The block of largest Frobenius norm is decomposed first, giving s.
    Since ||A||_2 <= ||A||_F, only blocks whose Frobenius norm is at least
    s (1 - margin) can exceed it, the margin covering rounding in both
    norms, and of those one copy of each distinct block (_distinct) is
    decomposed. Same float as the full batch. A stack of exact zeros
    returns 0.0, the float its decomposition gives, without one, and a
    stack whose Frobenius norms are unreliable (_frobenius_top) is
    decomposed whole; an empty batch raises ValueError. A single matrix
    goes to norms directly.
    """
    a = np.asarray(a)
    if a.ndim < 2:
        raise DimensionMismatch(f"expected a matrix or a stack, got shape {a.shape}")
    if a.ndim == 2:
        return float(norms(a))
    fro, top = _frobenius_top(a)
    if top == 0.0:
        return 0.0
    if top is None:
        return float(np.max(norms(a)))
    blocks, fro = a.reshape((-1,) + a.shape[-2:]), fro.reshape(-1)
    first = int(np.argmax(fro))
    s = float(norms(blocks[first]))
    rest = fro >= (1.0 - _BRACKET_MARGIN) * s
    rest[first] = False
    if rest.any():
        s = max(s, float(np.max(norms(_distinct(blocks[rest])))))
    return s


def max_operator_norm(a: np.ndarray) -> float:
    """np.max(operator_norm(a)) over a matrix or a stack, with SVDs only on
    the blocks that can hold it (_max_norm)."""
    return _max_norm(a, operator_norm)


def may_exceed(bounds: np.ndarray, value: float) -> np.ndarray:
    """Mask of the blocks whose operator norm may exceed value, from upper
    bounds of those norms computed in floating point (Frobenius norms, or
    products of them).

    A block is ruled out only when its bound, widened by the bracket
    margin for rounding in the bound and in the SVD, is at most value, so
    max(value, max_operator_norm(blocks[mask])) is the float the whole
    stack gives. NaN bounds are kept, and so is every block while value is
    below the range where squares keep their digits (_FRO_TINY).
    """
    if not value >= _FRO_TINY:
        return np.ones(np.shape(bounds), dtype=bool)
    return ~(bounds * (1.0 + _BRACKET_MARGIN) <= value)


def _hermitian_norms(a: np.ndarray) -> np.ndarray:
    """Largest |eigenvalue| per Hermitian block; LinAlgError on non-finite
    entries, which eigvalsh may answer with finite eigenvalues (it never
    reads the upper triangle)."""
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("max_hermitian_norm: non-finite entries")
    lam = eigvalsh(a)  # ascending: the largest |lam| is at an end
    return np.maximum(lam[..., -1], -lam[..., 0])


def max_hermitian_norm(a: np.ndarray) -> float:
    """Largest operator norm in a stack of Hermitian blocks: the largest
    |eigenvalue|, over the blocks that can hold it (_max_norm).

    eigvalsh reads the lower triangle only, and costs about half an SVD;
    for blocks Hermitian to rounding the float agrees with
    max_operator_norm to the last few bits. A stack of exact zeros
    returns 0.0; an empty batch raises; non-finite entries raise
    LinAlgError.
    """
    return _max_norm(a, _hermitian_norms)


class BracketedNorm:
    """max_hermitian_norm of a stack of Hermitian blocks, bracketed from
    its Frobenius norms and computed exactly only when a test needs it.

    For an l x l block, ||A||_F / sqrt(l) <= ||A||_2 <= ||A||_F, so with F
    the largest Frobenius norm of the stack

        lo = F / sqrt(l) * (1 - 1e-8)  <=  max ||A||_2  <=  F * (1 + 1e-8) = hi,

    where the margin covers the rounding of F and of the eigenvalues; the
    bracket holds the very float max_hermitian_norm returns. A stack of
    exact zeros gives (0.0, 0.0). Where the Frobenius norms are unreliable
    (_frobenius_top) both ends are NaN, so the exact value decides, errors
    included. The stack is dropped once the value is known.
    """

    def __init__(self, stack: np.ndarray):
        self._stack = stack
        _, top = _frobenius_top(stack)
        if top is None:
            self.lo = self.hi = np.nan
        else:
            self.lo = (1.0 - _BRACKET_MARGIN) * top / math.sqrt(stack.shape[-1])
            self.hi = (1.0 + _BRACKET_MARGIN) * top

    def exact(self) -> float:
        if self._stack is not None:
            self.lo = self.hi = max_hermitian_norm(self._stack)
            self._stack = None
        return self.lo

    def decide(self, test):
        """test(value) for a test monotone in the value, read at the two
        ends of the bracket and at the exact value only where they differ."""
        lo, hi = test(self.lo), test(self.hi)
        if lo == hi and not math.isnan(self.lo):
            return lo
        return test(self.exact())


def diagonal_congruence(u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """u* diag(d_m) u for every row d_m of d: shape (..., l) to (..., l, l).

    One GEMM of the rows with the (l, l^2) matrix
    W[j, i l + k] = conj(u_ji) u_jk: O(M l^3) for M rows, and no diagonal
    matrices are built. The sums run in another order than a loop over
    entries would, so results may differ from it in the last bits. A
    stack u of shape (K, l, l) pairs with d of shape (K, ..., l): one
    GEMM per unitary, each as it would be on its own.
    """
    l = u.shape[-1]
    w = (u.conj()[..., :, None] * u[..., None, :]).reshape(u.shape[:-2] + (l, l * l))
    return (d.reshape(u.shape[:-2] + (-1, l)) @ w).reshape(d.shape + (l,))


# Entries per panel of the stack kernels: 64 KB of complex numbers.
PANEL_ENTRIES = 1 << 12


def frame_product(a: np.ndarray, f: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a f_m b for every block f_m of a stack f of shape (M, l, l); complex.

    Per panel of nodes, two GEMMs: the blocks as rows, shape (P l, l),
    times b, then the left factor on the same blocks flattened to
    (P, l^2), times the Kronecker matrix K[j l + n, i l + k] = a_ij delta_nk.
    The left GEMM does O(l^4) multiply-adds per node where O(l^3) would
    do, but it needs no copy of the stack transposed to (l, M l) and back;
    panels of about 64 KB keep every temporary that small, so the result
    is the only stack-sized allocation. For l = 1 the rounding is that of
    a (f b). Otherwise the sums run in another order than a loop over
    entries would, so results may differ from it in the last bits.
    """
    l = f.shape[-1]
    k = np.kron(np.transpose(a), np.eye(l))
    out = np.empty((f.shape[0], l * l), dtype=complex)
    step = max(1, PANEL_ENTRIES // (l * l))
    for s in range(0, f.shape[0], step):
        out[s : s + step] = (f[s : s + step].reshape(-1, l) @ b).reshape(-1, l * l) @ k
    return out.reshape(f.shape)


def positive_definite(a: np.ndarray) -> bool:
    """Whether every block of a Hermitian stack has a Cholesky factor, the
    node-level test of positive definiteness, decided in panels of about
    64 KB so that no factor of the whole stack is held.

    At l = 1 the factor exists unless the real part of the entry is at
    most 0, the one test potrf makes on a 1 x 1 block; a NaN passes it
    there too (OpenBLAS's potrf, which numpy ships, does not test NaN).
    """
    if a.shape[-1] == 1:
        return not np.any(a.real <= 0.0)
    step = max(1, PANEL_ENTRIES // (a.shape[-1] * a.shape[-1]))
    try:
        for s in range(0, a.shape[0], step):
            np.linalg.cholesky(a[s : s + step])
    except np.linalg.LinAlgError:
        return False
    return True


# Stack kernels with a closed form at l = 1. np.linalg runs LAPACK once
# per block, a fixed cost that dominates on 1 x 1 blocks; the closed forms
# return the floats LAPACK returns, except where a docstring says. No
# module but this one calls np.linalg.det, eigvalsh, eigh or inv, except
# where tests/test_imports.py allows it.


def det(a: np.ndarray) -> np.ndarray:
    """Determinant of a matrix or of each block of a stack.

    At l = 1 it is the entry itself, a view of a stack's entries or a
    scalar. np.linalg.det returns sign(a) exp(log |a|), a few ulps off.
    """
    if a.shape[-1] == 1:
        return a[..., 0, 0][()]
    return np.linalg.det(a)


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh: ascending eigenvalues of Hermitian blocks, read
    from the lower triangle. At l = 1 they are the real parts of the
    entries, as heevd returns them, read through a view of a."""
    if a.shape[-1] == 1:
        return a.real[..., 0]
    return np.linalg.eigvalsh(a)


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh of Hermitian blocks. At l = 1 heevd returns the real
    part of the entry, here a view of a, and the eigenvector 1."""
    if a.shape[-1] == 1:
        return a.real[..., 0], np.ones(a.shape, dtype=np.result_type(a, 1.0))
    return np.linalg.eigh(a)


def inv(a: np.ndarray) -> np.ndarray:
    """np.linalg.inv of a matrix or a stack. At l = 1 it is 1 / a: the
    float LAPACK returns for a real entry, not always for a complex one
    (LAPACK takes the reciprocal by another formula); callers that need
    LAPACK's floats on complex entries call np.linalg.inv. A zero entry
    raises LinAlgError, as a zero pivot does."""
    if a.shape[-1] == 1:
        if not np.all(a):
            raise np.linalg.LinAlgError("Singular matrix")
        return 1.0 / a
    return np.linalg.inv(a)


def hermitian_defect(a: np.ndarray) -> float:
    """max ||A - A*|| over a matrix or a stack (max_operator_norm)."""
    return max_operator_norm(a - a.conj().swapaxes(-1, -2))


def principal_sqrt(a: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix via eigh.

    Eigenvalues in [-tol.herm, 0) are treated as rounded zeros; below
    that raises NegativeEigenvalue.
    """
    a = np.asarray(a, dtype=complex)
    defect = hermitian_defect(a)
    if defect > tol.herm:
        raise NotHermitian(f"Hermiticity defect {defect:.3e} exceeds {tol.herm:.1e}")
    return sqrt_from_eigh(*eigh(a), tol)


def sqrt_from_eigh(lam: np.ndarray, q: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """q diag(sqrt(lam)) q* from the ascending output of np.linalg.eigh.

    Eigenvalues in [-tol.herm, 0) are treated as rounded zeros; below
    that raises NegativeEigenvalue.
    """
    if lam[0] < -tol.herm:
        raise NegativeEigenvalue(f"eigenvalue {lam[0]:.3e} below -{tol.herm:.1e}")
    lam = np.clip(lam, 0.0, None)
    return (q * np.sqrt(lam)) @ q.conj().T


def left_polar(a: np.ndarray, tol: Tolerances = DEFAULT) -> tuple[np.ndarray, np.ndarray]:
    """Decompose a = U P with U unitary and P = sqrt(a* a) Hermitian PD,
    for a matrix or, bitwise as one by one, each matrix of a stack.

    Raises Singular, with the first such matrix's index, when the smallest
    singular value is at or below tol.sing_rel * ||a||. At l = 1 it is
    (a / |a|, |a|), with no SVD. For a real entry these are the floats the
    SVD gives (+-1 and |a|) wherever gesdd does not rescale the block (|a|
    within about 1e+-130); for a complex one they agree with it to an ulp or two.
    """
    a = np.asarray(a, dtype=complex)
    scalar = a.shape[-2:] == (1, 1)
    if scalar:
        s = np.abs(a[..., 0])
    else:
        w, s, vh = np.linalg.svd(a)
    bad = np.flatnonzero((s[..., 0] == 0.0) | (s[..., -1] <= tol.sing_rel * s[..., 0]))
    if bad.size:
        top, low = s.reshape(-1, s.shape[-1])[bad[0], [0, -1]]
        raise Singular(f"smallest singular value {low:.3e} at or below "
                       f"tol.sing_rel x largest = {tol.sing_rel * top:.3e}", int(bad[0]))
    if scalar:
        u = np.empty_like(a)
        u.real, u.imag = a.real / s[..., None], a.imag / s[..., None]
        return u, s.astype(complex)[..., None]
    u = w @ vh
    p = (vh.conj().swapaxes(-1, -2) * s[..., None, :]) @ vh
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
    base = np.fft.fft(f.values, axis=0)
    base /= m
    n_values = np.arange(-m // 2, m // 2)
    coeffs = base[n_values % m]
    del base
    coeffs *= _phase(n_values, m)[:, None, None]
    return n_values, coeffs


def band_degree(n_vals: np.ndarray, coeffs: np.ndarray) -> int:
    """Largest |n| whose (l, l) coefficient has norm above 1e-13 times the largest."""
    norms = np.linalg.norm(coeffs, axis=(1, 2))
    sig = np.abs(n_vals)[norms > 1e-13 * norms.max()]
    return int(sig.max()) if sig.size else 0


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
    values = np.fft.ifft(spectrum, axis=0)
    del spectrum
    values *= node_count
    return BoundarySampling(values)


def analytic_part(f: BoundarySampling) -> BoundarySampling:
    """Riesz-type projection: halve c_0, keep n > 0, drop n < 0."""
    m = f.node_count
    n_values, coeffs = fourier_coefficients(f)
    coeffs = coeffs.copy()
    coeffs[n_values < 0] = 0.0
    coeffs[n_values == 0] *= 0.5
    return synthesize_on_grid(n_values, coeffs, m)
