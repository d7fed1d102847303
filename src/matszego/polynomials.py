"""Orthonormal matrix polynomials and block Jacobi parameters.

Right-module convention: polynomials carry matrix coefficients on the
right, and <<f, g>> = integral f* dmu g. The three-term recurrence is

    x p_n(x) = p_{n+1}(x) A_{n+1}^* + p_n(x) B_{n+1} + p_{n-1}(x) A_n,

with p_0 = I. Normalization freedom p_n -> p_n sigma_{n+1} (sigma
unitary) is fixed in one of three ways: every A_n Hermitian PD
("type1", what the Stieltjes procedure yields), every cumulative
product A_1...A_n Hermitian PD ("type2"), or every A_n lower
triangular with positive diagonal ("type3").
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import (
    DimensionMismatch,
    LostOrthogonality,
    LostPositivity,
    NegativeEigenvalue,
    NotHermitian,
    NumericalError,
    RadiusExceeded,
    Singular,
    ValidationError,
)
from .linalg import (
    PANEL_ENTRIES,
    frobenius_norms,
    hermitian_defect,
    inv,
    left_polar,
    max_operator_norm,
    may_exceed,
    operator_norm,
)
from .measure import MatrixMeasure
from .tolerances import DEFAULT, Tolerances

NORM_TYPES = ("type1", "type2", "type3")

@dataclasses.dataclass(frozen=True)
class BlockJacobi:
    """Blocks A_1..A_n (off-diagonal) and B_1..B_n (diagonal); a[k] = A_{k+1}."""

    a: np.ndarray
    b: np.ndarray
    norm_type: str

    def __post_init__(self):
        a = np.asarray(self.a, dtype=complex)
        b = np.asarray(self.b, dtype=complex)
        if a.shape != b.shape or a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise DimensionMismatch(f"incompatible block shapes {a.shape}, {b.shape}")
        if self.norm_type not in NORM_TYPES:
            raise ValidationError(f"unknown norm_type {self.norm_type!r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def block_count(self) -> int:
        return self.a.shape[0]

    @property
    def dim(self) -> int:
        return self.a.shape[1]


def _node_product(f: np.ndarray, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[m] = f[m] rows[m] for every node, about 256 KB of rows at a time.

    Each chunk is l broadcast multiply-adds of one column of f[m] by one
    row of rows[m], so each output column is computed from the same
    column of rows by the same operations in the same order whatever the
    chunk: a degree's l columns come out bitwise equal to the same
    columns of a full-width product (TestLazyValues checks this). Each
    chunk is summed in a temporary, so out may be rows itself.
    """
    step = max(1, (1 << 14) // rows[0].size)
    for a in range(0, rows.shape[0], step):
        fa, ra = f[a : a + step], rows[a : a + step]
        acc = fa[:, :, :1] * ra[:, None, 0]
        for j in range(1, f.shape[-1]):
            acc += fa[:, :, j : j + 1] * ra[:, None, j]
        out[a : a + step] = acc
    return out


class PolySequence:
    """Orthonormal polynomials p_0..p_n, read from one whitened stieltjes buffer.

    The buffer's rows c_m p_k(x_m), one node per distinct abscissa, and
    R_k p_k(E_k) (see stieltjes), a Fortran-order column block per
    degree, stay whitened and read-only; values are computed only when
    read, into new arrays. grid_at(k), p_k at all M x-nodes, unwhitens
    degree k's l columns of the M/2 node rows on each call and mirrors
    them; mass_values[k], p_k at the masses, is computed for every degree
    at the first read (a few KB per mass) and kept. With sigma set
    (apply_transform), both read p_k sigma[k].
    reorthogonalization_passes counts the polynomials the recurrence
    re-orthogonalized against all earlier ones.
    """

    def __init__(self, measure: MatrixMeasure, jacobi: BlockJacobi, y: np.ndarray, spans: list,
                 degree: int, reorthogonalization_passes: int = 0, sigma: np.ndarray | None = None):
        self.measure = measure
        self.jacobi = jacobi
        self.degree = degree
        self.reorthogonalization_passes = reorthogonalization_passes
        self.sigma = sigma
        self._y = y
        self._spans = spans
        self._mass = None

    def grid_at(self, n: int) -> np.ndarray:
        """p_n at the x-nodes, shape (M, l, l).

        The rows of the M/2 distinct abscissae are unwhitened (and
        rotated) and unfolded onto the grid (measure.GridFold.unfold), so
        out[M-1-m] is out[m] bitwise, since x is even in t.
        """
        if not 0 <= n <= self.degree:
            raise DimensionMismatch(f"degree {n} outside 0..{self.degree}")
        fold, l = self.measure.grid_fold, self.measure.dim
        half = fold.x.shape[0]
        cols = self._y[: half * l].reshape(half, l, self._y.shape[1])[:, :, n * l : (n + 1) * l]
        out = np.empty((2 * half, l, l), dtype=complex)
        vals = _node_product(fold.inverse, cols, out[:half])
        if self.sigma is not None:
            vals[...] = np.einsum("kmij,kjl->kmil", vals[None], self.sigma[n : n + 1])[0]
        return fold.unfold(out)

    @property
    def mass_values(self) -> np.ndarray:
        if self._mass is None:
            states, l, width = self.measure.bound_states, self.measure.dim, self._y.shape[1]
            mass = np.empty((self.degree + 1, len(states), l, l), dtype=complex)
            for k, (s, rows) in enumerate(zip(states, self._spans)):
                values = np.linalg.pinv(s.root) @ self._y[rows]
                mass[:, k] = values.reshape(l, width // l, l).transpose(1, 0, 2)
            if self.sigma is not None:
                mass = np.einsum("kmij,kjl->kmil", mass, self.sigma)
            self._mass = mass
        return self._mass


# Re-orthogonalize when the estimated loss of orthogonality passes this.
# Components of size w along earlier polynomials move the Gram matrix of
# the next remainder, and so A_{n+1} and B_{n+2}, by O(w^2), which stays
# at rounding level below sqrt(eps); 0.0 would re-orthogonalize every step.
_EPS = 2.0**-52  # machine epsilon of float64, np.finfo(float).eps
_REORTH_THRESHOLD = _EPS**0.5


class _LossEstimate:
    """Simon's omega-recurrence in norms: estimates of ||Q_k* Q_j - delta_kj I||
    for the newest two blocks j of the recurrence, over all k <= j.

    Applying Q_k* to the computed relation
    Q_{n+1} A_{n+1} = X Q_n - Q_n B_{n+1} - Q_{n-1} A_n + F_n and using
    the relation for X Q_k gives, for k < n,

        W_{k,n+1} A_{n+1} = A_{k+1} W_{k+1,n} + B_{k+1} W_{k,n} - W_{k,n} B_{n+1}
                            + A_k W_{k-1,n} - W_{k,n-1} A_n + rounding,

    W_{k,j} = Q_k* Q_j - delta_kj I (the identities cancel for k = n - 1).
    Taking norms, with ||A_j|| and sigma_min(A_{n+1}) from each step's
    eigh and the Frobenius norm for ||B_j||, turns it into O(n) vector
    arithmetic on preallocated arrays. The k = n entry is the local
    defect (||B_{n+1}|| eps + ||A_n|| w_{n-1,n}) / sigma_min, every entry
    carries rounding noise eps ||X|| / sigma_min (Simon's model of one
    step's rounding), and a diagonal block starts at eps. The estimate is
    pessimistic: on a free Jacobi matrix it grows like (1 + sqrt 2)^n
    where the true loss grows about linearly.

    Slot k + 1 of each array holds degree k; slot 0 is a zero pad for k = -1.
    """

    def __init__(self, n_max: int, x_norm: float):
        self.noise = _EPS * x_norm
        self.a = np.zeros(n_max + 2)  # a[j] = ||A_j||, a[0] = 0
        self.b = np.zeros(n_max + 2)  # b[j] = ||B_j||_F
        self.prev, self.cur, self.new = (np.zeros(n_max + 3) for _ in range(3))
        self.cur[1] = _EPS

    def step(self, n: int, s: float) -> float:
        """Estimates for Q_{n+1} against Q_0..Q_n when sigma_min(A_{n+1}) = s,
        with b[n + 1] set; returns their largest."""
        a, b, cur, prev = self.a, self.b, self.cur, self.prev
        t = self.new[1 : n + 2]
        np.multiply(a[1 : n + 1], cur[2 : n + 2], out=t[:n])
        t[:n] += (b[1 : n + 1] + b[n + 1]) * cur[1 : n + 1]
        t[:n] += a[:n] * cur[:n]
        t[:n] += a[n] * prev[1 : n + 1]
        t[n] = _EPS * b[n + 1] + a[n] * cur[n]
        t += self.noise
        t /= s
        return float(t.max())

    def reset(self, n: int, s: float) -> None:
        """Q_{n+1} was re-orthogonalized against Q_0..Q_n."""
        self.new[1 : n + 2] = self.noise / s

    def advance(self, n: int, a_norm: float) -> None:
        """Q_{n+1} is final, with ||A_{n+1}|| = a_norm."""
        self.a[n + 1] = a_norm
        self.new[n + 2] = _EPS
        self.prev, self.cur, self.new = self.cur, self.new, self.prev


def stieltjes(measure: MatrixMeasure, n_max: int, tol: Tolerances = DEFAULT) -> PolySequence:
    """Run the Stieltjes procedure to degree n_max (type1 output).

    The recurrence runs as a block Lanczos on whitened rows. The
    midpoint grid's M nodes come in mirror pairs t, -t with the same
    abscissa and weight (to rounding), so the discrete measure has M/2
    distinct abscissae x_m, m < M/2. Each contributes the l rows c_m p_n(x_m),
    with c_m* c_m = (w(t_m) + w(t_{M-1-m}))/M (measure.GridFold), and
    each mass the rank_k rows R_k p_n(E_k), with R_k the rank-truncated
    root of its weight (BoundState.root). The inner product is then the
    plain sum over rows, and since the recurrence multiplies by blocks on
    the right and scales each row by its abscissa, it runs on one tall
    buffer of (M/2) l + sum rank_k rows, the measure's resolution, and
    (n_max + 1) l columns: every B block, Gram matrix and
    re-orthogonalization Q (Q* q) is a GEMM.

    Orthogonality against earlier polynomials is kept by partial
    re-orthogonalization (Simon, Math. Comp. 42, 1984). Each step
    updates an estimate of the loss of orthogonality of the new block
    against every earlier one (_LossEstimate). When it passes sqrt(eps)
    (_REORTH_THRESHOLD), the new block is re-orthogonalized against all
    earlier ones, and so is the next block, since the recurrence builds
    it from the last two; the estimate then restarts at rounding level.
    reorthogonalization_passes counts the blocks treated. The run ends
    with one measured check of the last block against all earlier ones;
    a defect above tol.orth raises LostOrthogonality.

    A degree the discrete measure cannot resolve is refused before the
    loop: p_0..p_n need (n + 1) l dimensions, and the measure carries
    (M/2) l + sum rank_k, the buffer's row count. NotHermitian is raised
    when a B block is not Hermitian, LostPositivity when the Gram matrix
    of the recurrence remainder drops below tol.pos, NegativeEigenvalue
    when it has an eigenvalue below -tol.herm (reachable only under a
    tol.pos <= 0 override), NumericalError when it overflows (a mass past
    |E| = 1e154). Every message starts with "stieltjes:", and those of the
    resolution and positivity failures name the resolution M/2 + sum rank_k.

    Evaluations at a mass point ride the recurrence's growing solution:
    rounding noise amplifies like |z_k|^{-n} while the true values decay
    like |z_k|^n. The rows R_k p_n(E_k) see only the range of the weight,
    so components in its kernel never arise; R_k must be truncated at
    tol.rank_rel, because a Hermitian square root keeps rounding-size
    kernel entries, a ghost mass that re-orthogonalization would
    eventually resolve. A mass is frozen to zero once its amplitude
    ||R_k p_n(E_k)||_F falls below 1e-10; the discarded true Gram
    contribution is below 1e-20, and the orthogonality it perturbs, at
    most 1e-10 per mass, is left to the final check, since no pass can
    restore it.

    The B block's Hermitian test takes the exact norms of its one l x l
    block (_check_hermitian). One eigh of the Gram matrix gives the
    LostPositivity test its smallest eigenvalue, and one square root of
    its eigenvalues (rounded negatives clipped to 0, as
    linalg.sqrt_from_eigh does) gives the loss estimate the norms of
    A_{n+1}, A_{n+1} itself and its inverse; a re-orthogonalized step
    takes a second eigh. The mass rows are read only while a mass is
    live, and zeroed only once one is frozen.

    The buffer is a plain Fortran-order array, left uninitialized: column
    block 0 is written from fold.root and the mass roots, and step n
    writes block n + 1 whole before any later step reads it. It is
    read-only once returned: values are computed only when read, into
    new arrays (PolySequence), so a caller that wants only the blocks,
    such as the sum rule, never unwhitens a row. mass_values holds
    pinv(R_k) R_k p_n(E_k), the values projected onto the range of the
    weight.
    """
    l, fold = measure.dim, measure.grid_fold
    half = fold.x.shape[0]
    states = measure.bound_states
    ranks = [s.root.shape[0] for s in states]
    dims = half * l + sum(ranks)
    if (n_max + 1) * l > dims:
        raise LostPositivity(
            f"stieltjes: degree {n_max} needs (n + 1) l = {(n_max + 1) * l} dimensions; the "
            f"discrete measure has (M/2) l + sum rank_k = {half} x {l} + {sum(ranks)} "
            f"= {dims}, so degrees 0..{dims // l - 1}"
        )
    offsets = np.cumsum([half * l] + ranks)
    spans = [slice(a, b) for a, b in zip(offsets[:-1], offsets[1:])]
    width = (n_max + 1) * l

    y = np.empty((dims, width), dtype=complex, order="F")
    grid = y[: half * l].reshape(half, l, width)
    grid[:, :, :l] = fold.root
    for s, rows in zip(states, spans):
        y[rows, :l] = s.root
    x_rows = np.concatenate(
        [np.repeat(fold.x, l)]
        + [np.full(r, s.energy) for s, r in zip(states, ranks)]
    )[:, None]
    # the mass rows follow the grid rows; starts[k] is mass k's first one
    starts = offsets[:-1] - half * l
    live = np.ones(len(states), dtype=bool)
    # dead marks the rows of frozen masses, from the first freeze on
    any_live, dead = bool(states), None

    a_blocks = np.empty((n_max, l, l), dtype=complex)
    b_blocks = np.empty((n_max, l, l), dtype=complex)
    loss = _LossEstimate(n_max, float(np.max(np.abs(x_rows))))
    passes = 0
    pending = False

    # a far mass overflows the Gram matrix x^2 |R p|^2: run quiet, refuse it
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_max):
            cur = y[:, n * l : (n + 1) * l]
            q = x_rows * cur
            b_next = cur.conj().T @ q
            _check_hermitian(b_next, n + 1)
            b_next = 0.5 * (b_next + b_next.conj().T)
            loss.b[n + 1] = np.sqrt(np.vdot(b_next, b_next).real)

            q -= _column_major(cur, b_next)
            if n > 0:
                q -= _column_major(y[:, (n - 1) * l : n * l], a_blocks[n - 1])

            # a pass treats the block whose estimate crosses the threshold and
            # the next one, which the recurrence builds from it and its predecessor
            second, pending = pending, False
            if not second:
                lam, vec = _gram_eigh(q)
                root = np.sqrt(np.maximum(lam, 0.0))
                pending = not (lam[0] > 0.0 and loss.step(n, root[0]) <= _REORTH_THRESHOLD)
            treat = second or pending
            if treat:
                basis = y[:, : (n + 1) * l]
                q -= _column_major(basis, (q.conj().T @ basis).conj().T)
                lam, vec = _gram_eigh(q)
                root = np.sqrt(np.maximum(lam, 0.0))
                passes += 1
            if not math.isfinite(lam[-1]):
                raise NumericalError(
                    f"stieltjes: step {n + 1}: Gram matrix not finite at max |x| = "
                    f"{np.max(np.abs(x_rows)):.3e}; |x| above about 1e154 overflows the recurrence"
                )
            if lam[0] < tol.pos:
                raise LostPositivity(
                    f"stieltjes: step {n + 1}: Gram eigenvalue {lam[0]:.3e} below {tol.pos:.1e}; "
                    f"the discrete measure's resolution is M/2 + sum rank_k = "
                    f"{half} + {sum(ranks)} = {half + sum(ranks)}"
                )
            if lam[0] < -tol.herm:
                raise NegativeEigenvalue(
                    f"stieltjes: step {n + 1}: Gram eigenvalue {lam[0]:.3e} below -{tol.herm:.1e}"
                )
            if treat:
                loss.reset(n, root[0])
            loss.advance(n, root[-1])
            vec_h = vec.conj().T
            a_next = (vec * root) @ vec_h
            nxt = y[:, (n + 1) * l : (n + 2) * l]
            nxt[...] = _column_major(q, (vec / root) @ vec_h)
            if any_live:
                mass = nxt[half * l :]
                amp = np.add.reduceat((mass.real**2 + mass.imag**2).sum(axis=1), starts)
                frozen = live & (amp < 1e-20)
                if frozen.any():
                    live &= ~frozen
                    any_live, dead = bool(live.any()), np.repeat(~live, ranks)
            if dead is not None:
                nxt[half * l :][dead] = 0.0
            a_blocks[n] = a_next
            b_blocks[n] = b_next

    last = y[:, n_max * l : width].conj().T @ y[:, :width]
    cross = last.reshape(l, n_max + 1, l).transpose(1, 0, 2)
    cross[-1] -= np.eye(l)
    defect = max_operator_norm(cross)
    if not defect <= tol.orth:
        raise LostOrthogonality(
            f"stieltjes: degree {n_max}: orthonormality defect {defect:.3e} against "
            f"degrees 0..{n_max} above tol.orth {tol.orth:.1e}"
        )
    jac = BlockJacobi(a=a_blocks, b=b_blocks, norm_type="type1")
    y.flags.writeable = False
    return PolySequence(measure, jac, y, spans, n_max, passes)


def _scaled(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """v m for a 1 x 1 block m, the floats a GEMM gives wherever m is real
    (as every block of the scalar recurrence is): each entry's one product,
    and adding 0 turns the -0 a product may leave into the +0 that the
    GEMM's sum from zero gives."""
    out = v * m[0, 0]
    out += 0.0
    return out


def _column_major(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """v m for a column-major block v of the buffer, computed as (m^T v^T)^T
    so that the product is column-major too: an update of a buffer block
    by it then runs over both in one memory order, about twice as fast.
    A 1 x 1 m scales v (_scaled)."""
    if m.shape == (1, 1):
        return _scaled(v, m)
    return (m.T @ v.T).T


def _gram_eigh(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of q* q, made exactly Hermitian so eigh needs no test first.
    A single column's Gram matrix is its squared norm, the dot product the
    GEMM takes, with eigenvector 1: heevd's floats. If q* q overflowed: NaNs, no eigh."""
    if q.shape[1] == 1:
        return np.array([np.vdot(q, q).real]), np.ones((1, 1), dtype=complex)
    gram = q.conj().T @ q
    if not np.isfinite(gram).all():
        return np.full(q.shape[1], np.nan), None
    return np.linalg.eigh(0.5 * (gram + gram.conj().T))


def _check_hermitian(b: np.ndarray, step: int) -> None:
    """Raise NotHermitian when ||B - B*|| > 1e-8 max(1, ||B||), from the
    exact norms of the one l x l block. The defect's Frobenius norm bounds
    its operator norm, with 1e-8 relative to spare for rounding, so a
    Frobenius norm at most 1e-8 / (1 + 1e-8) passes without an SVD; the
    exact defect and ||B|| are needed only past that, and the decision is
    the exact one."""
    d = b - b.conj().T
    if math.sqrt(np.vdot(d, d).real) * (1.0 + 1e-8) <= 1e-8:
        return
    herm = hermitian_defect(b)
    if herm <= 1e-8:
        return
    floor = 1e-8 * max(1.0, float(operator_norm(b)))
    if herm > floor:
        raise NotHermitian(
            f"stieltjes: step {step}: B block defect {herm:.2e} above "
            f"1e-8 x max(1, ||B||) = {floor:.2e}"
        )


def orthonormality_defect(seq: PolySequence) -> float:
    """max over 0 <= i <= j <= n of ||<<p_i, p_j>> - delta_ij I||, n the
    sequence's degree.

    A plain Gram matrix of the whitened rows Q, one node per distinct
    abscissa (stieltjes), whose Q_i* Q_j is <<p_i, p_j>>; unitary sigma_k
    leave every block norm unchanged, so a transformed sequence reads the
    same rows. Only the upper block triangle is formed, in tiles of at
    most 64 columns summed over chunks of whole nodes of rows: a tile and
    a chunk's conjugated rows take at most 64 KB each. The blocks of a
    tile are decomposed only where their Frobenius norms may pass the
    running maximum (linalg.may_exceed), so a tile of rounding-level
    blocks below it costs no SVD, and the float is the one every block's
    norm gives.
    """
    y, l = seq._y, seq.measure.dim
    cols = (seq.degree + 1) * l
    width = max(1, 64 // l) * l
    grid_rows, total = seq.measure.grid_fold.x.shape[0] * l, y.shape[0]
    step = max(1, PANEL_ENTRIES // (width * l)) * l
    bounds = list(range(0, grid_rows, step)) + list(range(grid_rows, total, step)) + [total]
    worst = 0.0
    for a in range(0, cols, width):
        left = y[:, a : min(a + width, cols)]
        for b in range(a, cols, width):
            right = y[:, b : min(b + width, cols)]
            tile = left[: bounds[1]].conj().T @ right[: bounds[1]]
            for start, stop in zip(bounds[1:-1], bounds[2:]):
                tile += left[start:stop].conj().T @ right[start:stop]
            ni, nj = tile.shape[0] // l, tile.shape[1] // l
            blocks = tile.reshape(ni, l, nj, l).transpose(0, 2, 1, 3)
            if a == b:
                i, j = np.triu_indices(ni)
                blocks = blocks[i, j]
                blocks[i == j] -= np.eye(l)
            blocks = blocks.reshape(-1, l, l)
            keep = may_exceed(frobenius_norms(blocks), worst)
            if keep.any():
                worst = max(worst, max_operator_norm(blocks[keep]))
    return worst


def _times(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """v_k m for every leading index k, as one (N l, l) x (l, l) GEMM; a
    1 x 1 m scales v (_scaled)."""
    if m.shape == (1, 1):
        return _scaled(v, m)
    return (v.reshape(-1, m.shape[0]) @ m).reshape(v.shape)


def _band(terms: np.ndarray, n0: int, n1: int) -> np.ndarray:
    """The block band T^T of degrees n0..n1-1 against the rows of degrees
    n0-1..n1 (0..n1 for n0 = 0), from terms[n] = T_n^T, shape (n, l, 3 l),
    where T_n = [A_n; B_{n+1}; A_{n+1}^*] (A_0 = 0): the rows of the
    window times T give Q_{n-1} A_n + Q_n B_{n+1} + Q_{n+1} A_{n+1}^* for
    each degree.

    Row block j holds terms[n0 + j] j l columns to the right of row
    block 0, so rows of l (width + 1) entries, l of them spare, lay the
    terms out in one assignment.
    """
    count, l = n1 - n0, terms.shape[1]
    width = (count + 2) * l
    flat = np.zeros(count * l * (width + 1), dtype=complex)
    rows = flat.reshape(count, -1)[:, : l * width].reshape(count, l, width)
    rows[:, :, : 3 * l] = terms[n0:n1]
    band = flat[: count * l * width].reshape(count * l, width)
    return band if n0 else band[:, l:]


def recurrence_residual(seq: PolySequence) -> float:
    """sup-norm over grid nodes and degrees of the recurrence defect
    x p_n - p_{n+1} A_{n+1}^* - p_n B_{n+1} - p_{n-1} A_n.

    The grid values are even in t, so the sup runs over the M/2 distinct
    abscissae. c_m acts on the left and the blocks on the right, so the
    defect of p_n is c_m^{-1} times the same defect of the whitened rows
    c_m p_n. The defect is formed on the rows in panels of degrees and
    nodes of about 64 KB: per panel, the rows times x less one GEMM of
    the rows of the panel's degrees and their two neighbours against
    the block band of [A_n; B_{n+1}; A_{n+1}^*] (_band), transposed so
    that every operand is a view of the buffer. ||c_m^{-1}||_F times a
    whitened block's Frobenius norm bounds its defect's norm, so only
    the blocks whose bound may pass the running maximum
    (linalg.may_exceed) are unwhitened, by one batched product with
    fold.inverse, and decomposed; no stack of values is held. A
    transformed sequence's blocks are carried back to the buffer's frame
    (to_type inverted); its defect is then the frame's times the unitary
    sigma_{n+1}, of the same norm.
    """
    a, b, s = seq.jacobi.a, seq.jacobi.b, seq.sigma
    if s is not None:
        s_adj = s.conj().transpose(0, 2, 1)
        a, b = s[:-1] @ a @ s_adj[1:], s[:-1] @ b @ s_adj[:-1]
    fold, l, n = seq.measure.grid_fold, seq.measure.dim, seq.degree
    half = fold.x.shape[0]
    rows_t = seq._y[: half * l].T  # (columns, rows), C order
    x_rows = np.repeat(fold.x, l)
    inv_t = fold.inverse.transpose(0, 2, 1)
    inv_fro = frobenius_norms(fold.inverse)
    terms = np.zeros((n, l, 3 * l), dtype=complex)  # T_n^T, as _band takes them
    terms[1:, :, :l] = a[:-1].transpose(0, 2, 1)
    terms[:, :, l : 2 * l] = b.transpose(0, 2, 1)
    terms[:, :, 2 * l :] = a.conj()
    degrees = max(1, min(n, PANEL_ENTRIES // (half * l * l)))
    nodes = max(1, min(half, PANEL_ENTRIES // (degrees * l * l)))
    worst = 0.0
    # top degrees first: the defect grows with the degree, so the running
    # maximum is near its end early and most later panels skip
    for n0 in reversed(range(0, n, degrees)):
        n1 = min(n, n0 + degrees)
        lo = max(0, n0 - 1)
        band = _band(terms, n0, n1)
        for m0 in range(0, half, nodes):
            m1 = min(half, m0 + nodes)
            rows = slice(m0 * l, m1 * l)
            res = rows_t[n0 * l : n1 * l, rows] * x_rows[rows]
            res -= band @ rows_t[lo * l : (n1 + 1) * l, rows]
            # block (n, m) is the transpose of node m's whitened defect of degree n
            blocks = res.reshape(n1 - n0, l, m1 - m0, l).transpose(0, 2, 1, 3)
            keep = may_exceed(frobenius_norms(blocks) * inv_fro[m0:m1], worst)
            if keep.any():
                at = np.broadcast_to(np.arange(m0, m1), keep.shape)[keep]
                worst = max(worst, max_operator_norm(blocks[keep] @ inv_t[at]))
    return worst


# ---------------------------------------------------------------------------
# normalization types


def _positive_lq(m: np.ndarray, tol: Tolerances, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """m = L Q, L lower triangular with positive real diagonal, Q unitary; m is from A_degree."""
    q0, r0 = np.linalg.qr(m.conj().T)
    d = np.diagonal(r0)
    d_min, floor = np.min(np.abs(d)), tol.sing_rel * max(1.0, float(np.max(np.abs(d))))
    if d_min <= floor:
        raise Singular(f"to_type: degree {degree}: LQ factor diagonal min |d| {d_min:.3e} at or "
                       f"below tol.sing_rel x max(1, max |d|) = {floor:.3e}")
    phases = d / np.abs(d)
    q1 = q0 * phases[None, :]
    r1 = np.conj(phases)[:, None] * r0
    return r1.conj().T, q1.conj().T


def _polar_factor(m: np.ndarray, tol: Tolerances, degree: int) -> np.ndarray:
    """The unitary U of m = U P (linalg.left_polar); m is from A_degree."""
    try:
        return left_polar(m, tol)[0]
    except Singular as err:
        raise Singular(f"to_type: degree {degree}: {err}") from None


def to_type(
    jacobi: BlockJacobi, target: str, tol: Tolerances = DEFAULT
) -> tuple[BlockJacobi, np.ndarray]:
    """Transform to the requested normalization type.

    Returns the transformed blocks and the (n + 1, l, l) stack of
    unitaries sigma_1..sigma_{n+1} realizing them, sigma[k] = sigma_{k+1}
    and sigma[0] = I, so p_0 is untouched. The transformed data are
    A~_k = sigma_k^* A_k sigma_{k+1}, B~_k = sigma_k^* B_k sigma_k and
    p~_k = p_k sigma_{k+1}; in array indices a~[k] = sigma[k]* a[k]
    sigma[k+1], b~[k] = sigma[k]* b[k] sigma[k] and p~_k = p_k sigma[k].
    """
    if target not in NORM_TYPES:
        raise ValidationError(f"target must be one of {NORM_TYPES}, got {target!r}")
    n, l = jacobi.block_count, jacobi.dim
    sigma = np.empty((n + 1, l, l), dtype=complex)
    sigma[0] = np.eye(l)

    if target == "type2":
        cum = np.eye(l, dtype=complex)
        for k in range(n):
            cum = cum @ jacobi.a[k]
            sigma[k + 1] = _polar_factor(cum, tol, k + 1).conj().T
    else:
        for k in range(n):
            m = sigma[k].conj().T @ jacobi.a[k]
            if target == "type1":
                sigma[k + 1] = _polar_factor(m, tol, k + 1).conj().T
            else:  # type3
                _, qu = _positive_lq(m, tol, k + 1)
                sigma[k + 1] = qu.conj().T

    left = sigma[:-1].conj().transpose(0, 2, 1)
    a_new = left @ jacobi.a @ sigma[1:]
    b_new = left @ jacobi.b @ sigma[:-1]
    out = BlockJacobi(a=a_new, b=b_new, norm_type=target)
    return out, sigma


def type_defect(jacobi: BlockJacobi) -> float:
    """How far the blocks are from their declared normalization type."""
    a = jacobi.a
    if jacobi.norm_type == "type1":
        return hermitian_defect(a)
    if jacobi.norm_type == "type2":
        worst = 0.0
        cum = np.eye(jacobi.dim, dtype=complex)
        for m in a:
            cum = cum @ m
            worst = max(worst, hermitian_defect(cum))
        return worst
    # type3: entries above the diagonal, imaginary parts and negative real
    # parts on it, each reduced over the whole stack
    diag = np.diagonal(a, axis1=1, axis2=2)
    return max(
        float(np.max(np.abs(np.triu(a, 1)), initial=0.0)),
        float(np.max(np.abs(diag.imag), initial=0.0)),
        float(max(0.0, -np.min(diag.real, initial=np.inf))),
    )


def apply_transform(seq: PolySequence, jacobi: BlockJacobi, sigma: np.ndarray) -> PolySequence:
    """Carry polynomial values to an equivalent normalization, p_k -> p_k sigma[k],
    with sigma the unitary stack to_type returns.

    Nothing is computed here: the new sequence shares seq's buffer and
    rotates each degree when it is read.
    """
    if sigma.shape[0] != seq.degree + 1:
        raise DimensionMismatch("transform length does not match sequence degree")
    if seq.sigma is not None:
        sigma = np.einsum("kij,kjl->kil", seq.sigma, sigma)
    return PolySequence(seq.measure, jacobi, seq._y, seq._spans, seq.degree,
                        seq.reorthogonalization_passes, sigma)


# ---------------------------------------------------------------------------
# evaluation away from the grid


def eval_scaled_many(jacobi: BlockJacobi, n_list, z_arr: np.ndarray) -> np.ndarray:
    """q_n(z) for each n in n_list on a common set of points.

    Returns an array of shape (len(n_list), len(z_arr), l, l). One pass
    of the recurrence

        q_{k+1} = ((1 + z^2) q_k - z q_k B_{k+1} - z^2 q_{k-1} A_k) (A_{k+1}^*)^{-1}

    serves all requested degrees. Each right multiplication by a block
    is one panel GEMM, (len(z_arr) l, l) x (l, l), over all points.
    """
    n_list = list(n_list)
    n_top = max(n_list)
    if n_top > jacobi.block_count:
        raise DimensionMismatch(f"degree {n_top} needs {n_top} blocks, have {jacobi.block_count}")
    z_arr = np.asarray(z_arr, dtype=complex)
    if np.any(np.abs(z_arr) > 1.0 + 1e-9):
        raise RadiusExceeded(
            f"polynomials: scaled evaluation at |z| = {np.abs(z_arr).max():.6g} "
            "above 1 + 1e-9, outside the closed unit disk"
        )
    l = jacobi.dim
    nz = z_arr.size
    z1 = z_arr[:, None, None]
    z2 = z1 * z1
    prev = np.zeros((nz, l, l), dtype=complex)
    cur = np.broadcast_to(np.eye(l, dtype=complex), (nz, l, l)).copy()
    out = np.empty((len(n_list), nz, l, l), dtype=complex)
    for slot, n in enumerate(n_list):
        if n == 0:
            out[slot] = cur
    inv_adj = inv(jacobi.a.conj().transpose(0, 2, 1))
    for k in range(n_top):
        nxt = (1.0 + z2) * cur - z1 * _times(cur, jacobi.b[k])
        if k > 0:
            nxt -= z2 * _times(prev, jacobi.a[k - 1])
        nxt = _times(nxt, inv_adj[k])
        prev, cur = cur, nxt
        for slot, n in enumerate(n_list):
            if n == k + 1:
                out[slot] = cur
    return out
