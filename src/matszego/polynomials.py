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
import mmap

import numpy as np

from .errors import (
    DimensionMismatch,
    LostPositivity,
    NotHermitian,
    RadiusExceeded,
    Singular,
    ValidationError,
)
from .linalg import (
    hermitian_defect,
    left_polar,
    max_operator_norm,
    operator_norm,
    sqrt_from_eigh,
)
from .measure import MatrixMeasure, inner_product
from .tolerances import DEFAULT, Tolerances

NORM_TYPES = ("type1", "type2", "type3")

# private anonymous mappings where the platform names them (POSIX)
_PRIVATE_MAP = (
    {"flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS} if hasattr(mmap, "MAP_ANONYMOUS") else {}
)
_HUGE_PAGE = 1 << 21


def _mapped_buffer(rows: int, cols: int) -> np.ndarray:
    """Zeroed complex (rows, cols) Fortran-order array in its own anonymous mapping.

    Its pages go back to the operating system as soon as the last view
    is dropped. A buffer from malloc does not: once glibc has unmapped
    one block of a size, its dynamic mmap threshold rises and the next
    request of that size lands on the heap, where the freed block stays
    resident and smaller requests carve it up, so a process running many
    recurrences grows by a whole buffer at unpredictable times. Huge
    pages are advised, as numpy does for its own large arrays, and the
    array starts on a huge-page boundary: fresh pages must be faulted
    in on every call, and whole huge pages cut that cost about fourfold
    at a few MB.
    """
    nbytes = rows * cols * 16
    buf = mmap.mmap(-1, nbytes + _HUGE_PAGE, **_PRIVATE_MAP)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)
    whole = np.frombuffer(buf, dtype=np.uint8)
    start = -whole.ctypes.data % _HUGE_PAGE
    return whole[start : start + nbytes].view(complex).reshape(cols, rows).T


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


def _unwhiten(root: np.ndarray, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[m] = root[m]^{-1} rows[m] for every node, about 1 MB of rows at a time.

    out may be rows itself. Each node's solve is one LAPACK call whatever
    the chunk, so a degree's l columns come out bitwise equal to the same
    columns of the full-width solve (TestLazyValues checks this).
    """
    step = max(1, (1 << 16) // rows[0].size)
    for a in range(0, rows.shape[0], step):
        out[a : a + step] = np.linalg.solve(root[a : a + step], rows[a : a + step])
    return out


class _WhitenedValues:
    """p_0..p_n held as the whitened rows of one stieltjes buffer.

    The grid rows c_m p_k(x_m) become p_k(x_m) only when read. A full read
    unwhitens them in place, once, so grid_values is a view of the buffer;
    before that, one degree is solved from its own l columns. Every
    sequence that shares the buffer reads through this one object, so
    no row is ever unwhitened twice.
    """

    def __init__(self, measure: MatrixMeasure, y: np.ndarray, spans: list, degree: int):
        self.measure = measure
        self.degree = degree
        self._y = y
        self._spans = spans
        self._grid = None
        self._mass = None

    def _rows(self) -> np.ndarray:
        m_grid, l = self.measure.quad_order, self.measure.dim
        return self._y[: m_grid * l].reshape(m_grid, l, self._y.shape[1])

    def grid_values(self) -> np.ndarray:
        if self._grid is None:
            rows = self._rows()
            _unwhiten(self.measure.weight_root, rows, rows)
            m_grid, l = self.measure.quad_order, self.measure.dim
            self._grid = rows.reshape(m_grid, l, self.degree + 1, l).transpose(2, 0, 1, 3)
        return self._grid

    def grid_at(self, n: int) -> np.ndarray:
        if self._grid is not None:
            return self._grid[n]
        l = self.measure.dim
        cols = self._rows()[:, :, n * l : (n + 1) * l]
        return _unwhiten(self.measure.weight_root, cols, np.empty(cols.shape, dtype=complex))

    def mass_values(self) -> np.ndarray:
        # a few KB per mass, so every degree is computed at the first read
        if self._mass is None:
            states, l, width = self.measure.bound_states, self.measure.dim, self._y.shape[1]
            self._mass = np.empty((self.degree + 1, len(states), l, l), dtype=complex)
            for k, (s, rows) in enumerate(zip(states, self._spans)):
                values = np.linalg.pinv(s.root) @ self._y[rows]
                self._mass[:, k] = values.reshape(l, width // l, l).transpose(1, 0, 2)
        return self._mass


class _RotatedValues:
    """p_k sigma[k] for the values of another sequence, rotated on read."""

    def __init__(self, base, sigma: np.ndarray):
        self.degree = base.degree
        self._base = base
        self._sigma = sigma
        self._grid = None
        self._mass = None

    def grid_values(self) -> np.ndarray:
        if self._grid is None:
            self._grid = np.einsum("kmij,kjl->kmil", self._base.grid_values(), self._sigma)
        return self._grid

    def grid_at(self, n: int) -> np.ndarray:
        if self._grid is not None:
            return self._grid[n]
        one = self._base.grid_at(n)[None]
        return np.einsum("kmij,kjl->kmil", one, self._sigma[n : n + 1])[0]

    def mass_values(self) -> np.ndarray:
        if self._mass is None:
            self._mass = np.einsum("kmij,kjl->kmil", self._base.mass_values(), self._sigma)
        return self._mass


class PolySequence:
    """Orthonormal polynomials p_0..p_n on the quadrature grid and at the masses.

    grid_values[k] holds p_k at the x-nodes and mass_values[k] at the mass
    energies; grid_at(k) is grid_values[k] alone. Values are computed when
    first read, and only for what is read: a sequence that is only asked
    for its jacobi never computes one. A full read of grid_values is
    computed once and kept; grid_at(k) before it costs one degree and
    keeps nothing. Either read gives the same floats.
    """

    def __init__(self, measure: MatrixMeasure, jacobi: BlockJacobi, values):
        self.measure = measure
        self.jacobi = jacobi
        self._values = values

    @property
    def degree(self) -> int:
        return self._values.degree

    @property
    def grid_values(self) -> np.ndarray:
        return self._values.grid_values()

    @property
    def mass_values(self) -> np.ndarray:
        return self._values.mass_values()

    def grid_at(self, n: int) -> np.ndarray:
        """p_n at the x-nodes, shape (M, l, l)."""
        if not 0 <= n <= self.degree:
            raise DimensionMismatch(f"degree {n} outside 0..{self.degree}")
        return self._values.grid_at(n)


def stieltjes(measure: MatrixMeasure, n_max: int, tol: Tolerances = DEFAULT) -> PolySequence:
    """Run the Stieltjes procedure to degree n_max (type1 output).

    The recurrence runs as a block Lanczos on whitened rows. Each grid
    node contributes the l rows c_m p_n(x_m), with c_m* c_m = w(t_m)/M
    (measure.weight_root), and each mass the rank_k rows R_k p_n(E_k),
    with R_k the rank-truncated root of its weight (BoundState.root).
    The inner product is then the plain sum over rows, and since the
    recurrence multiplies by blocks on the right and scales each row by
    its abscissa, it runs on one tall buffer of M l + sum rank_k rows
    and (n_max + 1) l columns: every B block, Gram matrix and
    re-orthogonalization Q (Q* q) is a GEMM.

    A full re-orthogonalization pass against all earlier polynomials is
    applied every 10 steps to arrest drift, and every step while a mass
    is live. NotHermitian is raised when a B block is not Hermitian,
    LostPositivity when the Gram matrix of the recurrence remainder
    drops below tol.pos; their messages start with "stieltjes:", and
    LostPositivity's names the discrete measure's resolution M/2 +
    sum rank_k (M/2 distinct nodes plus the mass ranks).

    Evaluations at a mass point ride the recurrence's growing solution:
    rounding noise amplifies like |z_k|^{-n} while the true values decay
    like |z_k|^n. The rows R_k p_n(E_k) see only the range of the weight,
    so components in its kernel never arise; R_k must be truncated at
    tol.rank_rel, because a Hermitian square root keeps rounding-size
    kernel entries, a ghost mass that full re-orthogonalization would
    eventually resolve. A mass is frozen to zero once its amplitude
    ||R_k p_n(E_k)||_F falls below 1e-10; the discarded true Gram
    contribution is below 1e-20.

    The B block's Hermitian test takes the exact norms of its one l x l
    block (_check_hermitian). One eigh of the Gram matrix gives the
    LostPositivity test its smallest eigenvalue and A_{n+1} its square
    root (linalg.sqrt_from_eigh, whose NegativeEigenvalue guard still
    holds under a tol.pos <= 0 override).

    The buffer is an anonymous mapping of its own (_mapped_buffer), so
    its pages are returned when the sequence is dropped. The sequence
    keeps the buffer whitened and computes values only when they are
    read (PolySequence): a caller that wants only the blocks, such as
    the sum rule, never unwhitens a row. A full read of grid_values
    unwhitens the grid rows in place, so it is a view of the buffer;
    grid_at(n) before that solves only degree n's l columns.
    mass_values holds pinv(R_k) R_k p_n(E_k), the values projected onto
    the range of the weight.
    """
    l = measure.dim
    m_grid = measure.quad_order
    states = measure.bound_states
    ranks = [s.root.shape[0] for s in states]
    offsets = np.cumsum([m_grid * l] + ranks)
    spans = [slice(a, b) for a, b in zip(offsets[:-1], offsets[1:])]
    width = (n_max + 1) * l

    y = _mapped_buffer(int(offsets[-1]), width)
    grid = y[: m_grid * l].reshape(m_grid, l, width)
    grid[:, :, :l] = measure.weight_root
    for s, rows in zip(states, spans):
        y[rows, :l] = s.root
    x_rows = np.concatenate(
        [np.repeat(measure.x_nodes, l)] + [np.full(r, s.energy) for s, r in zip(states, ranks)]
    )[:, None]
    live = np.ones(len(states), dtype=bool)

    a_blocks = np.empty((n_max, l, l), dtype=complex)
    b_blocks = np.empty((n_max, l, l), dtype=complex)

    for n in range(n_max):
        any_live = bool(live.any())
        cur = y[:, n * l : (n + 1) * l]
        q = x_rows * cur
        b_next = cur.conj().T @ q
        _check_hermitian(b_next, n + 1)
        b_next = 0.5 * (b_next + b_next.conj().T)

        q -= cur @ b_next
        if n > 0:
            q -= y[:, (n - 1) * l : n * l] @ a_blocks[n - 1]

        # live mass rows regrow noise at 1/|z| per step, so while any
        # remain the drift pass must run every step
        if (n + 1) % 10 == 0 or any_live:
            basis = y[:, : (n + 1) * l]
            q -= basis @ (q.conj().T @ basis).conj().T

        gram = q.conj().T @ q
        # exactly Hermitian, so eigh needs no Hermitian test first
        gram = 0.5 * (gram + gram.conj().T)
        lam, vec = np.linalg.eigh(gram)
        if lam[0] < tol.pos:
            raise LostPositivity(
                f"stieltjes: step {n + 1}: Gram eigenvalue {lam[0]:.3e} below {tol.pos:.1e}; "
                f"the discrete measure's resolution is M/2 + sum rank_k = "
                f"{m_grid // 2} + {sum(ranks)} = {m_grid // 2 + sum(ranks)}"
            )
        a_next = sqrt_from_eigh(lam, vec, tol)
        nxt = y[:, (n + 1) * l : (n + 2) * l]
        nxt[...] = q @ np.linalg.inv(a_next)
        for k, rows in enumerate(spans):
            if live[k] and np.linalg.norm(nxt[rows]) < 1e-10:
                live[k] = False
            if not live[k]:
                nxt[rows] = 0.0
        a_blocks[n] = a_next
        b_blocks[n] = b_next

    jac = BlockJacobi(a=a_blocks, b=b_blocks, norm_type="type1")
    return PolySequence(measure, jac, _WhitenedValues(measure, y, spans, n_max))


def _check_hermitian(b: np.ndarray, step: int) -> None:
    """Raise NotHermitian when ||B - B*|| > 1e-8 max(1, ||B||), from the
    exact norms of the one l x l block; ||B|| is needed only when the
    defect exceeds 1e-8, the least the threshold can be."""
    herm = hermitian_defect(b)
    if herm <= 1e-8:
        return
    floor = 1e-8 * max(1.0, float(operator_norm(b)))
    if herm > floor:
        raise NotHermitian(
            f"stieltjes: step {step}: B block defect {herm:.2e} above "
            f"1e-8 x max(1, ||B||) = {floor:.2e}"
        )


def orthonormality_defect(seq: PolySequence, max_degree: int | None = None) -> float:
    """max over 0 <= i <= j <= n of ||<<p_i, p_j>> - delta_ij I||.

    The whole window Gram matrix [<<p_i, p_j>>] is one inner_product of
    the column-stacked values [p_0 ... p_n] with themselves; for the
    stieltjes output the stack is a view of its buffer. A window below
    degree 0 raises ValidationError rather than certify nothing.
    """
    n = seq.degree if max_degree is None else min(max_degree, seq.degree)
    if n < 0:
        raise ValidationError(f"max_degree must be >= 0, got {max_degree}")
    l = seq.measure.dim

    def stack(v):  # (n + 1, N, l, l) -> (N, l, (n + 1) l): p_0 .. p_n side by side
        return v[: n + 1].transpose(1, 2, 0, 3).reshape(v.shape[1], l, (n + 1) * l)

    fv, fe = stack(seq.grid_values), stack(seq.mass_values)
    gram = inner_product(seq.measure, fv, fe, fv, fe)
    i, j = np.triu_indices(n + 1)
    blocks = gram.reshape(n + 1, l, n + 1, l).transpose(0, 2, 1, 3)[i, j]
    blocks[i == j] -= np.eye(l)
    return max_operator_norm(blocks)


def _times(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """v_k m for every leading index k, as one (N l, l) x (l, l) GEMM."""
    return (v.reshape(-1, m.shape[0]) @ m).reshape(v.shape)


def recurrence_residual(seq: PolySequence) -> float:
    """sup-norm over grid nodes and degrees of the three-term recurrence defect."""
    a, b = seq.jacobi.a, seq.jacobi.b
    p = seq.grid_values
    x = seq.measure.x_nodes[:, None, None]
    worst = 0.0
    for n in range(seq.degree):
        res = x * p[n] - _times(p[n + 1], a[n].conj().T)
        res -= _times(p[n], b[n])
        if n > 0:
            res -= _times(p[n - 1], a[n - 1])
        worst = max(worst, max_operator_norm(res))
    return worst


# ---------------------------------------------------------------------------
# normalization types


def _positive_lq(m: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """m = L Q with L lower triangular, positive real diagonal, Q unitary."""
    q0, r0 = np.linalg.qr(m.conj().T)
    d = np.diagonal(r0)
    if np.min(np.abs(d)) <= tol.sing_rel * max(1.0, float(np.max(np.abs(d)))):
        raise Singular("LQ factor has a vanishing diagonal entry")
    phases = d / np.abs(d)
    q1 = q0 * phases[None, :]
    r1 = np.conj(phases)[:, None] * r0
    return r1.conj().T, q1.conj().T


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
            u, _ = left_polar(cum, tol)
            sigma[k + 1] = u.conj().T
    else:
        for k in range(n):
            m = sigma[k].conj().T @ jacobi.a[k]
            if target == "type1":
                u, _ = left_polar(m, tol)
                sigma[k + 1] = u.conj().T
            else:  # type3
                _, qu = _positive_lq(m, tol)
                sigma[k + 1] = qu.conj().T

    a_new = np.einsum("kji,kjl,klm->kim", sigma[:-1].conj(), jacobi.a, sigma[1:])
    b_new = np.einsum("kji,kjl,klm->kim", sigma[:-1].conj(), jacobi.b, sigma[:-1])
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
    worst = 0.0  # type3
    for m in a:
        upper = np.triu(m, 1)
        worst = max(worst, float(np.max(np.abs(upper))))
        diag = np.diagonal(m)
        worst = max(worst, float(np.max(np.abs(diag.imag))))
        worst = max(worst, float(max(0.0, -np.min(diag.real))))
    return worst


def apply_transform(seq: PolySequence, jacobi: BlockJacobi, sigma: np.ndarray) -> PolySequence:
    """Carry polynomial values to an equivalent normalization, p_k -> p_k sigma[k],
    with sigma the unitary stack to_type returns.

    Nothing is computed here: each degree is rotated when it is read,
    and a full read rotates every degree once. Both read seq's values,
    so they share its buffer.
    """
    if sigma.shape[0] != seq.degree + 1:
        raise DimensionMismatch("transform length does not match sequence degree")
    return PolySequence(seq.measure, jacobi, _RotatedValues(seq._values, sigma))


# ---------------------------------------------------------------------------
# evaluation away from the grid


def leading_coeffs(jacobi: BlockJacobi, n_max: int | None = None) -> np.ndarray:
    """kappa_0..kappa_n with kappa_n = (A_1^*)^{-1} ... (A_n^*)^{-1}."""
    n = jacobi.block_count if n_max is None else n_max
    if n > jacobi.block_count:
        raise DimensionMismatch(f"need {n} blocks, have {jacobi.block_count}")
    l = jacobi.dim
    out = np.empty((n + 1, l, l), dtype=complex)
    out[0] = np.eye(l)
    for k in range(n):
        out[k + 1] = np.linalg.solve(jacobi.a[k].conj(), out[k].T).T
    return out


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
    inv_adj = np.linalg.inv(jacobi.a.conj().transpose(0, 2, 1))
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
