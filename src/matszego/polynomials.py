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

import numpy as np

from .errors import (
    DimensionMismatch,
    LostPositivity,
    NotHermitian,
    RadiusExceeded,
    Singular,
    ValidationError,
)
from .linalg import left_polar, operator_norm, principal_sqrt
from .measure import MatrixMeasure, inner_product
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


@dataclasses.dataclass(frozen=True)
class EquivalenceTransform:
    """Unitaries sigma_1..sigma_{n+1} with sigma[k] = sigma_{k+1}, sigma[0] = I.

    Transformed data: A~_k = sigma_{k-1+1}^* ... i.e. a~[k] = sigma[k]* a[k] sigma[k+1],
    b~[k] = sigma[k]* b[k] sigma[k], p~_k = p_k sigma[k].
    """

    sigma: np.ndarray


@dataclasses.dataclass(frozen=True)
class PolySequence:
    """Orthonormal polynomials cached on the quadrature grid.

    grid_values[k] holds p_k at the x-nodes, mass_values[k] holds p_k at
    the mass energies.
    """

    measure: MatrixMeasure
    jacobi: BlockJacobi
    grid_values: np.ndarray
    mass_values: np.ndarray

    @property
    def degree(self) -> int:
        return self.grid_values.shape[0] - 1


def stieltjes(measure: MatrixMeasure, n_max: int, tol: Tolerances = DEFAULT) -> PolySequence:
    """Run the Stieltjes procedure to degree n_max (type1 output).

    A full re-orthogonalization sweep against all earlier polynomials is
    applied every 10 steps to arrest drift. LostPositivity is raised when
    the Gram matrix of the recurrence remainder drops below tol.pos.

    Evaluations at a mass point ride the recurrence's growing solution:
    components in the kernel of the mass weight grow like |z_k|^{-n}
    exactly, and rounding noise in the range components amplifies at the
    same rate while their true part decays like |z_k|^n. Both only ever
    enter inner products through a w_k sandwich, so the stored point
    values are projected onto range(w_k) each step, and a state is
    frozen to zero once its amplitude ||w_k^{1/2} p_n(E_k)|| falls below
    1e-10; the discarded true Gram contribution is below 1e-20.
    """
    l = measure.dim
    m_grid = measure.quad_order
    x = measure.x_nodes
    energies = measure.mass_energies
    n_mass = energies.size

    p = np.empty((n_max + 1, m_grid, l, l), dtype=complex)
    pe = np.empty((n_max + 1, n_mass, l, l), dtype=complex)
    p[0] = np.eye(l)
    pe[0] = np.eye(l)
    if n_mass:
        root_w = np.stack([principal_sqrt(s.weight, tol) for s in measure.bound_states])
        live = np.ones(n_mass, dtype=bool)
        proj = np.empty_like(root_w)
        for k, state in enumerate(measure.bound_states):
            lam, vec = np.linalg.eigh(state.weight)
            ran = vec[:, lam > tol.rank_rel * max(lam.max(), 1e-300)]
            proj[k] = ran @ ran.conj().T
        pe[0] = proj

    a_blocks = np.empty((n_max, l, l), dtype=complex)
    b_blocks = np.empty((n_max, l, l), dtype=complex)
    xg = x[:, None, None]
    xe = energies[:, None, None]

    for n in range(n_max):
        any_live = bool(n_mass) and bool(live.any())
        xp = xg * p[n]
        xpe = xe * pe[n]
        b_next = inner_product(measure, p[n], pe[n], xp, xpe)
        herm = float(operator_norm(b_next - b_next.conj().T))
        if herm > 1e-8 * max(1.0, float(operator_norm(b_next))):
            raise NotHermitian(f"step {n + 1}: B block defect {herm:.2e}")
        b_next = 0.5 * (b_next + b_next.conj().T)

        q = xp - p[n] @ b_next
        qe = xpe - pe[n] @ b_next
        if n > 0:
            q -= p[n - 1] @ a_blocks[n - 1]
            qe -= pe[n - 1] @ a_blocks[n - 1]

        # live mass evaluations regrow noise at 1/|z| per step, so while
        # any remain the drift sweep must run every step
        if (n + 1) % 10 == 0 or any_live:
            for k in range(n + 1):
                c = inner_product(measure, p[k], pe[k], q, qe)
                q -= p[k] @ c
                qe -= pe[k] @ c

        gram = inner_product(measure, q, qe, q, qe)
        gram = 0.5 * (gram + gram.conj().T)
        lam = np.linalg.eigvalsh(gram)
        if lam[0] < tol.pos:
            raise LostPositivity(
                f"step {n + 1}: Gram eigenvalue {lam[0]:.3e} below {tol.pos:.1e}"
            )
        a_next = principal_sqrt(gram, tol)
        a_inv = np.linalg.inv(a_next)
        p[n + 1] = q @ a_inv
        pe[n + 1] = qe @ a_inv
        if n_mass:
            pe[n + 1] = proj @ pe[n + 1]
            pe[n + 1, ~live] = 0.0
            amp = np.linalg.norm(root_w @ pe[n + 1], axis=(1, 2))
            faded = live & (amp < 1e-10)
            if faded.any():
                pe[n + 1, faded] = 0.0
                live &= ~faded
        a_blocks[n] = a_next
        b_blocks[n] = b_next

    jac = BlockJacobi(a=a_blocks, b=b_blocks, norm_type="type1")
    return PolySequence(measure=measure, jacobi=jac, grid_values=p, mass_values=pe)


def orthonormality_defect(seq: PolySequence, max_degree: int | None = None) -> float:
    """max over 0 <= i <= j <= n of ||<<p_i, p_j>> - delta_ij I||."""
    n = seq.degree if max_degree is None else min(max_degree, seq.degree)
    measure = seq.measure
    worst = 0.0
    eye = np.eye(measure.dim)
    for i in range(n + 1):
        for j in range(i, n + 1):
            g = inner_product(measure, seq.grid_values[i], seq.mass_values[i],
                              seq.grid_values[j], seq.mass_values[j])
            if i == j:
                g = g - eye
            worst = max(worst, float(operator_norm(g)))
    return worst


def recurrence_residual(seq: PolySequence) -> float:
    """sup-norm over grid nodes and degrees of the three-term recurrence defect."""
    a, b = seq.jacobi.a, seq.jacobi.b
    x = seq.measure.x_nodes[:, None, None]
    worst = 0.0
    for n in range(seq.degree):
        res = x * seq.grid_values[n] - seq.grid_values[n + 1] @ a[n].conj().T
        res -= seq.grid_values[n] @ b[n]
        if n > 0:
            res -= seq.grid_values[n - 1] @ a[n - 1]
        worst = max(worst, float(np.max(operator_norm(res))))
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
) -> tuple[BlockJacobi, EquivalenceTransform]:
    """Transform to the requested normalization type.

    Returns the transformed blocks and the unitaries sigma_1..sigma_{n+1}
    realizing them; sigma_1 = I always, so p_0 is untouched.
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
    return out, EquivalenceTransform(sigma=sigma)


def type_defect(jacobi: BlockJacobi) -> float:
    """How far the blocks are from their declared normalization type."""
    a = jacobi.a
    if jacobi.norm_type == "type1":
        return float(max(operator_norm(m - m.conj().T) for m in a))
    if jacobi.norm_type == "type2":
        worst = 0.0
        cum = np.eye(jacobi.dim, dtype=complex)
        for m in a:
            cum = cum @ m
            worst = max(worst, float(operator_norm(cum - cum.conj().T)))
        return worst
    worst = 0.0  # type3
    for m in a:
        upper = np.triu(m, 1)
        worst = max(worst, float(np.max(np.abs(upper))))
        diag = np.diagonal(m)
        worst = max(worst, float(np.max(np.abs(diag.imag))))
        worst = max(worst, float(max(0.0, -np.min(diag.real))))
    return worst


def apply_transform(seq: PolySequence, jacobi: BlockJacobi, transform: EquivalenceTransform) -> PolySequence:
    """Carry cached polynomial values to an equivalent normalization."""
    sigma = transform.sigma
    if sigma.shape[0] != seq.degree + 1:
        raise DimensionMismatch("transform length does not match sequence degree")
    grid = np.einsum("kmij,kjl->kmil", seq.grid_values, sigma)
    mass = np.einsum("kmij,kjl->kmil", seq.mass_values, sigma)
    return PolySequence(measure=seq.measure, jacobi=jacobi, grid_values=grid, mass_values=mass)


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


def eval_scaled(jacobi: BlockJacobi, n: int, z) -> np.ndarray:
    """q_n(z) = z^n p_n(z + 1/z), evaluated without forming z + 1/z.

    Defined and stable on the closed unit disk; q_n(0) = kappa_n. Accepts
    a scalar or an array of points; returns (l, l) or (len(z), l, l).
    """
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    out = eval_scaled_many(jacobi, [n], z_arr)[0]
    if np.isscalar(z) or np.asarray(z).ndim == 0:
        return out[0]
    return out


def eval_scaled_many(jacobi: BlockJacobi, n_list, z_arr: np.ndarray) -> np.ndarray:
    """q_n(z) for each n in n_list on a common set of points.

    Returns an array of shape (len(n_list), len(z_arr), l, l). One pass
    of the recurrence

        q_{k+1} = ((1 + z^2) q_k - z q_k B_{k+1} - z^2 q_{k-1} A_k) (A_{k+1}^*)^{-1}

    serves all requested degrees.
    """
    n_list = list(n_list)
    n_top = max(n_list)
    if n_top > jacobi.block_count:
        raise DimensionMismatch(f"degree {n_top} needs {n_top} blocks, have {jacobi.block_count}")
    z_arr = np.asarray(z_arr, dtype=complex)
    if np.any(np.abs(z_arr) > 1.0 + 1e-9):
        raise RadiusExceeded("scaled evaluation is restricted to the closed unit disk")
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
        nxt = (1.0 + z2) * cur - z1 * (cur @ jacobi.b[k])
        if k > 0:
            nxt -= z2 * (prev @ jacobi.a[k - 1])
        nxt = nxt @ inv_adj[k]
        prev, cur = cur, nxt
        for slot, n in enumerate(n_list):
            if n == k + 1:
                out[slot] = cur
    return out
