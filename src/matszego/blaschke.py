"""Matrix Blaschke-Potapov products for point masses off the interval.

A product B(z) = F_1(z) ... F_K(z) of elementary factors

    F_k(z) = U_k* (b_k(z) I_s + (I - I_s)) U_k,
    b_k(z) = (|z_k| / z_k) (z_k - z) / (1 - conj(z_k) z),

one factor per mass point, carrying the disk coordinate z_k and a
prescribed range for B(z_k). Factors are unitary on the circle, so the
product is; det B(0) = prod |z_k|^{s_k} with s_k the b-block rank. The
product holds its factors as arrays (poles, ranks, unitaries), so its
evaluation is one pass over the factors with every point batched.

The construction appends factors on the right: given the partial
product B_{k-1} and the target range V_k at z_k, the new factor vanishes
on the orthogonal complement of W = B_{k-1}(z_k)^{-1} V_k, which makes
B_k(z_k) = B_{k-1}(z_k) P_W have range exactly V_k; B_{k-1} is kept
evaluated at the points still to come. Full-dimensional targets impose
nothing and are skipped; empty targets give a scalar factor b_k(z) I.

Every error raised here starts with "blaschke:" and gives the offending
value against its threshold.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .errors import (
    DegenerateFrame,
    DuplicatePole,
    NotSimplePole,
    NumericalError,
    PoleAtReflection,
    ValidationError,
)
from .tolerances import DEFAULT, Tolerances


def _finite(a: np.ndarray, name: str) -> np.ndarray:
    """a as an array; NumericalError if it holds a NaN or an inf."""
    a = np.asarray(a)
    if not np.isfinite(a).all():
        raise NumericalError(f"blaschke: {name} has non-finite entries")
    return a


def unitary_completion(vectors: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Unitary (l, l) whose leading d columns span the d given columns and
    whose trailing l - d span their orthogonal complement: one complete QR.

    Raises DegenerateFrame when the columns are numerically dependent,
    NumericalError when they hold a NaN or an inf.
    """
    v = np.atleast_2d(_finite(np.asarray(vectors, dtype=complex), "unitary_completion input"))
    if v.shape[1] == 0:
        return np.eye(v.shape[0], dtype=complex)
    if v.shape[1] > v.shape[0]:
        raise DegenerateFrame(
            f"blaschke: {v.shape[1]} columns cannot be independent in dimension {v.shape[0]}"
        )
    q, r = np.linalg.qr(v, mode="complete")
    diag = np.abs(np.diag(r))
    floor = tol.rank_rel * max(diag.max(), np.abs(v).max(), 1e-300)
    if diag.min() <= floor:
        raise DegenerateFrame(
            f"blaschke: column set numerically rank deficient: min pivot {diag.min():.3e} "
            f"at or below {tol.rank_rel:.1e} x scale = {floor:.3e}"
        )
    return q


def _range_frame(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span: the leading left singular
    vectors, as many as exceed eps * max(shape) * s_max (numpy's
    matrix_rank cutoff)."""
    u, sing, _ = np.linalg.svd(a, full_matrices=False)
    cutoff = np.finfo(float).eps * max(a.shape) * np.amax(sing, initial=0.0)
    return u[:, : np.count_nonzero(sing > cutoff)]


def kernel_frame(w: np.ndarray, rank_rel: float = DEFAULT.rank_rel,
                 zero: float = 1e-300) -> np.ndarray:
    """Orthonormal basis of the (right) kernel: the right singular vectors
    below rank_rel times the largest singular value.

    A largest singular value at or below zero gives the full kernel, I.
    """
    w = np.asarray(w, dtype=complex)
    _, sing, vh = np.linalg.svd(w)
    if sing.size == 0 or sing[0] <= zero:
        return np.eye(w.shape[1], dtype=complex)
    small = sing < rank_rel * sing[0]
    return vh[small].conj().T


def principal_angles(f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Principal angles between the column spans, largest first.

    Both frames are first orthonormalized by SVD under the cutoff
    eps * max(shape) * s_max, so dependent columns drop out and there
    are min(rank 1, rank 2) angles. Following Knyazev and Argentati
    (SIAM J. Sci. Comput. 23, 2002), the cosines are the singular values
    of Q1^H Q2 and the sines those of the narrower basis's residual off
    the wider one. An angle at most pi/4 (cos^2 >= 1/2) is taken as the
    arcsin of its sine, a larger one as the arccos of its cosine: each
    function is used where it is well conditioned, so an angle of 1e-9
    keeps its relative accuracy. The branch is chosen by each angle's
    own cosine, so a 1e-9 angle beside one of 1.5 is not lost to an
    arccos near 1. Non-finite input raises NumericalError.
    """
    a = _finite(f1, "principal_angles first frame")
    b = _finite(f2, "principal_angles second frame")
    if a.shape[1] == 0 or b.shape[1] == 0:
        if a.shape[1] == b.shape[1]:
            return np.zeros(0)
        return np.array([np.pi / 2])
    qa, qb = _range_frame(a), _range_frame(b)
    cross = qa.conj().T @ qb
    cosines = np.linalg.svd(cross, compute_uv=False)[::-1]  # largest angle first
    if qa.shape[1] >= qb.shape[1]:
        residual = qb - qa @ cross
    else:
        residual = qa - qb @ cross.conj().T
    sines = np.linalg.svd(residual, compute_uv=False)
    return np.where(
        cosines**2 >= 0.5,
        np.arcsin(np.clip(sines, -1.0, 1.0)),
        np.arccos(np.clip(cosines, -1.0, 1.0)),
    )


def elementary_matrix(unitary: np.ndarray, rank: int | np.ndarray, b: np.ndarray) -> np.ndarray:
    """U* diag(b, ..., b, 1, ..., 1) U per entry of b, with b in the leading rank slots.

    b is an array of any shape, () included; the result has shape
    b.shape + (l, l), and all of it is one GEMM (linalg.diagonal_congruence).
    A stack of K factors takes unitary (K, l, l), rank (K,) and b (K, ...).
    """
    rank = np.reshape(rank, np.shape(rank) + (1,) * (b.ndim + 1 - np.ndim(rank)))
    d = np.where(np.arange(unitary.shape[-1]) < rank, b[..., None], 1.0 + 0j)
    return linalg.diagonal_congruence(unitary, d)


def _scalars(poles: np.ndarray, z: np.ndarray) -> np.ndarray:
    """b_k(z_p) for every pole z_k and point z_p, shape (K, P).

    Raises PoleAtReflection, naming the pole, when some z_p lies at a
    reflected point 1/conj(z_k).
    """
    denom = 1.0 - np.conj(poles)[:, None] * z
    gap = np.min(np.abs(denom), axis=1, initial=np.inf)
    if gap.size and gap.min() < 1e-14:
        k = int(np.argmin(gap))
        raise PoleAtReflection(
            f"blaschke: evaluation at the reflected point 1/conj({complex(poles[k]):.6g}): "
            f"|1 - conj(z_k) z| = {gap[k]:.3e} below 1.0e-14"
        )
    # Python's complex division gives |z_k| / z_k = 1 at real z_k > 0; numpy's may be an ulp less
    phases = np.array([abs(p) / p for p in poles.tolist()], dtype=complex)
    return phases[:, None] * (poles[:, None] - z) / denom


@dataclasses.dataclass(frozen=True)
class BlaschkePotapovProduct:
    """B(z) = F_1(z) ... F_K(z), factor k stored as poles[k], ranks[k], unitaries[k].

    poles is (K,) complex, ranks (K,) int and unitaries (K, l, l); the
    first ranks[k] rows of unitaries[k] span the b-block of factor k.
    """

    poles: np.ndarray
    ranks: np.ndarray
    unitaries: np.ndarray

    @property
    def dim(self) -> int:
        return self.unitaries.shape[-1]

    def _apply(self, z, inverse: bool) -> np.ndarray:
        """B(z), or B(z)^{-1} as the reversed inverted factors: all b_k(z) as
        one (K, P) array, then one product per factor with every point
        batched, the factors' matrices made in panels of about 64 KB."""
        z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
        l = self.dim
        b = _scalars(self.poles, z_arr.ravel())
        order = np.arange(len(self.poles))
        if inverse:
            b, order = 1.0 / b, order[::-1]
        out = np.broadcast_to(np.eye(l, dtype=complex), (z_arr.size, l, l)).copy()
        step = max(1, linalg.PANEL_ENTRIES // (z_arr.size * l * l))
        for s in range(0, order.size, step):
            panel = order[s : s + step]
            for e in elementary_matrix(self.unitaries[panel], self.ranks[panel], b[panel]):
                out = out @ e
        out = out.reshape(z_arr.shape + (l, l))
        return out[0] if np.ndim(z) == 0 else out

    def eval(self, z) -> np.ndarray:
        """B(z); scalar z gives (l, l), array z gives z.shape + (l, l)."""
        return self._apply(z, inverse=False)

    def eval_inverse(self, z) -> np.ndarray:
        """B(z)^{-1} away from the zero set."""
        return self._apply(z, inverse=True)

    def value_at_zero(self) -> np.ndarray:
        return self.eval(0.0)

    def det_at_zero(self) -> float:
        """prod |z_k|^{s_k}, the expected |det B(0)|."""
        return math.prod(
            (abs(z) ** s for z, s in zip(self.poles.tolist(), self.ranks.tolist())), start=1.0
        )


def construct_product(
    states: Sequence[tuple[complex, np.ndarray]],
    dim: int,
    tol: Tolerances = DEFAULT,
) -> BlaschkePotapovProduct:
    """Product with prescribed ranges: range B(z_k) = span of the k-th frame.

    states holds (z_k, frame) pairs with 0 < |z_k| < 1 and frame an
    (l, d_k) column set, 0 <= d_k <= l. Points are processed sorted by
    (|z|, arg z). The partial product is kept evaluated at the points
    still to come, one stack that each new factor multiplies once.
    """
    order = sorted(
        range(len(states)),
        key=lambda i: (abs(states[i][0]), np.angle(states[i][0])),
    )
    pts = [complex(states[i][0]) for i in order]
    for i, z in enumerate(pts):
        if not 0.0 < abs(z) < 1.0:
            raise ValidationError(
                f"blaschke: pole {z:.6g} outside the punctured open disk: |z| = {abs(z):.6g} "
                "not in (0, 1)"
            )
        for z_prev in pts[:i]:
            if abs(z - z_prev) < 1e-12:
                raise DuplicatePole(
                    f"blaschke: poles {z_prev:.6g} and {z:.6g} coincide: "
                    f"gap {abs(z - z_prev):.3e} below 1.0e-12"
                )

    points = np.array(pts, dtype=complex)
    partial = np.broadcast_to(np.eye(dim, dtype=complex), (len(pts), dim, dim)).copy()
    poles, ranks, unitaries = [], [], []
    for j, i in enumerate(order):
        z_k = pts[j]
        v = np.asarray(states[i][1], dtype=complex).reshape(dim, -1)
        if v.shape[1] > dim:
            raise ValidationError(
                f"blaschke: frame at {z_k:.6g} has {v.shape[1]} columns, above dimension {dim}"
            )
        d = v.shape[1]
        if d == dim:
            unitary_completion(v, tol)  # still reject degenerate input
            continue
        if d == 0:
            unitary = np.eye(dim, dtype=complex)
        else:
            target = unitary_completion(v, tol)[:, :d]
            # leading d columns W = B_{k-1}(z_k)^{-1} V_k, trailing l - d the b-block
            q = unitary_completion(np.linalg.solve(partial[j], target), tol)
            unitary = np.roll(q, -d, axis=1).conj().T
        rank = dim - d
        poles.append(z_k)
        ranks.append(rank)
        unitaries.append(unitary)
        b = _scalars(points[j : j + 1], points[j + 1 :])[0]
        partial[j + 1 :] = partial[j + 1 :] @ elementary_matrix(unitary, rank, b)
    return BlaschkePotapovProduct(
        poles=np.array(poles, dtype=complex),
        ranks=np.array(ranks, dtype=int),
        unitaries=np.array(unitaries, dtype=complex).reshape(-1, dim, dim),
    )


_CONTOUR_POINTS = 64


def residue_kernel(
    func: Callable[[np.ndarray], np.ndarray],
    pole: complex,
    other_poles: Sequence[complex] = (),
    tol: Tolerances = DEFAULT,
) -> tuple[np.ndarray, np.ndarray]:
    """(residue, kernel frame) of a matrix function at a simple pole.

    The residue comes from a 64-point circular contour of radius
    1e-4 * min(1 - |pole|, distance to other poles). A second-order
    Laurent coefficient visible at two radii raises NotSimplePole. The
    kernel frame collects right singular vectors below
    tol.residue_rank_rel of the top singular value; a numerically zero
    residue yields the identity frame.
    """
    gaps = np.abs(pole - np.asarray(other_poles, dtype=complex))
    clearance = float(np.min(gaps[gaps > 1e-300], initial=1.0 - abs(pole)))
    if clearance <= 0.0:
        raise ValidationError(
            f"blaschke: pole {pole:.6g} not strictly inside the disk: "
            f"clearance {clearance:.3e} not above 0"
        )
    eps = 1e-4 * clearance
    phi = 2.0 * np.pi * np.arange(_CONTOUR_POINTS) / _CONTOUR_POINTS
    ring = np.exp(1j * phi)

    samples = {radius: np.asarray(func(pole + radius * ring)) for radius in (eps, eps / 2.0)}
    residue = np.mean(samples[eps] * (eps * ring)[:, None, None], axis=0)

    scale = float(np.max(np.abs(samples[eps]))) * eps
    second = min(
        float(np.max(np.abs(np.mean(vals * (radius**2 * np.exp(2j * phi))[:, None, None], axis=0))))
        for radius, vals in samples.items()
    )
    floor = 1e-6 * max(scale, 1e-300)
    if second > floor:
        raise NotSimplePole(
            f"blaschke: second-order Laurent content {second:.3e} at {pole:.6g} "
            f"above 1e-6 x scale = {floor:.3e} at both radii"
        )

    return residue, kernel_frame(residue, tol.residue_rank_rel, 1e-14 * max(scale, 1e-300))
