"""Scaled-polynomial limit function and its verification diagnostics.

The scaled orthonormal polynomials q_n(z) = z^n p_n(z + 1/z) of a
normalized matrix measure (absolutely continuous part plus finitely
many masses off the band) converge inside the disk to

    L(z) = 2^{-1/2} G(z)^{-1} B(z) V,

with G the outer factor of the boundary weight, B the Blaschke-Potapov
product pinned to the mass data, and V a constant unitary chosen so
L(0) is Hermitian positive definite. build_pipeline assembles the
triple and certifies the interpolation data: at each mass point the
residue of L^{-1} must kill exactly the kernel of the mass weight.

The verify_* helpers measure convergence against a computed polynomial
sequence: pointwise on disk grids, in the boundary L^2 sense, and
through the total mass carried at the point spectrum. h_diagnostic
tracks the polar parts of sqrt(2) B(0)^{-1} G(0) kappa_n, which tend to
the identity exactly when the limit is attained.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from . import blaschke as bp
from . import measure as ms
from . import outer as sf
from . import polynomials as poly
from .errors import KernelMismatch, RadiusExceeded, Singular
from .linalg import (
    BoundarySampling,
    eigvalsh,
    inv,
    left_polar,
    max_operator_norm,
    norm_l2_2,
    operator_norm,
)
from .tolerances import DEFAULT, Tolerances

_SQRT2 = float(np.sqrt(2.0))


@dataclasses.dataclass(frozen=True)
class LimitFunction:
    """L(z) = 2^{-1/2} G(z)^{-1} B(z) V with L(0) Hermitian PD.

    kernel_angles[k] is the certified worst principal angle between the
    residue kernel of L^{-1} and the mass kernel at the k-th bound state
    (0.0 for a weightless mass).
    """

    outer: sf.OuterFunction
    product: bp.BlaschkePotapovProduct
    frame: np.ndarray
    value0: np.ndarray
    kernel_angles: np.ndarray

    def disk_points(self, radius: float, angle_count: int = 24) -> np.ndarray:
        """disk_grid(radius, angle_count) without the points at the mass poles."""
        pts = disk_grid(radius, angle_count)
        gaps = np.abs(pts[:, None] - self.product.poles)
        return pts[np.all(gaps > 1e-8, axis=1)]

    def eval(self, z) -> np.ndarray:
        """L at points of the closed unit disk away from the mass points."""
        z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
        g_vals = self.outer.eval_interior(z_arr)
        b_vals = self.product.eval(z_arr)
        out = np.linalg.solve(g_vals, b_vals) @ self.frame / _SQRT2
        if np.isscalar(z) or np.asarray(z).ndim == 0:
            return out[0]
        return out

    def eval_inverse(self, z) -> np.ndarray:
        """L^{-1} = sqrt(2) V* B^{-1} G; poles at the mass points."""
        z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
        g_vals = self.outer.eval_interior(z_arr)
        b_inv = self.product.eval_inverse(z_arr)
        out = _SQRT2 * self.frame.conj().T[None] @ b_inv @ g_vals
        if np.isscalar(z) or np.asarray(z).ndim == 0:
            return out[0]
        return out


def build_pipeline(mu: ms.MatrixMeasure, tol: Tolerances = DEFAULT) -> LimitFunction:
    """Factor the weight, pin the product to the masses, fix the frame.

    Masses may lie anywhere off the band: their disk points lie in the
    open disk, where the factor is evaluated. Raises KernelMismatch if
    the certified residue kernels disagree with the mass kernels. The
    kernel certificate belongs to the Blaschke-Potapov step, so its
    message starts with "blaschke:".
    """
    w = ms.szego_weight(mu)
    g = sf.spectral_factorize(w, tol=tol)

    states = []
    kernels = []
    for state in mu.bound_states:
        ker = bp.kernel_frame(state.weight, tol)
        if ker.shape[1] == mu.dim:
            kernels.append(None)  # weightless point, contributes no factor
            states.append((state.z, ker))
            continue
        target = g.eval_interior(complex(state.z)) @ ker
        states.append((state.z, target))
        kernels.append(ker)

    product = bp.construct_product(states, mu.dim, tol=tol)

    c = np.linalg.solve(g.value_at_zero(), product.value_at_zero()) / _SQRT2
    try:
        u_hat, p_hat = left_polar(c, tol)
    except Singular as err:
        raise Singular(f"limits: frame from G(0)^-1 B(0) / sqrt 2: {err}") from None
    frame = u_hat.conj().T
    value0 = u_hat @ p_hat @ u_hat.conj().T
    value0 = 0.5 * (value0 + value0.conj().T)

    kernel_angles = np.zeros(len(mu.bound_states))
    lim = LimitFunction(
        outer=g, product=product, frame=frame, value0=value0, kernel_angles=kernel_angles
    )

    pole_list = [s.z for s in mu.bound_states]
    for k, (state, ker) in enumerate(zip(mu.bound_states, kernels)):
        if ker is None:
            continue
        # residue_kernel skips the pole itself among pole_list
        _, res_ker = bp.residue_kernel(lim.eval_inverse, complex(state.z), pole_list, tol)
        angles = bp.principal_angles(res_ker, ker)
        worst = float(angles.max()) if angles.size else 0.0
        if res_ker.shape[1] != ker.shape[1] or worst > tol.kernel_angle:
            raise KernelMismatch(
                f"blaschke: residue kernel at E = {state.energy:.6g} misses the mass kernel: "
                f"angle {worst:.3e} against kernel_angle {tol.kernel_angle:.1e}, "
                f"dims {res_ker.shape[1]} vs {ker.shape[1]}"
            )
        kernel_angles[k] = worst
    kernel_angles.setflags(write=False)
    return lim


# ---------------------------------------------------------------------------
# convergence diagnostics


def disk_grid(radius: float, angle_count: int = 24) -> np.ndarray:
    """Evaluation points r_j e^{i phi}: radii radius * cos(j pi / 18), j = 0..9."""
    radii = radius * np.cos(np.arange(10) * np.pi / 18.0)
    angles = np.exp(2j * np.pi * np.arange(angle_count) / angle_count)
    return (radii[:, None] * angles[None, :]).ravel()


def verify_pointwise(
    lim: LimitFunction,
    jacobi2: poly.BlockJacobi,
    n_values: Sequence[int],
    radius: float = 0.8,
) -> tuple[np.ndarray, np.ndarray]:
    """(sup gap per n, origin gap per n) of q_n against L on a disk grid.

    The grid's innermost ring has radius radius * cos(pi / 2), about
    5e-17 radius, not 0: the origin, where q_n(0) is the leading
    coefficient, is compared separately as the origin gap. Mass points
    are excluded from the sup (L is compared where it is finite for the
    inverse picture, and q_n is entire anyway).
    """
    if radius > 0.99:
        raise RadiusExceeded(
            f"limits: pointwise verification radius {radius:.6g} above 0.99"
        )
    pts = lim.disk_points(radius)
    q_vals = poly.eval_scaled_many(jacobi2, list(n_values), pts)
    l_vals = lim.eval(pts)
    sup_gap = np.array([max_operator_norm(q_vals[i] - l_vals) for i in range(len(n_values))])
    kappa = poly.eval_scaled_many(jacobi2, list(n_values), np.array([0.0 + 0.0j]))
    origin_gap = np.array(
        [float(operator_norm(kappa[i, 0] - lim.value0)) for i in range(len(n_values))]
    )
    return sup_gap, origin_gap


def verify_l2(
    lim: LimitFunction,
    pseq2: poly.PolySequence,
    n_values: Sequence[int],
    tol: Tolerances = DEFAULT,
) -> np.ndarray:
    """Boundary L^2 gap between G p_n and its two-wave limit form.

    residual_n = || G(t) p_n(2 cos t)
                   - 2^{-1/2} (e^{-int} B(t) + e^{int} s(t) B(-t)) V ||_{L^2},
    with s the phase function of the factor and B evaluated on the
    circle; reflection uses the grid's exact t -> -t symmetry.
    """
    g_b = lim.outer.boundary.values
    theta = lim.outer.boundary.theta
    s_vals = sf.s_function(lim.outer, tol).values
    b_vals = lim.product.eval(np.exp(1j * theta))
    s_b_reflected = s_vals @ b_vals[::-1]
    out = np.empty(len(n_values))
    for i, n in enumerate(n_values):
        p_vals = pseq2.grid_at(n)
        lhs = g_b @ p_vals
        waves = (
            np.exp(-1j * n * theta)[:, None, None] * b_vals
            + np.exp(1j * n * theta)[:, None, None] * s_b_reflected
        )
        rhs = waves @ lim.frame / _SQRT2
        out[i] = norm_l2_2(BoundarySampling(lhs - rhs))
    return out


def verify_masses(
    pseq2: poly.PolySequence, n_values: Sequence[int]
) -> tuple[np.ndarray, float]:
    """(norm per n, worst) of the point-spectrum Gram sums.

    Orthonormality forces || sum_j p_n(E_j)* w_j p_n(E_j) || <= 1 for
    every n, with geometric decay at the bound-state rate.
    """
    mu = pseq2.measure
    out = np.zeros(len(n_values))
    if not mu.bound_states:
        return out, 0.0
    weights = mu.mass_weights
    for i, n in enumerate(n_values):
        vals = pseq2.mass_values[n]
        total = np.einsum("jki,jkl,jlm->im", vals.conj(), weights, vals)
        out[i] = float(operator_norm(total))
    return out, float(out.max())


@dataclasses.dataclass(frozen=True)
class PolarDiagnostic:
    """Polar data of sqrt(2) B(0)^{-1} G(0) kappa_n across degrees."""

    n_values: tuple[int, ...]
    eta_min: np.ndarray
    eta_max: np.ndarray
    logdet_abs: np.ndarray
    frame_defect: np.ndarray


def h_diagnostic(
    lim: LimitFunction,
    jacobi2: poly.BlockJacobi,
    n_values: Sequence[int],
    tol: Tolerances = DEFAULT,
) -> PolarDiagnostic:
    """Track how the leading coefficients settle into the limit's polar data.

    raw_n = sqrt(2) B(0)^{-1} G(0) kappa_n has left polar parts
    (W_n, P_n); convergence means the eigenvalues of P_n approach one,
    log det P_n approaches zero, and W_n approaches the frame V.
    """
    kappas = poly.leading_coeffs(jacobi2, max(n_values))
    b0_inv = inv(lim.product.value_at_zero())
    g0 = lim.outer.value_at_zero()
    eta_min, eta_max, logdet, defect = [], [], [], []
    for n in n_values:
        raw = _SQRT2 * b0_inv @ g0 @ kappas[n]
        try:
            w_hat, p_hat = left_polar(raw, tol)
        except Singular as err:
            raise Singular(f"limits: polar diagnostic at n = {n}: {err}") from None
        eta = eigvalsh(p_hat)
        eta_min.append(float(eta.min()))
        eta_max.append(float(eta.max()))
        logdet.append(abs(float(np.sum(np.log(eta)))))
        defect.append(float(operator_norm(w_hat - lim.frame)))
    return PolarDiagnostic(
        n_values=tuple(int(n) for n in n_values),
        eta_min=np.array(eta_min),
        eta_max=np.array(eta_max),
        logdet_abs=np.array(logdet),
        frame_defect=np.array(defect),
    )


@dataclasses.dataclass(frozen=True)
class AsymptoticsReport:
    """Joint convergence record for one measure and one degree list."""

    n_values: tuple[int, ...]
    radius: float
    pointwise_sup: np.ndarray
    origin_gap: np.ndarray
    l2_residual: np.ndarray
    mass_norm: np.ndarray
    mass_worst: float
    polar: PolarDiagnostic
    limit: LimitFunction = dataclasses.field(repr=False)


def asymptotics_report(
    mu: ms.MatrixMeasure,
    n_values: Sequence[int],
    radius: float = 0.8,
    tol: Tolerances = DEFAULT,
) -> AsymptoticsReport:
    """Build the pipeline once and run every convergence check on it."""
    n_values = sorted(int(n) for n in n_values)
    lim = build_pipeline(mu, tol=tol)
    seq = poly.stieltjes(mu, max(n_values), tol)
    jac2, sigma = poly.to_type(seq.jacobi, "type2", tol)
    pseq2 = poly.apply_transform(seq, jac2, sigma)
    sup_gap, origin_gap = verify_pointwise(lim, jac2, n_values, radius)
    l2_res = verify_l2(lim, pseq2, n_values, tol)
    mass_norm, mass_worst = verify_masses(pseq2, n_values)
    polar = h_diagnostic(lim, jac2, n_values, tol)
    return AsymptoticsReport(
        n_values=tuple(n_values),
        radius=float(radius),
        pointwise_sup=sup_gap,
        origin_gap=origin_gap,
        l2_residual=l2_res,
        mass_norm=mass_norm,
        mass_worst=mass_worst,
        polar=polar,
        limit=lim,
    )
