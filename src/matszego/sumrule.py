"""Entropy balance between the weight, the masses, and the recurrence.

For a normalized measure (a.c. weight w on the band plus masses) the
three quantities

    Z   = -1/2 (2pi)^{-1} I log det( w(t) / (2 sin^2 t) ) dt,
    E0  = -sum_k m_k log |z_k|          (m_k = mass multiplicity),
    A0  = -sum_{j>=1} log |det A_j|     (recurrence normalizations),

balance as Z = E0 + A0. Grid averages of the log-type integrands carry
an exact a/M first-order term (the midpoint product identity
prod_{m} 2 |sin t_m| = 4 on M midpoints makes the mean of log(2 sin^2)
equal -log 2 + (4/M) log 2), so every boundary mean here is Richardson
extrapolated from the native and doubled grids, with the coarse/fine
difference kept as the error estimate.

An independent route to Z goes through the outer factor: the boundary
mean I_G of log |det G| satisfies Z + I_G + (dim/2) log 2 = 0. The
ledger reports both paths and whether they agree within twice the
larger estimate.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from . import measure as ms
from . import outer as sf
from . import polynomials as poly
from .errors import NotPD, ValidationError
from .linalg import BoundarySampling, det, two_grid_richardson
from .tolerances import DEFAULT, Tolerances

_LOG2 = float(np.log(2.0))


def _logdet_nodes(w: BoundarySampling, stage: str) -> np.ndarray:
    """log det w at every node of w's grid; NotPD names the stage and the node."""
    dets = det(w.values).real
    node = int(np.argmin(dets))
    if dets[node] <= 0.0:
        raise NotPD(f"{stage}: det w = {dets[node]:.3e} at or below 0 at node t = "
                    f"{w.theta[node]:.6f} of the {len(dets)}-node grid")
    return np.log(dets)


def weight_logdet_mean(mu: ms.MatrixMeasure) -> tuple[float, float]:
    """(mean, estimate) of the boundary average of log det w, extrapolated."""
    means = []
    for refine in (1, 2):
        w = ms.szego_weight(mu, refine=refine)
        means.append(float(np.mean(_logdet_nodes(w, "weight_logdet_mean"))))
    return two_grid_richardson(*means)


def z_quantity(mu: ms.MatrixMeasure) -> tuple[float, float]:
    """(value, estimate) of the relative-entropy integral Z."""
    vals = []
    for refine in (1, 2):
        w = ms.szego_weight(mu, refine=refine)
        integrand = _logdet_nodes(w, "z_quantity") - mu.dim * np.log(
            2.0 * np.sin(w.theta) ** 2
        )
        vals.append(-0.5 * float(np.mean(integrand)))
    return two_grid_richardson(*vals)


def e0_quantity(mu: ms.MatrixMeasure) -> float:
    """-sum of multiplicity * log |z_k| over the masses; zero without them."""
    out = 0.0
    for state in mu.bound_states:
        out -= state.multiplicity * float(np.log(abs(state.z)))
    return out


def a0_partials(jacobi: poly.BlockJacobi, n_values: Sequence[int]) -> np.ndarray:
    """Partial sums -sum_{j<=n} log |det A_j| for each requested n.

    |det A_j| is invariant under the type transforms, so any
    normalization of the same measure gives the same values.
    """
    dets = np.abs(det(jacobi.a))
    j = int(np.argmin(dets))
    if dets[j] <= 0.0:
        raise NotPD(f"a0_partials: |det A_{j + 1}| = {dets[j]:.3e} at or below 0")
    cumulative = -np.cumsum(np.log(dets))
    out = np.empty(len(n_values))
    for i, n in enumerate(n_values):
        if not 1 <= n <= jacobi.block_count:
            raise ValidationError(f"a0_partials: partial sum needs 1 <= n <= "
                                  f"{jacobi.block_count}, got {n}")
        out[i] = cumulative[n - 1]
    return out


@dataclasses.dataclass(frozen=True)
class SumRuleLedger:
    """Both evaluation paths of the balance, with honest error estimates.

    residuals[i] = |Z - E0 - A0_{n_i}| should decrease toward the
    quadrature floor. bridge_values[i] = |A0_{n_i} + E0 + I_G +
    (dim/2) log 2| re-runs the same balance with Z replaced by its
    factor-side evaluation; bridge_gap = |Z + I_G + (dim/2) log 2| is
    the difference between the two routes, and agreement records
    whether it sits within twice the larger estimate. a0_oscillation is
    the spread of the partial sums over the tail half of n_values (the
    limit is reported by its partials, never extrapolated).
    """

    n_values: tuple[int, ...]
    z_value: float
    z_estimate: float
    e0_value: float
    a0_values: np.ndarray
    a0_oscillation: float
    residuals: np.ndarray
    bridge_value: float
    bridge_estimate: float
    bridge_values: np.ndarray
    bridge_gap: float
    agreement: bool


def check_sum_rule(
    mu: ms.MatrixMeasure,
    n_values: Sequence[int],
    tol: Tolerances = DEFAULT,
) -> SumRuleLedger:
    """Evaluate the balance at each n and cross-check Z through the factor.

    The factor-side estimate is the larger of the coarse/fine differences
    of I_G and of half the weight-side mean of log det w. It leaves the
    gap itself out: on the midpoint grid Z = -1/2 (I_w + dim log 2) holds
    to rounding, so a defect against I_w would restate the gap and let
    any factor agree.
    """
    n_values = sorted(int(n) for n in n_values)
    z_val, z_est = z_quantity(mu)
    e0 = e0_quantity(mu)
    a0 = a0_partials(poly.stieltjes(mu, max(n_values), tol).jacobi, n_values)
    residuals = np.abs(z_val - e0 - a0)

    g = sf.spectral_factorize(ms.szego_weight(mu), tol=tol)
    i_g, i_g_est = sf.boundary_logdet_mean(g)
    _, i_w_est = weight_logdet_mean(mu)
    est = max(i_g_est, 0.5 * i_w_est)
    gap = abs(z_val + i_g + 0.5 * mu.dim * _LOG2)
    agreement = gap <= max(2.0 * max(z_est, est), 1e-12)
    bridge_vals = np.abs(a0 + e0 + i_g + 0.5 * mu.dim * _LOG2)
    tail = a0[len(a0) // 2 :]
    oscillation = float(tail.max() - tail.min()) if tail.size else 0.0
    return SumRuleLedger(
        n_values=tuple(n_values),
        z_value=z_val,
        z_estimate=z_est,
        e0_value=e0,
        a0_values=a0,
        a0_oscillation=oscillation,
        residuals=residuals,
        bridge_value=i_g,
        bridge_estimate=est,
        bridge_values=bridge_vals,
        bridge_gap=gap,
        agreement=agreement,
    )
