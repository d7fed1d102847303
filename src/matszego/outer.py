"""Right spectral factorization w = G* G on the unit circle.

G is the outer (minimum-phase) factor, analytic in the disk, normalized
so G(0) is Hermitian positive definite. Two construction paths:

* commuting weights (all boundary values share one constant eigenbasis,
  which covers scalar weights and the conjugated-diagonal family): each
  eigenvalue channel is a nonnegative scalar trigonometric polynomial
  and is factored exactly by root splitting, with explicit deflation of
  zeros at z = +-1. Exact to rounding even when the weight vanishes on
  the circle.
* general weights: Bauer-type banded block-Toeplitz Cholesky
  initialization followed by Wilson's Newton iteration on the boundary
  grid (Wilson, SIAM J. Appl. Math. 23 (1972)). Spectrally accurate for
  weights bounded away from zero; weights vanishing between grid nodes
  keep a genuine O(1/M) gap to the continuum factor.

Left-factor algorithms produce psi with psi psi* = v; the right factor
comes from the transpose trick: run them on v = w^T (entrywise
transpose, no conjugation) and transpose the coefficients back, since
(psi^T)* (psi^T) = (psi psi*)^T = v^T = w.

Restriction: the weight must be positive definite at every node with
det w above a floor (node-level strictness in place of an a.e.
integrability hypothesis); weights failing it are rejected.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.linalg

from . import linalg
from .errors import (
    NoConvergence,
    NotPD,
    RadiusExceeded,
    SingularBoundary,
)
from .linalg import BoundarySampling, left_polar, operator_norm
from .tolerances import DEFAULT, Tolerances

_MAX_SWEEPS = 60  # cap on Wilson sweeps


@dataclasses.dataclass(frozen=True)
class OuterFunction:
    """Outer factor: power-series coefficients plus boundary samples.

    coeffs[k] is the z^k coefficient, k = 0..order. boundary holds the
    factor on the weight's grid; residual is the node-level certificate
    max ||G* G - w||, truncation_defect the sup gap between boundary and
    the truncated series, neg_leakage the largest negative-index Fourier
    coefficient of the boundary values.
    """

    coeffs: np.ndarray
    boundary: BoundarySampling
    residual: float
    neg_leakage: float
    truncation_defect: float
    sweeps: int

    @property
    def order(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    def value_at_zero(self) -> np.ndarray:
        return self.coeffs[0]

    def eval_interior(self, z) -> np.ndarray:
        """Evaluate the truncated series at points with |z| <= 0.99."""
        z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
        if np.any(np.abs(z_arr) > 0.99):
            raise RadiusExceeded("interior evaluation restricted to |z| <= 0.99")
        powers = z_arr[:, None] ** np.arange(self.order + 1)[None, :]
        out = np.einsum("tk,kij->tij", powers, self.coeffs)
        if np.isscalar(z) or np.asarray(z).ndim == 0:
            return out[0]
        return out

    def truncation_bound(self, z) -> float:
        """Geometric tail bound ||c_K|| |z|^K / (1 - |z|) for the series cut."""
        r = float(np.max(np.abs(z)))
        if r >= 1.0:
            raise RadiusExceeded("tail bound needs |z| < 1")
        top = float(operator_norm(self.coeffs[-1]))
        return top * r ** self.order / (1.0 - r)


# ---------------------------------------------------------------------------
# exact path for commuting weights


def _scalar_outer_coeffs(samples: np.ndarray) -> np.ndarray:
    """Outer factor of a nonnegative scalar trig polynomial, from its roots.

    samples are the (real, positive) values on the midpoint grid.
    Returns ascending power-series coefficients g_0..g_d with
    |g(e^{it})|^2 = the trig polynomial and g(0) > 0.
    """
    m_grid = samples.shape[0]
    sampling = BoundarySampling(samples[:, None, None].astype(complex))
    n_vals, coeffs = linalg.fourier_coefficients(sampling)
    c = coeffs[:, 0, 0]
    scale = float(np.abs(c).max())
    sig = np.abs(n_vals)[np.abs(c) > 1e-13 * scale]
    deg = int(sig.max()) if sig.size else 0
    if deg == 0:
        return np.array([np.sqrt(float(np.real(c[n_vals == 0][0])))], dtype=complex)

    # P(z) = z^deg * sum c_k z^k, degree 2*deg; roots pair as (r, 1/conj(r))
    keep = np.abs(n_vals) <= deg
    poly = np.zeros(2 * deg + 1, dtype=complex)
    for n, val in zip(n_vals[keep], c[keep]):
        poly[n + deg] = val

    # deflate even-order zeros at z = +-1 (weight vanishing at t = 0 or pi)
    factors: list[np.ndarray] = []
    for root, lin in ((1.0, np.array([1.0, -1.0])), (-1.0, np.array([1.0, 1.0]))):
        while poly.size > 2:
            val = np.polynomial.polynomial.polyval(root, poly)
            if abs(val) > 1e-10 * scale:
                break
            quot1, rem1 = np.polynomial.polynomial.polydiv(poly, np.array([-root, 1.0]))
            quot2, rem2 = np.polynomial.polynomial.polydiv(quot1, np.array([-root, 1.0]))
            if max(np.abs(rem1).max(), np.abs(rem2).max()) > 1e-8 * scale:
                break
            poly = quot2
            factors.append(lin)  # ascending coeffs of (1 -+ z)

    inner_deg = (poly.size - 1) // 2
    if inner_deg > 0:
        roots = np.polynomial.polynomial.polyroots(poly)
        order = np.argsort(np.abs(roots))[::-1]
        outside = roots[order[:inner_deg]]
        for s in outside:
            factors.append(np.array([1.0, -1.0 / s]))

    g = np.array([1.0 + 0.0j])
    for f in factors:
        g = np.convolve(g, f)

    # fix the positive constant by matching the largest sample
    theta = linalg.midpoint_nodes(m_grid)
    pick = int(np.argmax(samples))
    h_val = np.polynomial.polynomial.polyval(np.exp(1j * theta[pick]), g)
    gamma = np.sqrt(float(samples[pick]) / float(np.abs(h_val) ** 2))
    g = gamma * g
    if g[0].real < 0:
        g = -g
    return g


def _joint_basis(values: np.ndarray) -> np.ndarray:
    """Candidate common eigenbasis from two fixed even-harmonic mixtures.

    Normalized channels all average to one and reflection symmetry kills
    odd moments, so the probes weight even harmonics; eigenvalue
    clusters of the first probe are split against the second.
    """
    m_grid = values.shape[0]
    theta = linalg.midpoint_nodes(m_grid)
    harmonics = np.cos(np.arange(2, 10, 2)[:, None] * theta[None, :])
    mixes = (
        1.0 + harmonics.T @ np.array([1 / 3, 1 / 7, 1 / 13, 1 / 29]),
        1.0 + harmonics.T @ np.array([-1 / 5, 1 / 3, -1 / 23, 1 / 11]),
    )
    p1 = np.einsum("m,mij->ij", mixes[0], values) / m_grid
    p2 = np.einsum("m,mij->ij", mixes[1], values) / m_grid
    lam, basis = np.linalg.eigh(p1)
    gap = 1e-8 * max(float(np.abs(lam).max()), 1e-300)
    start = 0
    for stop in range(1, lam.size + 1):
        if stop < lam.size and lam[stop] - lam[stop - 1] < gap:
            continue
        if stop - start > 1:
            block = basis[:, start:stop]
            _, u = np.linalg.eigh(block.conj().T @ p2 @ block)
            basis[:, start:stop] = block @ u
        start = stop
    return basis


def _commuting_factor(values: np.ndarray) -> np.ndarray | None:
    """Exact coefficients when all boundary values share an eigenbasis.

    Returns the (K+1, l, l) coefficient stack of a (not yet normalized)
    factor, or None when the weight family does not commute.
    """
    m_grid, dim = values.shape[0], values.shape[1]
    scale = float(np.max(np.abs(values)))
    if dim == 1:
        basis = np.eye(1, dtype=complex)
        diag = values[:, 0, 0].real[:, None]
    else:
        basis = _joint_basis(values)
        rotated = np.einsum("ji,mjk,kl->mil", basis.conj(), values, basis)
        off = rotated.copy()
        idx = np.arange(dim)
        off[:, idx, idx] = 0.0
        if float(np.max(np.abs(off))) > 1e-12 * scale:
            return None
        diag = rotated[:, idx, idx].real

    channel_coeffs = []
    top = 0
    for i in range(diag.shape[1]):
        g = _scalar_outer_coeffs(diag[:, i])
        channel_coeffs.append(g)
        top = max(top, g.size - 1)
    if top > m_grid // 2 - 1:
        return None
    out = np.zeros((top + 1, dim, dim), dtype=complex)
    for i, g in enumerate(channel_coeffs):
        out[: g.size, i, i] = g
    # G = Delta(z) basis*, so G* G = basis Delta* Delta basis* = w
    return np.einsum("kij,lj->kil", out, basis.conj())


# ---------------------------------------------------------------------------
# Bauer initialization and Wilson sweeps for general weights


def _bauer_init(v_coeffs_n, v_coeffs, dim: int, band: int, blocks: int) -> np.ndarray:
    """Last block row of the banded Cholesky factor of the Toeplitz section.

    Returns the coefficient stack Phi_0..Phi_band of the left-factor
    estimate; blocks is the Toeplitz section size in blocks.
    """
    lookup = np.zeros((band + 2, dim, dim), dtype=complex)
    for i, n in enumerate(v_coeffs_n):
        if 0 <= n <= band:
            lookup[n] = v_coeffs[i]
    n_scalar = blocks * dim
    bw = (band + 1) * dim - 1
    ab = np.zeros((bw + 1, n_scalar), dtype=complex)
    cols = np.arange(n_scalar)
    for off in range(bw + 1):
        rows = cols + off
        ok = rows < n_scalar
        r, c = rows[ok], cols[ok]
        d_blk = r // dim - c // dim
        ab[off, ok] = lookup[np.minimum(d_blk, band + 1), r % dim, c % dim]
    try:
        chol = scipy.linalg.cholesky_banded(ab, lower=True)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise NotPD(f"Toeplitz section not positive definite: {exc}") from None
    phi = np.zeros((band + 1, dim, dim), dtype=complex)
    base = (blocks - 1) * dim
    for k in range(band + 1):
        col0 = (blocks - 1 - k) * dim
        for r in range(dim):
            for c in range(dim):
                off = base + r - (col0 + c)
                if 0 <= off <= bw:
                    phi[k, r, c] = chol[off, col0 + c]
    return phi


def _significant_band(n_values: np.ndarray, coeffs: np.ndarray) -> int:
    norms = np.max(np.abs(coeffs), axis=(1, 2))
    floor = 1e-14 * max(norms.max(), 1e-300)
    sig = np.abs(n_values)[norms > floor]
    return int(sig.max()) if sig.size else 0


def _wilson_factor(
    values: np.ndarray, order: int, target: float
) -> tuple[np.ndarray, np.ndarray, float, float, int]:
    """Grid factorization; returns (coeffs, boundary, leak, trunc, sweeps)."""
    m_grid, dim = values.shape[0], values.shape[1]
    v = values.transpose(0, 2, 1)
    n_vals, v_coeffs = linalg.fourier_coefficients(BoundarySampling(v))
    band = _significant_band(n_vals, v_coeffs)

    psi = None
    if 0 < band and (band + 1) * dim <= 600:
        blocks = min(max(4 * (band + 1), 32), 1024)
        phi = _bauer_init(n_vals, v_coeffs, dim, band, blocks)
        psi = linalg.synthesize_on_grid(np.arange(band + 1), phi, m_grid).values
        if np.min(np.abs(np.linalg.det(psi))) < 1e-250:
            psi = None
    if psi is None:
        psi = np.linalg.cholesky(np.mean(v, axis=0))[None].repeat(m_grid, axis=0)

    eye = np.eye(dim)
    best = np.inf
    stall = 0
    sweeps = 0
    for sweeps in range(1, _MAX_SWEEPS + 1):
        try:
            inv_psi = np.linalg.inv(psi)
        except np.linalg.LinAlgError:
            raise NoConvergence(
                f"iterate became singular at sweep {sweeps}; best residual {best:.3e}"
            ) from None
        ratio = inv_psi @ v @ inv_psi.conj().transpose(0, 2, 1) + eye
        psi = psi @ linalg.analytic_part(BoundarySampling(ratio)).values
        res = float(np.max(operator_norm(psi @ psi.conj().transpose(0, 2, 1) - v)))
        if res < best * 0.7:
            stall = 0
        else:
            stall += 1
        best = min(best, res)
        if res <= target or stall >= 4:
            break
    if best > target:
        raise NoConvergence(
            f"residual {best:.3e} above target {target:.3e} after {sweeps} sweeps"
        )

    g_boundary = psi.transpose(0, 2, 1)
    n_vals, g_coeffs = linalg.fourier_coefficients(BoundarySampling(g_boundary))
    neg = n_vals < 0
    leak = float(np.max(operator_norm(g_coeffs[neg]))) if neg.any() else 0.0
    keep = (n_vals >= 0) & (n_vals <= order)
    coeffs = g_coeffs[keep][np.argsort(n_vals[keep])]
    synth = linalg.synthesize_on_grid(np.arange(coeffs.shape[0]), coeffs, m_grid).values
    trunc = float(np.max(operator_norm(synth - g_boundary)))
    return coeffs, g_boundary, leak, trunc, sweeps


def spectral_factorize(
    w: BoundarySampling,
    order: int | None = None,
    tol: Tolerances = DEFAULT,
) -> OuterFunction:
    """Factor w = G* G with G outer and G(0) Hermitian PD.

    order is the series truncation K (default M/8, capped at M/2 - 1;
    the exact commuting path keeps its full polynomial degree even when
    smaller). Raises NotPD for weights singular at a node (det below
    tol.pd_floor) and NoConvergence if the boundary residual cannot be
    driven below tol.fact_rel * max ||w||.
    """
    m_grid = w.node_count
    values = 0.5 * (w.values + w.values.conj().transpose(0, 2, 1))
    scale = float(np.max(operator_norm(values)))
    if scale <= 0.0:
        raise NotPD("weight vanishes identically")
    lam_min = float(np.min(np.linalg.eigvalsh(values)))
    dets = np.linalg.det(values).real
    if lam_min <= 0.0 or dets.min() < tol.pd_floor:
        raise NotPD(
            f"weight not safely positive definite: min eig {lam_min:.3e}, "
            f"min det {dets.min():.3e} (floor {tol.pd_floor:.1e})"
        )
    if order is None:
        order = m_grid // 8
    order = min(order, m_grid // 2 - 1)
    target = tol.fact_rel * scale

    coeffs = _commuting_factor(values)
    if coeffs is not None:
        boundary = linalg.synthesize_on_grid(
            np.arange(coeffs.shape[0]), coeffs, m_grid
        ).values
        res = float(
            np.max(operator_norm(boundary.conj().transpose(0, 2, 1) @ boundary - values))
        )
        if res <= target:
            leak, trunc, sweeps = 0.0, 0.0, 0
        else:
            coeffs = None
    if coeffs is None:
        coeffs, boundary, leak, trunc, sweeps = _wilson_factor(values, order, target)

    u, _ = left_polar(coeffs[0], tol)
    omega = u.conj().T
    coeffs = np.einsum("ij,kjl->kil", omega, coeffs)
    coeffs[0] = 0.5 * (coeffs[0] + coeffs[0].conj().T)
    boundary = np.einsum("ij,mjl->mil", omega, boundary)
    residual = float(
        np.max(operator_norm(boundary.conj().transpose(0, 2, 1) @ boundary - values))
    )

    out = OuterFunction(
        coeffs=coeffs,
        boundary=BoundarySampling(boundary),
        residual=residual,
        neg_leakage=leak,
        truncation_defect=trunc,
        sweeps=sweeps,
    )
    _check_zero_free(out)
    return out


def _check_zero_free(g: OuterFunction) -> None:
    radii = np.linspace(0.1, 0.95, 8)
    angles = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False))
    z = (radii[:, None] * angles[None, :]).ravel()
    vals = g.eval_interior(z)
    dets = np.abs(np.linalg.det(vals))
    det0 = abs(np.linalg.det(g.value_at_zero()))
    if dets.min() < 1e-12 * det0:
        raise NoConvergence(
            f"factor has an interior zero (|det| = {dets.min():.3e}); not outer"
        )


def boundary_logdet_mean(g: OuterFunction) -> tuple[float, float]:
    """(mean, estimate) of the boundary average of log |det G|.

    Formed from the stored coefficients on the native and doubled grids
    and Richardson extrapolated: the plain grid mean of a log-type
    integrand carries an exact a/M term when det G has zeros on or near
    the circle.
    """
    m_grid = g.boundary.node_count
    n_vals = np.arange(g.order + 1)
    means = []
    for targets in (m_grid, 2 * m_grid):
        vals = linalg.synthesize_on_grid(n_vals, g.coeffs, targets).values
        dets = np.abs(np.linalg.det(vals))
        if dets.min() <= 0.0:
            raise SingularBoundary("det G vanishes at a boundary node")
        means.append(float(np.mean(np.log(dets))))
    return linalg.two_grid_richardson(*means)


def det_szego_check(g: OuterFunction) -> tuple[float, float]:
    """(residual, estimate) for the outer mean-value identity of log|det G|.

    residual = |log |det G(0)| - boundary mean of log |det G||; an inner
    factor hiding in G shows up as a strictly positive residual (each
    Blaschke-type zero z0 contributes -log |z0|). estimate is the
    quadrature coarse/fine difference. Wilson-path factors of weights
    vanishing between nodes keep an O(1/M) gap to the continuum factor,
    so their residual floor sits near 1e-5 rather than rounding level.
    """
    mean, est = boundary_logdet_mean(g)
    det0 = abs(np.linalg.det(g.value_at_zero()))
    return abs(float(np.log(det0)) - mean), est


def s_function(g: OuterFunction, tol: Tolerances = DEFAULT) -> BoundarySampling:
    """s(t) = G(e^{it}) G(e^{-it})^{-1} on the grid.

    For weights symmetric under t -> -t (every Szego-mapped weight is)
    the values are unitary; SingularBoundary if a reflected value cannot
    be inverted.
    """
    vals = g.boundary.values
    reflected = vals[::-1]
    sing = np.linalg.svd(reflected, compute_uv=False)
    if np.min(sing[:, -1]) <= tol.sing_rel * np.max(sing[:, 0]):
        raise SingularBoundary("G(e^{-it}) numerically singular at a node")
    s_vals = vals @ np.linalg.inv(reflected)
    return BoundarySampling(s_vals)
