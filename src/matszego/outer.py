"""Right spectral factorization w = G* G on the unit circle.

G is the outer (minimum-phase) factor, analytic in the disk, normalized
so G(0) is Hermitian positive definite. Two construction paths:

* commuting weights (all boundary values share one constant eigenbasis,
  which covers scalar weights and the conjugated-diagonal family): each
  eigenvalue channel that is a resolved nonnegative scalar trigonometric
  polynomial is factored exactly by root splitting, with explicit
  deflation of zeros at z = +-1. Exact to rounding even when the weight
  vanishes on the circle; the series is the polynomial.
* general weights: deflated Wilson iteration. While w(1) or w(-1),
  summed from the Fourier series of w, has a kernel with projector P,
  the boundary Potapov factor E(z) = I -+ z P is peeled off,
  w <- E^{-*} w E^{-1}, which also catches zeros of higher order
  (Potapov 1955; Janashia, Lagvilava & Ephremidze, IEEE Trans. Inf.
  Theory 57 (2011)). Wilson's Newton iteration (SIAM J. Appl. Math. 23
  (1972)), started from the Cholesky factor of the mean, factors the
  smooth remainder on the grid, and G = G~ E_k ... E_1 puts the edge
  zeros back. Spectrally accurate for weights whose zeros on the circle
  are even-order zeros at z = +-1; a zero of non-integer order keeps an
  O(M^-p) gap to the continuum factor. The series is cut after G's
  significant Fourier band, at most an eighth of Wilson's grid.

  Wilson runs on the weight's resolution grid, not on all M nodes: a
  weight of Fourier band d (a matrix trigonometric polynomial of degree
  d, whose outer factor is a polynomial of degree d by matrix
  Fejer-Riesz) is resampled exactly from its coefficients |n| <= d onto
  M' nodes, the smallest power of two at or above max(64, 16 (d + 1)),
  capped at M. The cut series, synthesized on the M nodes, is then held
  to the same certificate as every factor. If the coarse run fails it or
  stalls, Wilson runs once more on the M nodes themselves; an unresolved
  weight (d near M/2) goes there at once.

Left-factor algorithms produce psi with psi psi* = v; the right factor
comes from the transpose trick: run them on v = w^T (entrywise
transpose, no conjugation) and transpose the coefficients back, since
(psi^T)* (psi^T) = (psi psi*)^T = v^T = w.

Restriction: the weight must be positive definite at every node
(node-level strictness in place of an a.e. integrability hypothesis);
weights failing it are rejected. det w itself may be tiny: at the edge
nodes of a weight vanishing at t = 0 and pi it is of order (2 sin^2(pi/M))^k
for k vanishing channels, and such weights factor to rounding.

Products of a grid stack with constant matrices (the rotation into the
probes' joint eigenbasis, the edge factors E, the phase Omega that makes
G(0) Hermitian) are GEMMs: linalg.frame_product and, for E,
blaschke.elementary_matrix. The probes, the edge sums w(+-1) and interior
evaluation are single GEMMs. The reported residual of the Hermitian
G* G - w is its largest |eigenvalue| (linalg.max_hermitian_norm).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import blaschke, linalg
from .errors import (
    NoConvergence,
    NotPD,
    RadiusExceeded,
    Singular,
    SingularBoundary,
)
from .linalg import BoundarySampling, BracketedNorm, left_polar, max_operator_norm
from .tolerances import DEFAULT, Tolerances

_MAX_SWEEPS = 60  # cap on Wilson sweeps
_MAX_PEELS = 16  # cap on boundary factors peeled off one weight


@dataclasses.dataclass(frozen=True)
class OuterFunction:
    """Outer factor: power-series coefficients plus boundary samples.

    coeffs[k] is the z^k coefficient, k = 0..order. boundary holds the
    factor on the weight's grid; residual is the node-level certificate
    max ||G* G - w|| over that grid. wilson_nodes is the size of the grid
    Wilson's factor was kept from (0 on the exact path). When it is
    below the weight's node count, boundary is the truncated series, and
    truncation_defect (the sup gap between Wilson's iterate and the
    truncated series) and neg_leakage (the largest negative-index Fourier
    coefficient of the iterate) are read on Wilson's grid; otherwise
    boundary is the iterate itself.
    """

    coeffs: np.ndarray
    boundary: BoundarySampling
    residual: float
    neg_leakage: float
    truncation_defect: float
    sweeps: int
    wilson_nodes: int = 0

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
            raise RadiusExceeded(
                f"factorize: interior evaluation at |z| = {np.abs(z_arr).max():.6g} above 0.99"
            )
        powers = z_arr[:, None] ** np.arange(self.order + 1)[None, :]
        out = (powers @ self.coeffs.reshape(self.order + 1, -1)).reshape(-1, self.dim, self.dim)
        if np.isscalar(z) or np.asarray(z).ndim == 0:
            return out[0]
        return out


def _band_degree(n_vals: np.ndarray, coeffs: np.ndarray) -> int:
    """Largest |n| whose (l, l) coefficient has norm above 1e-13 times the largest."""
    norms = np.linalg.norm(coeffs, axis=(1, 2))
    sig = np.abs(n_vals)[norms > 1e-13 * norms.max()]
    return int(sig.max()) if sig.size else 0


# ---------------------------------------------------------------------------
# exact path for commuting weights


def _scalar_outer_coeffs(samples: np.ndarray) -> np.ndarray | None:
    """Outer factor of a nonnegative scalar trig polynomial, from its roots.

    samples are the (real, positive) values on the midpoint grid.
    Returns ascending power-series coefficients g_0..g_d with
    |g(e^{it})|^2 = the trig polynomial and g(0) > 0, or None when the
    significant degree d reaches M/4: the samples are then not a
    resolved trig polynomial, and root splitting would be O(M^3) work
    whose result is rejected.
    """
    m_grid = samples.shape[0]
    sampling = BoundarySampling(samples[:, None, None].astype(complex))
    n_vals, coeffs = linalg.fourier_coefficients(sampling)
    c = coeffs[:, 0, 0]
    scale = float(np.abs(c).max())
    deg = _band_degree(n_vals, coeffs)
    if deg >= m_grid // 4:
        return None
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


def _probes(values: np.ndarray) -> np.ndarray:
    """Two fixed even-harmonic mixtures p_k = (1/M) sum_m mix_k(t_m) w(t_m),
    stacked as (2, l, l) and summed by one GEMM.

    Normalized channels all average to one and reflection symmetry kills
    odd moments, so the probes weight even harmonics.
    """
    m_grid = values.shape[0]
    theta = linalg.midpoint_nodes(m_grid)
    harmonics = np.cos(np.arange(2, 10, 2)[:, None] * theta[None, :])
    weights = np.array([[1 / 3, 1 / 7, 1 / 13, 1 / 29], [-1 / 5, 1 / 3, -1 / 23, 1 / 11]])
    mixes = 1.0 + weights @ harmonics
    return (mixes @ values.reshape(m_grid, -1)).reshape(2, *values.shape[1:]) / m_grid


def _joint_basis(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Candidate common eigenbasis of the probes: eigenvalue clusters of
    the first are split against the second."""
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
    factor, or None when the weight family does not commute or a channel
    is no resolved trig polynomial. Commutation has one test: every value
    rotated into the probes' joint basis B (linalg.frame_product) must
    have no off-diagonal entry above eps s, eps = 1e-12 and s = max |w|
    entrywise.
    """
    dim = values.shape[1]
    scale = float(np.max(np.abs(values)))
    if dim == 1:
        basis = np.eye(1, dtype=complex)
        diag = values[:, 0, 0].real[:, None]
    else:
        basis = _joint_basis(*_probes(values))
        rotated = linalg.frame_product(basis.conj().T, values, basis)
        off = rotated.copy()
        idx = np.arange(dim)
        off[:, idx, idx] = 0.0
        if float(np.max(np.abs(off))) > 1e-12 * scale:
            return None
        diag = rotated[:, idx, idx].real

    channel_coeffs = [_scalar_outer_coeffs(diag[:, i]) for i in range(diag.shape[1])]
    if any(g is None for g in channel_coeffs):
        return None
    top = max(g.size - 1 for g in channel_coeffs)
    delta = np.zeros((top + 1, dim), dtype=complex)
    for i, g in enumerate(channel_coeffs):
        delta[: g.size, i] = g
    # G = Delta(z) basis*, so G* G = basis Delta* Delta basis* = w; Delta is
    # diagonal, so each coefficient is basis* with its rows scaled
    return delta[:, :, None] * basis.conj().T


# ---------------------------------------------------------------------------
# edge deflation and Wilson sweeps for general weights


def _peel_edges(
    values: np.ndarray, z: np.ndarray, floor: float
) -> tuple[np.ndarray, list[tuple[float, np.ndarray, int]]]:
    """Divide boundary Potapov factors E(z) = I -+ z P out of w.

    w(+-1) is summed from the Fourier series (sum of c_n, resp. of
    (-1)^n c_n), which is spectrally accurate. While it has eigenvalues
    at or below floor, P projects onto their span and w <- E^{-*} w E^{-1}.
    Returns the remainder and (root, unitary, rank) per factor in peel
    order; E = blaschke.elementary_matrix(unitary, rank, 1 - root z) on
    the grid points z.
    """
    peeled = []
    while len(peeled) < _MAX_PEELS:
        n_vals, c = linalg.fourier_coefficients(BoundarySampling(values))
        for root in (1.0, -1.0):
            edge = (root**n_vals) @ c.reshape(n_vals.size, -1)
            lam, vec = np.linalg.eigh(edge.reshape(c.shape[1:]))
            rank = int(np.sum(lam <= floor))
            if rank:
                break
        else:
            break
        unitary = vec.conj().T
        e_inv = blaschke.elementary_matrix(unitary, rank, 1.0 / (1.0 - root * z))
        values = e_inv.conj().transpose(0, 2, 1) @ values @ e_inv
        peeled.append((root, unitary, rank))
    return values, peeled


def _wilson(v: np.ndarray, target: float) -> tuple[np.ndarray, int]:
    """Left factor psi psi* = v on the grid; returns (psi, sweeps).

    Starts from the Cholesky factor of the mean of v and stops once the
    residual max ||psi psi* - v|| is at most target, or after four sweeps
    without a 30% gain on the best residual; the caller checks the result.
    The stop and stall tests read the residuals' Frobenius brackets
    (linalg.BracketedNorm) and settle exactly only where a bracket
    straddles the threshold: Newton residuals are rank one of nearly
    equal norm at every node, so the exact value would need an SVD of
    every block, and it mostly is far from the threshold. Only the
    residual stack of the best sweep is kept for that. The sweeps run,
    and so psi, are those of the exact tests.
    """
    m_grid, dim = v.shape[0], v.shape[1]
    psi = np.linalg.cholesky(np.mean(v, axis=0))[None].repeat(m_grid, axis=0)
    eye = np.eye(dim)
    best = BracketedNorm(value=np.inf)
    stall = 0
    sweeps = 0
    for sweeps in range(1, _MAX_SWEEPS + 1):
        try:
            inv_psi = np.linalg.inv(psi)
        except np.linalg.LinAlgError:
            raise NoConvergence(
                f"factorize: iterate singular, residual {best.exact():.1e} above target "
                f"{target:.1e} after {sweeps - 1} sweeps"
            ) from None
        # inv_psi and ratio are freed once used, to make room for best's stack
        ratio = inv_psi @ v @ inv_psi.conj().transpose(0, 2, 1) + eye
        del inv_psi
        psi = psi @ linalg.analytic_part(BoundarySampling(ratio)).values
        del ratio
        res = BracketedNorm(psi @ psi.conj().transpose(0, 2, 1) - v)
        if res.at_most(target):
            break
        # res < 0.7 best implies res < best, the new minimum
        if res.below(best, 0.7):
            stall, best = 0, res
        else:
            stall += 1
            if res.below(best):
                best = res
            if stall >= 4:
                break
    return psi, sweeps


# Wilson's grid: at least this many nodes, and this many per coefficient of w's band
_MIN_WILSON_NODES = 64
_NODES_PER_COEFF = 16


def _resolution_grid(band: int, m_grid: int) -> int:
    """Node count of Wilson's first attempt for a weight of Fourier band
    `band` sampled on m_grid nodes: the smallest power of two at or above
    max(64, 16 (band + 1)), capped at m_grid."""
    need = max(_MIN_WILSON_NODES, _NODES_PER_COEFF * (band + 1))
    return min(m_grid, 1 << (need - 1).bit_length())


def _wilson_factor(samples: np.ndarray, m_grid: int, floor: float, target: float):
    """Deflated Wilson factor of the weight samples on their own grid.

    Peels the edge factors (_peel_edges, eigenvalue floor), runs _wilson
    to target / 4^k for k peeled factors (|E| <= 2 on the circle, so each
    can scale the residual by 4) and cuts the series after its band, at
    most a grid's eighth. Returns (coeffs, boundary, neg_leakage,
    truncation_defect, sweeps, nodes), the two floats read on the
    samples' grid of `nodes` nodes. boundary is on the m_grid-node grid:
    the iterate itself when nodes == m_grid, else the cut series.
    """
    nodes = samples.shape[0]
    z = np.exp(1j * linalg.midpoint_nodes(nodes))
    remainder, peeled = _peel_edges(samples, z, floor)
    psi, sweeps = _wilson(remainder.transpose(0, 2, 1), target / 4 ** len(peeled))
    boundary = psi.transpose(0, 2, 1)
    for root, unitary, rank in reversed(peeled):
        boundary = boundary @ blaschke.elementary_matrix(unitary, rank, 1.0 - root * z)
    n_vals, g_coeffs = linalg.fourier_coefficients(BoundarySampling(boundary))
    leak = max_operator_norm(g_coeffs[n_vals < 0])
    head = g_coeffs[(n_vals >= 0) & (n_vals <= nodes // 8)]
    coeffs = head[: _band_degree(np.arange(head.shape[0]), head) + 1]
    powers = np.arange(coeffs.shape[0])
    trunc = max_operator_norm(linalg.synthesize_on_grid(powers, coeffs, nodes).values - boundary)
    if nodes < m_grid:
        boundary = linalg.synthesize_on_grid(powers, coeffs, m_grid).values
    return coeffs, boundary, leak, trunc, sweeps, nodes


def spectral_factorize(w: BoundarySampling, tol: Tolerances = DEFAULT) -> OuterFunction:
    """Factor w = G* G with G outer and G(0) Hermitian PD.

    Weights the exact path does not take go to the deflated Wilson path:
    boundary Potapov factors E at z = +-1 are peeled off while w(+-1) has
    eigenvalues at or below tol.rank_rel * max ||w||, Wilson factors the
    remainder, and G = G~ E_k ... E_1. E(0) = I, so G(0) is the
    remainder's. The factor sets its series length: the exact path keeps
    its polynomial, and Wilson's series is cut after its last coefficient
    k <= M'/8 of norm above 1e-13 times the largest (_band_degree), so an
    unresolved weight stops at M/8.

    Wilson first runs on the weight's resolution grid: with d the band
    of w (_band_degree of its M-node FFT), M' is the smallest power of two
    at or above max(64, 16 (d + 1)), capped at M, and w is resampled
    there from its coefficients |n| <= d. When M' < M, boundary is the
    cut series on the M nodes, so residual includes the truncation, while
    truncation_defect and neg_leakage are read on the M' nodes. If that
    run raises NoConvergence or fails the certificate below, it runs once
    more with M' = M on w's own samples, where boundary is the iterate.
    wilson_nodes records the M' that was kept.

    Raises NotPD for weights with an eigenvalue at or below 0 at a node,
    NoConvergence when the residual max ||G* G - w|| over the M nodes is
    above tol.fact_rel * max ||w|| or the series has a zero in the disk,
    and Singular when G(0) is; every message starts with "factorize:".
    """
    m_grid = w.node_count
    values = 0.5 * (w.values + w.values.conj().transpose(0, 2, 1))
    eigs = np.linalg.eigvalsh(values)
    scale = float(np.max(np.abs(eigs)))  # Hermitian: the operator norm
    if scale <= 0.0:
        raise NotPD("factorize: weight vanishes identically")
    lam_min = float(np.min(eigs))
    if lam_min <= 0.0:
        raise NotPD(
            f"factorize: weight not positive definite: min eig {lam_min:.1e} at or below 0"
        )
    target = tol.fact_rel * scale

    coeffs = _commuting_factor(values)
    if coeffs is not None:
        boundary = linalg.synthesize_on_grid(
            np.arange(coeffs.shape[0]), coeffs, m_grid
        ).values
        if BracketedNorm(boundary.conj().transpose(0, 2, 1) @ boundary - values).at_most(target):
            return _certified((coeffs, boundary, 0.0, 0.0, 0, 0), values, target, tol)

    floor = tol.rank_rel * scale
    n_vals, c = linalg.fourier_coefficients(BoundarySampling(values))
    band = _band_degree(n_vals, c)
    nodes = _resolution_grid(band, m_grid)
    if nodes < m_grid:
        keep = np.abs(n_vals) <= band
        samples = linalg.synthesize_on_grid(n_vals[keep], c[keep], nodes).values
        samples = 0.5 * (samples + samples.conj().transpose(0, 2, 1))
        try:
            return _certified(_wilson_factor(samples, m_grid, floor, target), values, target, tol)
        except NoConvergence:
            pass
    return _certified(_wilson_factor(values, m_grid, floor, target), values, target, tol)


def _certified(factor, values: np.ndarray, target: float, tol: Tolerances) -> OuterFunction:
    """The OuterFunction of factor = (coeffs, boundary, neg_leakage,
    truncation_defect, sweeps, wilson_nodes), its G(0) turned Hermitian PD
    by a constant unitary, once max ||G* G - w|| <= target over the grid
    and the series is zero-free in the disk (_check_zero_free)."""
    coeffs, boundary, leak, trunc, sweeps, nodes = factor
    try:
        u, _ = left_polar(coeffs[0], tol)
    except Singular as err:
        raise Singular(f"factorize: G(0): {err}") from None
    omega = u.conj().T
    eye = np.eye(values.shape[1])
    coeffs = linalg.frame_product(omega, coeffs, eye)
    coeffs[0] = 0.5 * (coeffs[0] + coeffs[0].conj().T)
    boundary = linalg.frame_product(omega, boundary, eye)
    # G* G - w is Hermitian: its norm is the largest |eigenvalue|
    residual = linalg.max_hermitian_norm(boundary.conj().transpose(0, 2, 1) @ boundary - values)
    if residual > target:
        raise NoConvergence(
            f"factorize: residual {residual:.1e} above target {target:.1e} "
            f"after {sweeps} sweeps"
        )

    out = OuterFunction(
        coeffs=coeffs,
        boundary=BoundarySampling(boundary),
        residual=residual,
        neg_leakage=leak,
        truncation_defect=trunc,
        sweeps=sweeps,
        wilson_nodes=nodes,
    )
    _check_zero_free(out)
    return out


def _check_zero_free(g: OuterFunction) -> None:
    radii = np.linspace(0.1, 0.95, 8)
    angles = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False))
    z = (radii[:, None] * angles[None, :]).ravel()
    vals = g.eval_interior(z)
    dets = np.abs(np.linalg.det(vals))
    floor = 1e-12 * abs(np.linalg.det(g.value_at_zero()))
    if dets.min() < floor:
        raise NoConvergence(
            f"factorize: interior |det G| {dets.min():.1e} below target {floor:.1e} "
            f"after {g.sweeps} sweeps; not outer"
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
            node = int(np.argmin(dets))
            smin = float(np.linalg.svd(vals[node], compute_uv=False)[-1])
            raise SingularBoundary(
                f"boundary_logdet_mean: det G vanishes at node t = "
                f"{linalg.midpoint_nodes(targets)[node]:.6f} of the {targets}-node grid: "
                f"|det G| = {dets[node]:.1e}, smallest singular value {smin:.1e}"
            )
        means.append(float(np.mean(np.log(dets))))
    return linalg.two_grid_richardson(*means)


def det_szego_check(g: OuterFunction) -> tuple[float, float]:
    """(residual, estimate) for the outer mean-value identity of log|det G|.

    residual = |log |det G(0)| - boundary mean of log |det G||; an inner
    factor hiding in G shows up as a strictly positive residual (each
    Blaschke-type zero z0 contributes -log |z0|). estimate is the
    quadrature coarse/fine difference. Even-order zeros at z = +-1 are
    peeled off exactly, so such weights reach rounding level. Only a zero
    of non-integer order keeps an O(M^-p) gap to the continuum factor;
    then the residual floor sits near the estimate (1.6e-5 for
    |2 sin t|^{3/2} at M = 2048).
    """
    mean, est = boundary_logdet_mean(g)
    det0 = abs(np.linalg.det(g.value_at_zero()))
    return abs(float(np.log(det0)) - mean), est


# s_function skips its SVDs while max ||A||_F max ||A^-1||_F stays below this
_INVERSE_BOUND_CAP = 1e8


def _surely_invertible(reflected: np.ndarray, inv: np.ndarray, sing_rel: float) -> bool:
    """Whether the singularity test of s_function passes, read from norms.

    With F = max ||A||_F over the blocks A and Y = max ||X||_F over their
    computed inverses X: the largest singular value is at most F, and each
    smallest one is 1 / ||A^-1||_2 >= 1 / ||A^-1||_F. Once q = F Y <= 1e8,
    the inverse's forward error (at most a modest multiple of
    l * growth * u * kappa, u = 2^-53) and the SVD's backward error (a
    modest multiple of u ||A||) shift these bounds by less than 1e-3
    relative, so the computed smallest singular value exceeds
    sing_rel times the computed largest whenever sing_rel * q <= 0.5. A
    False answer decides nothing: the caller then runs the exact test.
    """
    q = float(np.max(np.linalg.norm(reflected, axis=(1, 2)))) * float(
        np.max(np.linalg.norm(inv, axis=(1, 2)))
    )
    return q <= _INVERSE_BOUND_CAP and sing_rel * q <= 0.5


def s_function(g: OuterFunction, tol: Tolerances = DEFAULT) -> BoundarySampling:
    """s(t) = G(e^{it}) G(e^{-it})^{-1} on the grid.

    For weights symmetric under t -> -t (every Szego-mapped weight is)
    the values are unitary. SingularBoundary if a reflected value is
    numerically singular: its smallest singular value at or below
    tol.sing_rel times the largest over the grid. That test is decided
    from the bracket sigma_max in [max ||A||_F / sqrt(l), max ||A||_F] and
    sigma_min in [1 / max ||A^-1||_F, sqrt(l) / max ||A^-1||_F], from the
    inverses s needs anyway (_surely_invertible); the singular values are
    computed only where that does not certify a pass, so the outcome is
    that of the exact test.
    """
    vals = g.boundary.values
    reflected = vals[::-1]
    try:
        inv = np.linalg.inv(reflected)
    except np.linalg.LinAlgError:
        inv = None
    if inv is None or not _surely_invertible(reflected, inv, tol.sing_rel):
        sing = np.linalg.svd(reflected, compute_uv=False)
        smin, smax = np.min(sing[:, -1]), np.max(sing[:, 0])
        if smin <= tol.sing_rel * smax:
            node = int(np.argmin(sing[:, -1]))
            raise SingularBoundary(
                f"s_function: G(e^{{-it}}) numerically singular at node t = "
                f"{g.boundary.theta[node]:.6f}: smallest singular value {smin:.1e} "
                f"at or below {tol.sing_rel:.1e} x largest {smax:.1e}"
            )
        if inv is None:
            inv = np.linalg.inv(reflected)
    return BoundarySampling(vals @ inv)
