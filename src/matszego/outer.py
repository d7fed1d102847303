"""Right spectral factorization w = G* G on the unit circle.

G is the outer (minimum-phase) factor, analytic in the disk, normalized
so G(0) is Hermitian positive definite. Two construction paths:

* cyclic reduction, for every weight of Fourier band d < M/4 with
  d^3 l <= 128 M, whose outer factor is a matrix polynomial of degree d
  (matrix Fejer-Riesz, Rosenblatt 1958). While w(+-1), summed from the
  Fourier series, has a kernel with projector P, the boundary Potapov
  factor E(z) = I -+ z P is peeled off, w <- E^{-*} w E^{-1} (Potapov
  1955; Janashia, Lagvilava & Ephremidze, IEEE Trans. Inf. Theory 57
  (2011)). Meini's cyclic reduction (Math. Comp. 71 (2002)) factors the
  strictly positive remainder from its coefficients, and
  G = G~ E_k ... E_1 is multiplied out in coefficient space.
* Wilson's Newton iteration (SIAM J. Appl. Math. 23 (1972)) for the
  rest: unresolved weights (d >= M/4: tables that are no trigonometric
  polynomial, fractional edge exponents) and bands so wide that the
  reduction's dense (d l)^3 work would exceed the grid's. It runs on the
  M nodes after the same peeling, on v = w^T, as (psi^T)* (psi^T) =
  (psi psi*)^T = w; the series is cut after G's band, at most M/8.

Either way the stored factor is a polynomial, whose error inside the
disk is at most its error on the circle (maximum principle), so it is
evaluated anywhere in the closed unit disk.

Every factor passes one certificate on the M nodes: max ||G* G - w||
at most tol.fact_rel max ||w||, then a zero-free interior. The weight
must be positive definite at every node; det w may be tiny, as at the
edge nodes of channels vanishing at t = 0 and pi.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import blaschke, linalg
from .errors import NoConvergence, NotPD, RadiusExceeded, Singular, SingularBoundary
from .linalg import BoundarySampling, BracketedNorm, left_polar, max_operator_norm
from .tolerances import DEFAULT, Tolerances

_MAX_SWEEPS = 60  # cap on Wilson sweeps and reduction steps
_MAX_PEELS = 16  # cap on boundary factors peeled off one weight


@dataclasses.dataclass(frozen=True)
class OuterFunction:
    """Outer factor: power-series coefficients plus boundary samples.

    coeffs[k] is the z^k coefficient, k = 0..order. boundary holds the
    factor on the weight's grid; residual is the node-level certificate
    max ||G* G - w|| over that grid. path is "reduction" or "wilson";
    sweeps counts reduction steps or Newton sweeps. On the Wilson path
    boundary is the iterate, truncation_defect its sup gap to the cut
    series and neg_leakage its largest negative-index Fourier
    coefficient; the reduction path reports both as 0.0.
    """

    coeffs: np.ndarray
    boundary: BoundarySampling
    residual: float
    neg_leakage: float
    truncation_defect: float
    sweeps: int
    path: str

    @property
    def order(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    def value_at_zero(self) -> np.ndarray:
        return self.coeffs[0]

    def eval_interior(self, z) -> np.ndarray:
        """Evaluate the polynomial factor at points of the closed unit disk."""
        z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
        if np.any(np.abs(z_arr) > 1.0 + 1e-9):
            raise RadiusExceeded(
                f"factorize: evaluation at |z| = {np.abs(z_arr).max():.6g} "
                "outside the closed unit disk"
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
# edge deflation, cyclic reduction and Wilson sweeps


def _peel_edges(
    values: np.ndarray, z: np.ndarray, scale: BracketedNorm, rank_rel: float
) -> tuple[np.ndarray, list[tuple[float, np.ndarray, int]]]:
    """Divide boundary Potapov factors E(z) = I -+ z P out of w.

    While w(+-1), summed from the Fourier series, has eigenvalues at or
    below rank_rel times the weight's scale, P projects onto their span
    and w <- E^{-*} w E^{-1}. Returns the remainder and (root, unitary,
    rank) per factor in peel order: E(z) = I - root z P, on the grid
    points z blaschke.elementary_matrix(unitary, rank, 1 - root z).
    """
    peeled = []
    while len(peeled) < _MAX_PEELS:
        n_vals, c = linalg.fourier_coefficients(BoundarySampling(values))
        for root in (1.0, -1.0):
            edge = (root**n_vals) @ c.reshape(n_vals.size, -1)
            lam, vec = linalg.eigh(edge.reshape(c.shape[1:]))
            rank = scale.decide(lambda s: int(np.sum(lam <= rank_rel * s)))
            if rank:
                break
        else:
            break
        unitary = vec.conj().T
        e_inv = blaschke.elementary_matrix(unitary, rank, 1.0 / (1.0 - root * z))
        values = e_inv.conj().transpose(0, 2, 1) @ values @ e_inv
        peeled.append((root, unitary, rank))
    return values, peeled


def _cyclic_reduction(c: np.ndarray) -> tuple[np.ndarray, int]:
    """Outer factor G_0..G_d of the strictly positive band-d weight with
    coefficients C_0..C_d (C_-n = C_n*), and the reduction steps taken.

    w = G* G reads C_n = sum_k G_k* G_(k+n). Cut the block Toeplitz
    matrices of w and G into blocks of d: that of w is block tridiagonal,
    with Q = [C_(j-i)] on the diagonal and A = [C_(d+j-i)] above it, and
    that of G block bidiagonal, with U = [G_(j-i)] and V = [G_(d+j-i)]
    (i, j < d; C_m and G_m vanish for m > d, G_m for m < 0). Matching
    blocks gives Q = U* U + V* V and A = U* V, so X = U* U solves
    X + A* X^-1 A = Q (V = U^-* A), and G outer makes X the maximal
    solution. U is block upper triangular with G_0 on its diagonal: for
    G_0 upper triangular with a positive diagonal, U is the upper
    Cholesky factor of X, whose first block row is G_0 .. G_(d-1), and
    C_d = G_0* G_d gives G_d.

    Meini's cyclic reduction halves the semi-infinite block tridiagonal
    matrix [A, Q, A*] each step and converges quadratically to X: from
    X = Q_0 = Q, A_0 = A*, B_0 = A, X <- X - A_k Q_k^-1 B_k,
    Q_(k+1) = Q_k - A_k Q_k^-1 B_k - B_k Q_k^-1 A_k, A_(k+1) = A_k Q_k^-1 A_k
    and B_(k+1) = B_k Q_k^-1 B_k, until the update to X is at most
    2^-52 ||X||_F; NoConvergence after 60 steps or on lost definiteness.
    """
    if c.shape[0] == 1:  # a constant is lifted as a band-1 weight with C_1 = 0
        c = np.concatenate([c, np.zeros_like(c)])
    d, dim = c.shape[0] - 1, c.shape[1]
    full = np.concatenate([c[:0:-1].conj().transpose(0, 2, 1), c])  # C_-d .. C_d
    i, j = np.indices((d, d))
    q = full[d + j - i].transpose(0, 2, 1, 3).reshape(d * dim, d * dim)
    a = np.where((j <= i)[:, :, None, None], full[np.minimum(2 * d + j - i, 2 * d)], 0.0)
    a = a.transpose(0, 2, 1, 3).reshape(d * dim, d * dim)
    x, q_k, a_k, b_k = q.copy(), q, a.conj().T, a
    for steps in range(1, _MAX_SWEEPS + 1):
        try:
            solved = np.linalg.solve(q_k, np.concatenate([a_k, b_k], axis=1))
        except np.linalg.LinAlgError:
            break
        qa, qb = solved[:, : d * dim], solved[:, d * dim :]
        update = a_k @ qb
        x -= update
        q_k = q_k - update - b_k @ qa
        a_k, b_k = a_k @ qa, b_k @ qb
        if np.linalg.norm(update) <= 2.0**-52 * np.linalg.norm(x):
            try:
                top = np.linalg.cholesky(0.5 * (x + x.conj().T))[:, :dim].conj().T
            except np.linalg.LinAlgError:
                break
            g = top.reshape(dim, d, dim).transpose(1, 0, 2)
            return np.concatenate([g, np.linalg.solve(g[0].conj().T, c[d])[None]]), steps
    raise NoConvergence(f"factorize: cyclic reduction did not converge in {steps} step(s)")


def _reduction_factor(n_vals, c, m_grid, scale, tol):
    """Factor of a weight from its coefficients c_n, n in n_vals = -band..band,
    band < M/4: _peel_edges on the weight resampled onto the smallest power
    of two of nodes at or above 4 (band + 1), _cyclic_reduction of the
    remainder, the edge factors put back in coefficients, one synthesis."""
    band = int(n_vals.max())
    nodes = 1 << (4 * band + 3).bit_length()
    samples = linalg.synthesize_on_grid(n_vals, c, nodes).values
    samples = 0.5 * (samples + samples.conj().transpose(0, 2, 1))
    z = np.exp(1j * linalg.midpoint_nodes(nodes))
    remainder, peeled = _peel_edges(samples, z, scale, tol.rank_rel)
    n_rem, c_rem = linalg.fourier_coefficients(BoundarySampling(remainder))
    order = min(band, _band_degree(n_rem, c_rem))
    coeffs, steps = _cyclic_reduction(c_rem[(n_rem >= 0) & (n_rem <= order)])
    for root, unitary, rank in reversed(peeled):
        edge = unitary[:rank].conj().T @ unitary[:rank]
        zero = np.zeros_like(coeffs[:1])
        coeffs = np.concatenate([coeffs, zero]) - root * np.concatenate([zero, coeffs @ edge])
    coeffs = coeffs[: band + 1]  # by Fejer-Riesz; what is cut is rounding
    boundary = linalg.synthesize_on_grid(np.arange(coeffs.shape[0]), coeffs, m_grid).values
    return coeffs, boundary, 0.0, 0.0, steps, "reduction"


def _wilson(v: np.ndarray, target: float) -> tuple[np.ndarray, int]:
    """Left factor psi psi* = v on the grid; returns (psi, sweeps).

    Starts from the Cholesky factor of the mean of v and stops once the
    residual max ||psi psi* - v|| is at most target, or after four sweeps
    without a 30% gain on the best residual; the caller checks the result.
    The stop and stall tests read Frobenius brackets (linalg.BracketedNorm),
    exact only where one straddles the threshold (the best sweep's stack
    is kept for that), and run the sweeps the exact tests run.
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


def _wilson_factor(values: np.ndarray, scale: BracketedNorm, tol: Tolerances):
    """Deflated Wilson factor of an unresolved weight on its M nodes:
    _peel_edges, then _wilson to tol.fact_rel max ||w|| / 4^k for k
    peeled factors (|E| <= 2 on the circle), and the series cut after its
    band, at most M/8; boundary is the iterate."""
    nodes = values.shape[0]
    z = np.exp(1j * linalg.midpoint_nodes(nodes))
    remainder, peeled = _peel_edges(values, z, scale, tol.rank_rel)
    target = tol.fact_rel * scale.exact()
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
    return coeffs, boundary, leak, trunc, sweeps, "wilson"


def spectral_factorize(w: BoundarySampling, tol: Tolerances = DEFAULT) -> OuterFunction:
    """Factor w = G* G with G outer and G(0) Hermitian PD.

    Positivity is decided once, by a Cholesky factor of every node's
    block (linalg.positive_definite), skipped for a weight that
    make_measure decided (BoundarySampling.positive); eigenvalues only
    word a failure.
    The scale max ||w|| is bracketed from the blocks' Frobenius norms
    (linalg.BracketedNorm) and computed exactly only where the peeling
    floor tol.rank_rel max ||w|| or the target tol.fact_rel max ||w||
    falls inside the bracket, so every decision is the exact one.
    Weights of band d < M/4 (_band_degree of the M-node FFT) take the
    cyclic reduction, to order d, unless d^3 l > 128 M, where its
    O((d l)^3) steps cost more than Wilson's sweeps (crossover
    d^3 l = 96-128 M at l = 2, 4, 8); every other weight takes Wilson's
    iteration.

    Raises NotPD for weights not finite or not positive definite at a node,
    NoConvergence when the reduction fails, the residual over the M nodes
    is above target or the series has a zero in the disk, and Singular
    when G(0) is; every message starts with "factorize:".
    """
    m_grid = w.node_count
    # a weight whose maker decided positivity (BoundarySampling.positive) is
    # Hermitian already, and needs neither a second Hermitization nor test
    values = w.values
    if not w.positive:
        # potrf admits a NaN pivot (it tests a_jj <= 0 only); make_measure's
        # weights are finite. Tested before the Hermitization, which would
        # turn an inf entry's zero imaginary part into NaN
        finite = np.isfinite(values).all(axis=(1, 2))
        if not finite.all():
            node = int(np.argmin(finite))
            raise NotPD(f"factorize: weight not finite at node {node} of {m_grid}")
        values = 0.5 * (values + values.conj().transpose(0, 2, 1))
        if not linalg.positive_definite(values):
            lam_min = float(linalg.eigvalsh(values)[:, 0].min())
            raise NotPD(f"factorize: weight not positive definite: min eig {lam_min:.1e} "
                        "at or below 0")
    scale = BracketedNorm(values, norm=linalg.max_hermitian_norm)

    n_vals, c = linalg.fourier_coefficients(BoundarySampling(values))
    band = _band_degree(n_vals, c)
    if band >= m_grid // 4 or band**3 * values.shape[1] > 128 * m_grid:
        del n_vals, c
        return _certified(_wilson_factor(values, scale, tol), values, scale, tol)
    keep = np.abs(n_vals) <= band
    n_vals, c = n_vals[keep], c[keep]
    return _certified(_reduction_factor(n_vals, c, m_grid, scale, tol), values, scale, tol)


def _certified(factor, values: np.ndarray, scale: BracketedNorm,
               tol: Tolerances) -> OuterFunction:
    """The OuterFunction of factor = (coeffs, boundary, neg_leakage,
    truncation_defect, sweeps, path) from the reduction or Wilson path,
    G(0) turned Hermitian PD by a constant unitary, once
    max ||G* G - w|| <= tol.fact_rel max ||w|| over the grid and the
    series is zero-free in the disk; NoConvergence otherwise. The caller
    hands boundary over: one stack, G* G - w, is made beside its turn."""
    coeffs, boundary, leak, trunc, sweeps, path = factor
    del factor
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
    residual = linalg.max_hermitian_norm(_gram_defect(boundary, values))
    if not scale.decide(lambda s: residual <= tol.fact_rel * s):
        raise NoConvergence(
            f"factorize: residual {residual:.1e} above target "
            f"{tol.fact_rel * scale.exact():.1e} after {sweeps} sweeps"
        )

    out = OuterFunction(coeffs, BoundarySampling(boundary), residual, leak, trunc, sweeps, path)
    _check_zero_free(out)
    return out


def _gram_defect(boundary: np.ndarray, values: np.ndarray) -> np.ndarray:
    """G* G - w node by node, in panels of about 64 KB: the result is the only stack made."""
    out = np.empty_like(boundary)
    step = max(1, linalg.PANEL_ENTRIES // boundary[0].size)
    for s in range(0, boundary.shape[0], step):
        g = boundary[s : s + step]
        np.matmul(g.conj().transpose(0, 2, 1), g, out=out[s : s + step])
        out[s : s + step] -= values[s : s + step]
    return out


def _check_zero_free(g: OuterFunction) -> None:
    radii = np.linspace(0.1, 0.95, 8)
    angles = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False))
    z = (radii[:, None] * angles[None, :]).ravel()
    vals = g.eval_interior(z)
    dets = np.abs(linalg.det(vals))
    floor = 1e-12 * abs(linalg.det(g.value_at_zero()))
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
        dets = np.abs(linalg.det(vals))
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
    zero z0 in the disk contributes -log |z0|). estimate is the
    quadrature coarse/fine difference. A zero of non-integer order keeps
    an O(M^-p) gap to the continuum factor, so the residual floor sits
    near the estimate (1.6e-5 for |2 sin t|^{3/2} at M = 2048).
    """
    mean, est = boundary_logdet_mean(g)
    det0 = abs(linalg.det(g.value_at_zero()))
    return abs(float(np.log(det0)) - mean), est


# s_function skips its SVDs while max ||A||_F max ||A^-1||_F stays below this
_INVERSE_BOUND_CAP = 1e8


def _surely_invertible(reflected: np.ndarray, inv: np.ndarray, sing_rel: float) -> bool:
    """Whether the singularity test of s_function passes, read from norms.

    With F = max ||A||_F over the blocks A and Y = max ||X||_F over their
    computed inverses X: the largest singular value is at most F, and each
    smallest one is 1 / ||A^-1||_2 >= 1 / ||A^-1||_F. Once q = F Y <= 1e8,
    the inverse's forward error (a modest multiple of l growth u kappa,
    u = 2^-53) and the SVD's backward error (of u ||A||) shift these
    bounds by less than 1e-3 relative, so the computed smallest singular
    value exceeds sing_rel times the computed largest whenever
    sing_rel q <= 0.5. False decides nothing: the exact test then runs.
    """
    q = float(linalg.frobenius_norms(reflected).max() * linalg.frobenius_norms(inv).max())
    return q <= _INVERSE_BOUND_CAP and sing_rel * q <= 0.5


def s_function(g: OuterFunction, tol: Tolerances = DEFAULT) -> BoundarySampling:
    """s(t) = G(e^{it}) G(e^{-it})^{-1} on the grid.

    For weights symmetric under t -> -t (every Szego-mapped weight is)
    the values are unitary. SingularBoundary if a reflected value is
    numerically singular: its smallest singular value at or below
    tol.sing_rel times the largest over the grid. Frobenius norms of the
    values and of the inverses s needs anyway decide a pass
    (_surely_invertible); the singular values are computed only where
    they do not, so the outcome is that of the exact test.
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
