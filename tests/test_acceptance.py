"""Acceptance gate: nine end-to-end criteria, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines; each test prints exactly one `criterion N: PASS/FAIL` line and
fails the assertion with the same text. Stated tolerances are asserted
as written; slack beyond double-precision rounding is never added.
"""

import time

import numpy as np

from matszego.linalg import (
    BoundarySampling,
    fourier_coefficients,
    gram_mean,
    midpoint_nodes,
    norm_l2_1,
    norm_l2_2,
    operator_norm,
    principal_sqrt,
)
from matszego.measure import TableDensity, make_measure
from matszego.polynomials import apply_transform, stieltjes, to_type
from matszego.outer import det_szego_check, spectral_factorize
from matszego.blaschke import (
    construct_product,
    kernel_frame,
    principal_angles,
    residue_kernel,
    unitary_completion,
)
from matszego.limits import build_pipeline, disk_grid, h_diagnostic, verify_masses
from matszego.sumrule import check_sum_rule

from conftest import SHIPPED, haar_frames, random_smooth_weight


def _verdict(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_free_case_uniform_asymptotics(shipped_measures):
    start = time.perf_counter()
    mu = shipped_measures["free_semicircle"]
    n = 60
    seq = stieltjes(mu, n)
    jac2, _ = to_type(seq.jacobi, "type2")
    # difference of two disk-analytic functions: sup over |z| <= 0.8 is
    # attained on the rim, but sample the interior grid as well
    rim = 0.8 * np.exp(2j * np.pi * np.arange(512) / 512)
    pts = np.concatenate([disk_grid(0.8), rim])
    from matszego.polynomials import eval_scaled_many

    q = eval_scaled_many(jac2, [n], pts)[0][:, 0, 0]
    oracle = 1.0 / (1.0 - pts * pts)
    sup = float(np.max(np.abs(q - oracle)))
    elapsed = time.perf_counter() - start
    ok = sup < 1e-6 and elapsed < 30.0
    _verdict(
        1,
        ok,
        f"free-case sup |q_60 - (1-z^2)^-1| = {sup:.3e} on |z| <= 0.8 "
        f"(bound 1e-6), {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_2_factorization_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_res = worst_det = worst_leak = 0.0
    min_eig = np.inf
    worst_herm = 0.0
    for _ in range(20):
        w = BoundarySampling(random_smooth_weight(rng, 2, 256))
        g = spectral_factorize(w)
        vals = g.boundary.values
        recon = vals.conj().transpose(0, 2, 1) @ vals
        worst_res = max(worst_res, float(np.max(operator_norm(recon - w.values))))
        worst_det = max(worst_det, det_szego_check(g)[0])
        worst_leak = max(worst_leak, g.neg_leakage)
        g0 = g.value_at_zero()
        worst_herm = max(worst_herm, float(operator_norm(g0 - g0.conj().T)))
        min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(g0))))
    elapsed = time.perf_counter() - start
    ok = (
        worst_res < 1e-8
        and worst_det < 1e-6
        and worst_leak < 1e-8
        and worst_herm < 1e-10
        and min_eig > 0.0
        and elapsed < 120.0
    )
    _verdict(
        2,
        ok,
        f"20 random PD 2x2 weights: max ||G*G-w|| = {worst_res:.3e} (1e-8), "
        f"max det residual = {worst_det:.3e} (1e-6), max neg leakage = "
        f"{worst_leak:.3e} (1e-8), G(0) HPD (min eig {min_eig:.3f}), "
        f"{elapsed:.1f}s (budget 120s)",
    )


def test_criterion_3_product_suite():
    rng = np.random.default_rng(4096)
    circle = np.exp(2j * np.pi * np.arange(128) / 128)
    probes = 0.75 * np.exp(2j * np.pi * np.arange(8) / 8) * np.array(
        [1, 0.3, 0.8, 0.5, 0.9, 0.2, 0.6, 0.4]
    )
    worst_unitary = worst_angle = worst_invariance = 0.0
    for trial in range(50):
        dim = int(rng.integers(2, 4))
        count = int(rng.integers(1, 11))
        poles: list[complex] = []
        while len(poles) < count:
            z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            if 0.15 < abs(z) < 0.9 and all(abs(z - p) > 0.05 for p in poles):
                poles.append(z)
        states = []
        for z in poles:
            d = int(rng.integers(0, dim + 1))
            v = rng.standard_normal((dim, d)) + 1j * rng.standard_normal((dim, d))
            states.append((z, v))
        prod = construct_product(states, dim)
        on_circle = prod.eval(circle)
        eye = np.eye(dim)
        worst_unitary = max(
            worst_unitary,
            float(np.max(operator_norm(
                on_circle.conj().swapaxes(-1, -2) @ on_circle - eye
            ))),
        )
        for z, v in states:
            d = np.asarray(v).shape[1]
            if d == 0 or d == dim:
                continue
            target = unitary_completion(np.asarray(v, dtype=complex))[:, :d]
            val = prod.eval(complex(z))
            u = np.linalg.svd(val)[0][:, :d]
            worst_angle = max(worst_angle, float(np.max(principal_angles(u, target))))
        scrambled = construct_product(haar_frames(states, np.random.default_rng(trial)), dim)
        pts = probes[np.abs(probes[:, None] - np.array(poles)[None, :]).min(axis=1) > 0.05]
        worst_invariance = max(
            worst_invariance,
            float(np.max(operator_norm(prod.eval(pts) - scrambled.eval(pts)))),
        )
    ok = worst_unitary < 1e-10 and worst_angle < 1e-6 and worst_invariance < 1e-10
    _verdict(
        3,
        ok,
        f"50 random pole/subspace products: max boundary unitarity defect = "
        f"{worst_unitary:.3e} (1e-10), max range angle = {worst_angle:.3e} "
        f"(1e-6), max frame-choice gap = {worst_invariance:.3e} (1e-10)",
    )


def test_criterion_4_residue_kernel_condition(shipped_measures):
    mu = shipped_measures["matrix_semicircle_mass"]
    state = mu.bound_states[0]
    lim = build_pipeline(mu)  # raises KernelMismatch on certification failure
    _, res_frame = residue_kernel(lim.eval_inverse, complex(state.z))
    ker_w = kernel_frame(state.weight)
    angles = principal_angles(res_frame, ker_w)
    worst = float(angles.max()) if angles.size else 0.0
    ok = res_frame.shape[1] == ker_w.shape[1] and worst < 1e-6
    _verdict(
        4,
        ok,
        f"rank-one mass at E = 2.5 (|z| = {abs(state.z):.2f}): "
        f"ker(res L^-1) vs ker(w) angle = {worst:.3e} (bound 1e-6), "
        f"dims {res_frame.shape[1]} = {ker_w.shape[1]}",
    )


def test_criterion_5_balance_identities(shipped_measures):
    log2 = float(np.log(2.0))
    free = check_sum_rule(shipped_measures["free_semicircle"], [5, 10])
    free_gap = max(
        abs(free.z_value), abs(free.e0_value),
        float(np.max(np.abs(free.a0_values))), float(np.max(free.residuals)),
    )
    arc = check_sum_rule(shipped_measures["arcsine"], [5, 10])
    arc_gap = max(
        abs(arc.z_value + 0.5 * log2),
        float(np.max(np.abs(arc.a0_values + 0.5 * log2))),
        float(np.max(arc.residuals)),
    )
    mass = check_sum_rule(shipped_measures["semicircle_mass"], [10, 25, 50, 100])
    closed_gap = max(
        abs(mass.z_value - 0.5 * np.log(1.2)), abs(mass.e0_value - log2)
    )
    decreasing = bool(np.all(np.diff(mass.residuals) < 1e-12))  # floor jitter
    ok = (
        free_gap < 1e-6
        and arc_gap < 1e-6
        and closed_gap < 1e-9
        and decreasing
        and mass.residuals[-1] < 1e-2
        and free.agreement and arc.agreement and mass.agreement
    )
    _verdict(
        5,
        ok,
        f"free balance gap = {free_gap:.3e}, arcsine gap = {arc_gap:.3e} "
        f"(both 1e-6); mass case decreasing residuals ending at "
        f"{mass.residuals[-1]:.3e} (1e-2); factor-route agreement "
        f"{free.agreement}/{arc.agreement}/{mass.agreement}",
    )


def test_criterion_6_polar_diagnostics(shipped_measures):
    worst_eta = worst_logdet = 0.0
    defects_ok = True
    for name in SHIPPED:
        mu = shipped_measures[name]
        lim = build_pipeline(mu)
        seq = stieltjes(mu, 101)
        jac2, _ = to_type(seq.jacobi, "type2")
        diag = h_diagnostic(lim, jac2, [20, 60, 100])
        worst_eta = max(
            worst_eta, abs(diag.eta_min[-1] - 1.0), abs(diag.eta_max[-1] - 1.0)
        )
        worst_logdet = max(worst_logdet, float(diag.logdet_abs[-1]))
        # non-increasing within rounding floor (shipped families keep the
        # unitary part pinned, so the defect lives at ~1e-15 throughout)
        defects_ok = defects_ok and bool(np.all(np.diff(diag.frame_defect) < 1e-12))
    ok = worst_eta < 1e-3 and worst_logdet < 1e-3 and defects_ok
    _verdict(
        6,
        ok,
        f"5 shipped measures at n = 100: max |eta - 1| = {worst_eta:.3e} "
        f"(1e-3), max |log det H| = {worst_logdet:.3e} (1e-3), unitary "
        f"defect non-increasing: {defects_ok}",
    )


def test_criterion_7_mass_decay(mass_measure, mass_sequence):
    jac2, tr = to_type(mass_sequence.jacobi, "type2")
    pseq2 = apply_transform(mass_sequence, jac2, tr)
    all_n = list(range(101))
    norms, _ = verify_masses(pseq2, all_n)
    # decay rate: fit degrees 1..16, past the constant-term transient and
    # before the stored point values hit the freeze floor
    window = np.arange(1, 17)
    slope = float(np.polyfit(window, np.log(norms[window]), 1)[0])
    target = 2.0 * np.log(abs(mass_measure.bound_states[0].z))
    rel = abs(slope - target) / abs(target)
    # pointwise bound at every degree and every state
    worst_amp = 0.0
    for k, state in enumerate(mass_measure.bound_states):
        root = principal_sqrt(state.weight)
        amps = operator_norm(root @ pseq2.mass_values[:, k])
        worst_amp = max(worst_amp, float(np.max(amps)))
    ok = rel < 0.2 and worst_amp <= 1.0 + 1e-6
    _verdict(
        7,
        ok,
        f"point-spectrum decay slope {slope:.4f} vs 2 log|z| = {target:.4f} "
        f"(relative gap {rel:.1%}, bound 20%); max ||w^1/2 p_n(E)|| = "
        f"{worst_amp:.6f} (bound 1 + 1e-6)",
    )


def test_criterion_8_norm_inequality_suite():
    rng = np.random.default_rng(8)
    m_grid = 32
    theta = midpoint_nodes(m_grid)
    slack = 1e-12
    failures = 0
    worst_margin = np.inf
    for trial in range(1000):
        dim = 1 + trial % 4
        f_vals = rng.standard_normal((m_grid, dim, dim)) + 1j * rng.standard_normal(
            (m_grid, dim, dim)
        )
        g_vals = rng.standard_normal((m_grid, dim, dim)) + 1j * rng.standard_normal(
            (m_grid, dim, dim)
        )
        f = BoundarySampling(f_vals)
        g = BoundarySampling(g_vals)
        n1, n2 = norm_l2_1(f), norm_l2_2(f)
        ok_a = (n2 <= n1 + slack) and (n1 <= np.sqrt(dim) * n2 + slack)
        lhs = float(operator_norm(gram_mean(f, g)))
        ok_b = lhs <= dim * n2 * norm_l2_2(g) + slack
        worst_margin = min(worst_margin, n1 + slack - n2,
                           np.sqrt(dim) * n2 + slack - n1,
                           dim * n2 * norm_l2_2(g) + slack - lhs)
        # smooth sampling for the coefficient-decay clause
        smooth = np.zeros((m_grid, dim, dim), dtype=complex)
        for k in range(m_grid // 4 + 1):
            c = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            smooth += (np.cos(k * theta) / (1.0 + k) ** 3)[:, None, None] * c
        n_vals, coeffs = fourier_coefficients(BoundarySampling(smooth))
        span = np.arange(m_grid // 4 + 1)
        mags = np.array([
            float(operator_norm(coeffs[np.flatnonzero(n_vals == n)[0]])) for n in span
        ])
        envelope = np.array([mags[k:].max() for k in span])
        ok_c = bool(np.all(np.diff(envelope) <= slack)) and envelope[-1] < envelope[0]
        if not (ok_a and ok_b and ok_c):
            failures += 1
    ok = failures == 0
    _verdict(
        8,
        ok,
        f"1000 randomized trials (dims 1-4, 32 nodes): {failures} failures "
        f"of the two-norm sandwich, the Gram bound, or coefficient decay "
        f"(slack 1e-12, min margin {worst_margin:.3e})",
    )


def test_criterion_9_covariance_suite():
    m_grid = 1024
    theta = midpoint_nodes(m_grid)
    f_sc = np.abs(np.sin(theta)) / np.pi
    f_arc = 1.0 / (2.0 * np.pi * np.abs(np.sin(theta)))
    mass = 0.25
    base_vals = np.zeros((m_grid, 2, 2), dtype=complex)
    base_vals[:, 0, 0] = (1 - mass) * f_sc
    base_vals[:, 1, 1] = f_arc
    w_base = np.zeros((2, 2), dtype=complex)
    w_base[0, 0] = mass
    n = 20

    def build(vals, w):
        return make_measure(
            TableDensity(vals), masses=[(2.5, w)],
            quad_order=m_grid, normalize="strict",
        )

    mu = build(base_vals, w_base)
    jac = stieltjes(mu, n).jacobi
    g = spectral_factorize(mu.weight)
    lim = build_pipeline(mu)
    pts = disk_grid(0.8)
    pts = pts[np.abs(pts - 0.5) > 1e-6]
    l_vals = lim.eval(pts)
    gram = g.boundary.values.conj().transpose(0, 2, 1) @ g.boundary.values

    rng = np.random.default_rng(77)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    u = np.linalg.qr(x)[0]
    mu_u = build(
        np.einsum("ji,mjk,kl->mil", u.conj(), base_vals, u),
        u.conj().T @ w_base @ u,
    )
    jac_u = stieltjes(mu_u, n).jacobi
    g_u = spectral_factorize(mu_u.weight)
    lim_u = build_pipeline(mu_u)

    conj_gap = 0.0
    for k in range(n):
        conj_gap = max(
            conj_gap,
            float(operator_norm(jac_u.a[k] - u.conj().T @ jac.a[k] @ u)),
            float(operator_norm(jac_u.b[k] - u.conj().T @ jac.b[k] @ u)),
        )
    gram_u = g_u.boundary.values.conj().transpose(0, 2, 1) @ g_u.boundary.values
    conj_gap = max(conj_gap, float(np.max(operator_norm(
        gram_u - np.einsum("ji,mjk,kl->mil", u.conj(), gram, u)
    ))))
    conj_gap = max(conj_gap, float(np.max(operator_norm(
        lim_u.eval(pts) - np.einsum("ji,mjk,kl->mil", u.conj(), l_vals, u)
    ))))

    # block-diagonal measure against two scalar runs
    mu1 = build(((1 - mass) * f_sc)[:, None, None].astype(complex),
                np.array([[mass]], dtype=complex))
    mu2 = make_measure(
        TableDensity(f_arc[:, None, None].astype(complex)),
        quad_order=m_grid, normalize="strict",
    )
    jac1 = stieltjes(mu1, n).jacobi
    jac2 = stieltjes(mu2, n).jacobi
    sum_gap = 0.0
    for k in range(n):
        sum_gap = max(
            sum_gap,
            abs(jac.a[k, 0, 0] - jac1.a[k, 0, 0]),
            abs(jac.a[k, 1, 1] - jac2.a[k, 0, 0]),
            abs(jac.a[k, 0, 1]), abs(jac.a[k, 1, 0]),
            abs(jac.b[k, 0, 0] - jac1.b[k, 0, 0]),
            abs(jac.b[k, 1, 1] - jac2.b[k, 0, 0]),
            abs(jac.b[k, 0, 1]), abs(jac.b[k, 1, 0]),
        )
    lim1 = build_pipeline(mu1)
    lim2 = build_pipeline(mu2)
    v1 = lim1.eval(pts)[:, 0, 0]
    v2 = lim2.eval(pts)[:, 0, 0]
    vj = lim.eval(pts)
    sum_gap = max(
        sum_gap,
        float(np.max(np.abs(vj[:, 0, 0] - v1))),
        float(np.max(np.abs(vj[:, 1, 1] - v2))),
        float(np.max(np.abs(vj[:, 0, 1]))),
        float(np.max(np.abs(vj[:, 1, 0]))),
    )
    ok = conj_gap < 1e-7 and sum_gap < 1e-8
    _verdict(
        9,
        ok,
        f"conjugation equivariance of recurrence/factor/limit = "
        f"{conj_gap:.3e} (1e-7); block-diagonal vs scalar runs = "
        f"{sum_gap:.3e} (1e-8)",
    )
