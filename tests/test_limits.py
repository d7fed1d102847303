"""End-to-end limit pipeline and its convergence verifiers."""

import dataclasses
import json

import mpmath
import numpy as np
import pytest

from matszego import outer, specio
from matszego.errors import RadiusExceeded, Singular
from matszego.linalg import BoundarySampling, max_operator_norm, operator_norm
from matszego.measure import SemicircleDensity, make_measure
from matszego.polynomials import apply_transform, eval_scaled_many, stieltjes, to_type
from matszego.tolerances import DEFAULT
from matszego.blaschke import principal_angles, residue_kernel
from matszego.limits import (
    asymptotics_report,
    build_pipeline,
    disk_grid,
    h_diagnostic,
    verify_l2,
    verify_masses,
    verify_pointwise,
)

from conftest import edge_pair_document, leading_coeff


@pytest.fixture(scope="module")
def free_limit(semicircle_measure):
    return build_pipeline(semicircle_measure)


@pytest.fixture(scope="module")
def mass_limit(mass_measure):
    return build_pipeline(mass_measure)


@pytest.fixture(scope="module")
def mass_type2(mass_sequence):
    jac2, tr = to_type(mass_sequence.jacobi, "type2")
    return jac2, apply_transform(mass_sequence, jac2, tr)


class TestDiskGrid:
    def test_contains_origin_and_respects_radius(self):
        pts = disk_grid(0.8)
        assert float(np.min(np.abs(pts))) < 1e-15  # cos(pi/2) rounds, not exact 0
        assert float(np.max(np.abs(pts))) <= 0.8 + 1e-15
        assert pts.size == 240


class TestFreeCase:
    def test_limit_closed_form(self, free_limit):
        for z in (0.0, 0.3, -0.5j, 0.6 + 0.2j):
            got = complex(free_limit.eval(z)[0, 0])
            assert abs(got - 1.0 / (1.0 - z * z)) < 1e-10

    def test_value_at_origin_hermitian_pd(self, free_limit):
        v0 = free_limit.value0
        assert float(operator_norm(v0 - v0.conj().T)) < 1e-12
        assert float(np.min(np.linalg.eigvalsh(v0))) > 0.0
        assert v0[0, 0].real == pytest.approx(1.0, abs=1e-10)

    def test_inverse_cancels(self, free_limit):
        zs = np.array([0.1, 0.4 - 0.3j, -0.7j])
        prod = free_limit.eval(zs) @ free_limit.eval_inverse(zs)
        assert float(np.max(operator_norm(prod - np.eye(1)))) < 1e-10

    def test_scaled_polynomials_approach_limit(self, free_limit, semicircle_measure):
        seq = stieltjes(semicircle_measure, 41)
        jac2, _ = to_type(seq.jacobi, "type2")
        sup, origin = verify_pointwise(free_limit, jac2, [10, 25, 40])
        assert np.all(np.diff(sup) < 0.0)
        assert sup[-1] < 1e-6
        assert origin[-1] < 1e-8


class TestMassCase:
    def test_pipeline_certifies_kernel(self, mass_limit, mass_measure):
        # construction includes the certification; reaching here means it
        # passed, so re-derive the residue kernel and check the angle
        state = mass_measure.bound_states[0]
        residue, frame = residue_kernel(mass_limit.eval_inverse, complex(state.z))
        assert frame.shape == (1, 0)  # scalar full-rank weight: empty kernel
        assert float(operator_norm(residue)) > 1e-3

    @pytest.mark.parametrize("dim", [1, 2])
    def test_near_band_mass_builds(self, dim):
        # |z| = 0.9929, past the old 0.99 series-radius cap; the 2x2 weight
        # is rank one, so its residue kernel is certified
        v = np.array([np.cos(0.3), np.exp(0.7j) * np.sin(0.3)])[:dim]
        weight = 0.05 * (np.ones((1, 1)) if dim == 1 else np.outer(v, v.conj()))
        mu = make_measure(SemicircleDensity(dim), masses=[(2.00005, weight)],
                          quad_order=256, normalize="auto")
        lim = build_pipeline(mu)
        z = mu.bound_states[0].z
        assert abs(z) == pytest.approx(0.99295, abs=1e-5)
        assert lim.kernel_angles[0] <= DEFAULT.kernel_angle
        assert abs(np.linalg.det(lim.eval(z))) < 1e-12  # B, hence L, is singular at z

    def test_matrix_mass_kernel_angle(self, shipped_measures):
        mu = shipped_measures["matrix_semicircle_mass"]
        lim = build_pipeline(mu)
        state = mu.bound_states[0]
        from matszego.blaschke import kernel_frame

        ker_w = kernel_frame(state.weight)
        _, frame = residue_kernel(lim.eval_inverse, complex(state.z))
        assert frame.shape[1] == ker_w.shape[1] == 1
        assert float(np.max(principal_angles(frame, ker_w))) < 1e-6

    def test_mass_gram_sums_decay(self, mass_type2):
        _, pseq2 = mass_type2
        norms, worst = verify_masses(pseq2, [0, 5, 10, 20, 40])
        assert worst <= 1.0 + 1e-8
        assert np.all(np.diff(norms) < 0.0)
        # geometric decay at rate |z|^2 = 1/4 per degree
        assert norms[-1] < norms[0] * 0.5**40 * 10.0

    def test_l2_residuals_shrink(self, mass_limit, mass_type2):
        _, pseq2 = mass_type2
        res = verify_l2(mass_limit, pseq2, [5, 20, 40])
        assert np.all(np.diff(res) < 0.0)
        assert res[-1] < 1e-8

    def test_pointwise_excludes_poles(self, mass_limit, mass_type2):
        jac2, _ = mass_type2
        sup, _ = verify_pointwise(mass_limit, jac2, [40], radius=0.8)
        assert sup[0] < 1e-6

    def test_polar_diagnostic_settles(self, mass_limit, mass_type2):
        jac2, _ = mass_type2
        diag = h_diagnostic(mass_limit, jac2, [10, 40, 80])
        _, origin_gap = verify_pointwise(mass_limit, jac2, [10, 40, 80])
        assert abs(diag.eta_min[-1] - 1.0) < 1e-6
        assert abs(diag.eta_max[-1] - 1.0) < 1e-6
        assert diag.logdet_abs[-1] < 1e-6
        # the gap reaches rounding level by n = 40, so allow floor jitter
        assert np.all(np.diff(diag.frame_defect) < 1e-12)
        assert np.all(np.diff(origin_gap) < 1e-12)
        assert origin_gap[-1] < 1e-8

    def test_origin_rides_with_the_disk_points(self, mass_limit, mass_type2):
        # one pass over the disk points and the origin reads, at the disk
        # points, what a pass over them alone reads, and at the origin kappa_n
        jac2, _ = mass_type2
        degrees = [0, 10, 40]
        sup, origin_gap = verify_pointwise(mass_limit, jac2, degrees)
        pts = mass_limit.disk_points(0.8)
        alone = eval_scaled_many(jac2, degrees, pts)
        want = [max_operator_norm(q - mass_limit.eval(pts)) for q in alone]
        assert sup.tobytes() == np.array(want).tobytes()
        for n, gap in zip(degrees, origin_gap):
            kappa_gap = float(operator_norm(leading_coeff(jac2, n) - mass_limit.value0))
            assert abs(gap - kappa_gap) <= 1e-12


class TestMassPairNearTheCircle:
    def test_limit_matches_the_closed_form(self):
        # masses 0.05 at +-(r + 1/r), r = 0.999: L = B / (c (1 - z^2)) with
        # c = 1.1^{-1/2} and B the scalar Blaschke product, signed so L(0) > 0
        doc = json.dumps(edge_pair_document(0.999))
        mu = specio.build_measure(specio.parse_measure_spec(doc))
        lim = build_pipeline(mu)
        with mpmath.workdps(30):
            energies = [mpmath.mpf(s.energy) for s in mu.bound_states]
            poles = [(e - mpmath.sign(e) * mpmath.sqrt(e * e - 4)) / 2 for e in energies]
            c = 1 / mpmath.sqrt(mpmath.mpf("1.1"))

            def closed_form(z):
                z = mpmath.mpc(z)
                b = mpmath.fprod((zk - z) / (1 - zk * z) for zk in poles)  # real poles
                return b / (c * (1 - z * z))

            sign = mpmath.sign(closed_form(0).real)
            for r in (0.99, 0.999, 0.9995):
                pts = r * np.exp(1j * np.pi * np.arange(1, 24, 2) / 12)
                want = np.array([complex(sign * closed_form(complex(p))) for p in pts])
                got = lim.eval(pts)[:, 0, 0]
                assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12, r


class TestReport:
    def test_report_collects_consistent_fields(self, mass_measure):
        rep = asymptotics_report(mass_measure, [5, 15, 30], radius=0.7)
        assert rep.n_values == (5, 15, 30)
        assert rep.radius == 0.7
        assert rep.pointwise_sup.shape == (3,)
        assert rep.l2_residual.shape == (3,)
        assert rep.mass_norm.shape == (3,)
        assert rep.mass_worst <= 1.0 + 1e-8
        assert rep.polar.n_values == (5, 15, 30)
        assert np.all(np.diff(rep.pointwise_sup) < 0.0)

    def test_report_radius_guard(self, mass_measure):
        with pytest.raises(RadiusExceeded):
            asymptotics_report(mass_measure, [5], radius=1.1)


class TestStageNamedErrors:
    def test_pointwise_radius_names_its_bound(self, free_limit, semicircle_measure):
        jac2, _ = to_type(stieltjes(semicircle_measure, 4).jacobi, "type2")
        with pytest.raises(RadiusExceeded,
                           match=r"^limits: pointwise verification radius 1\.1 above 0\.99$"):
            verify_pointwise(free_limit, jac2, [3], radius=1.1)

    def test_singular_frame_names_its_stage(self, monkeypatch):
        # with no masses B = I, so G(0)^-1 B(0) / sqrt 2 = diag(1, 1e14) / sqrt 2
        g0 = np.diag([1.0, 1e-14]).astype(complex)
        g = outer.OuterFunction(coeffs=g0[None], boundary=BoundarySampling(np.tile(g0, (64, 1, 1))),
                                residual=0.0, neg_leakage=0.0, truncation_defect=0.0, sweeps=0,
                                path="reduction")
        monkeypatch.setattr(outer, "spectral_factorize", lambda w, tol: g)
        mu = make_measure(SemicircleDensity(2), quad_order=64, normalize="strict")
        with pytest.raises(Singular, match=r"^limits: frame from G\(0\)\^-1 B\(0\) / sqrt 2: "
                           r"smallest singular value 7\.071e-01 at or below tol\.sing_rel x "
                           r"largest = 7\.071e\+01$"):
            build_pipeline(mu)

    def test_singular_polar_diagnostic_names_its_stage(self):
        mu = make_measure(SemicircleDensity(2), quad_order=64, normalize="strict")
        lim = build_pipeline(mu)
        singular = np.diag([1.0, 0.0]).astype(complex)[None]
        lim = dataclasses.replace(lim, outer=dataclasses.replace(lim.outer, coeffs=singular))
        jac2, _ = to_type(stieltjes(mu, 2).jacobi, "type2")
        with pytest.raises(Singular, match=r"^limits: polar diagnostic at n = 1: smallest "
                           r"singular value 0\.000e\+00 at or below tol\.sing_rel x largest = "):
            h_diagnostic(lim, jac2, [1])
