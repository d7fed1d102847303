"""End-to-end limit pipeline and its convergence verifiers."""

import numpy as np
import pytest

from matszego.errors import RadiusExceeded
from matszego.linalg import operator_norm
from matszego.measure import SemicircleDensity, make_measure
from matszego.polynomials import apply_transform, stieltjes, to_type
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

    def test_boundary_sampling_shape(self, free_limit, semicircle_measure):
        b = free_limit.boundary()
        assert b.node_count == semicircle_measure.quad_order
        assert b.dim == 1


class TestMassCase:
    def test_pipeline_certifies_kernel(self, mass_limit, mass_measure):
        # construction includes the certification; reaching here means it
        # passed, so re-derive the residue kernel and check the angle
        state = mass_measure.bound_states[0]
        residue, frame = residue_kernel(mass_limit.eval_inverse, complex(state.z))
        assert frame.shape == (1, 0)  # scalar full-rank weight: empty kernel
        assert float(operator_norm(residue)) > 1e-3

    def test_near_band_mass_rejected(self):
        mu = make_measure(
            SemicircleDensity(1),
            masses=[(2.00005, np.array([[0.05]]))],
            quad_order=256,
            normalize="auto",
        )
        with pytest.raises(RadiusExceeded):
            build_pipeline(mu)

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
