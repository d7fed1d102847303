"""Recurrence construction, normalization types, and evaluation."""

import numpy as np
import pytest

from matszego.errors import DimensionMismatch, RadiusExceeded, ValidationError
from matszego.linalg import operator_norm
from matszego.measure import (
    ArcsineDensity,
    ConjugatedDiagonalDensity,
    SemicircleDensity,
    make_measure,
)
from matszego.polynomials import (
    BlockJacobi,
    apply_transform,
    eval_scaled,
    eval_scaled_many,
    leading_coeffs,
    orthonormality_defect,
    recurrence_residual,
    stieltjes,
    to_type,
    type_defect,
)

N_SMALL = 24


@pytest.fixture(scope="module")
def semicircle_seq(semicircle_measure):
    return stieltjes(semicircle_measure, N_SMALL)


@pytest.fixture(scope="module")
def arcsine_seq():
    mu = make_measure(ArcsineDensity(1), quad_order=1024, normalize="strict")
    return stieltjes(mu, N_SMALL)


class TestScalarOracles:
    def test_semicircle_coefficients_are_free(self, semicircle_seq):
        jac = semicircle_seq.jacobi
        assert float(np.max(np.abs(jac.a - 1.0))) < 1e-10
        assert float(np.max(np.abs(jac.b))) < 1e-10

    def test_semicircle_matches_chebyshev_second_kind(self, semicircle_seq):
        theta = semicircle_seq.measure.weight.theta
        for n in (1, 5, 12):
            oracle = np.sin((n + 1) * theta) / np.sin(theta)
            got = semicircle_seq.grid_values[n][:, 0, 0].real
            assert np.max(np.abs(got - oracle)) < 1e-9

    def test_arcsine_coefficients(self, arcsine_seq):
        jac = arcsine_seq.jacobi
        assert complex(jac.a[0, 0, 0]).real == pytest.approx(np.sqrt(2.0), abs=1e-10)
        assert float(np.max(np.abs(jac.a[1:] - 1.0))) < 1e-10
        assert float(np.max(np.abs(jac.b))) < 1e-10

    def test_arcsine_matches_chebyshev_first_kind(self, arcsine_seq):
        theta = arcsine_seq.measure.weight.theta
        for n in (1, 4, 9):
            oracle = np.sqrt(2.0) * np.cos(n * theta)
            got = arcsine_seq.grid_values[n][:, 0, 0].real
            assert np.max(np.abs(got - oracle)) < 1e-9

    def test_orthonormality_and_recurrence(self, semicircle_seq):
        assert orthonormality_defect(semicircle_seq, 12) < 1e-10
        assert recurrence_residual(semicircle_seq) < 1e-9

    def test_mass_case_orthonormal(self, mass_sequence):
        assert orthonormality_defect(mass_sequence, 30) < 1e-8

    def test_mass_values_stay_bounded(self, mass_sequence):
        w = mass_sequence.measure.bound_states[0].weight
        root = np.sqrt(w[0, 0].real)
        amps = root * np.abs(mass_sequence.mass_values[:, 0, 0, 0])
        assert float(amps.max()) <= 1.0 + 1e-8


@pytest.fixture(scope="module")
def matrix_seq(shipped_measures):
    return stieltjes(shipped_measures["matrix_conjugated"], N_SMALL)


class TestNormalizationTypes:
    def test_stieltjes_output_is_type1(self, matrix_seq):
        assert matrix_seq.jacobi.norm_type == "type1"
        assert type_defect(matrix_seq.jacobi) < 1e-9

    @pytest.mark.parametrize("target", ["type1", "type2", "type3"])
    def test_conversion_reaches_target(self, matrix_seq, target):
        jac, transform = to_type(matrix_seq.jacobi, target)
        assert jac.norm_type == target
        assert type_defect(jac) < 1e-9
        sig = transform.sigma
        eye = np.eye(jac.dim)
        defect = max(
            float(operator_norm(s.conj().T @ s - eye)) for s in sig
        )
        assert defect < 1e-12
        assert float(operator_norm(sig[0] - eye)) == 0.0

    def test_transforms_preserve_orthonormality(self, matrix_seq):
        jac2, tr = to_type(matrix_seq.jacobi, "type2")
        seq2 = apply_transform(matrix_seq, jac2, tr)
        assert orthonormality_defect(seq2, 10) < 1e-9
        assert recurrence_residual(seq2) < 1e-8

    def test_round_trip_returns_same_blocks(self, matrix_seq):
        # type1 -> type3 -> back to type1 must reproduce the blocks:
        # the type-1 representative of an equivalence class is unique
        jac3, _ = to_type(matrix_seq.jacobi, "type3")
        jac1, _ = to_type(jac3, "type1")
        assert float(np.max(operator_norm(jac1.a - matrix_seq.jacobi.a))) < 1e-8
        assert float(np.max(operator_norm(jac1.b - matrix_seq.jacobi.b))) < 1e-8

    def test_pointwise_covariance(self, matrix_seq):
        jac3, tr = to_type(matrix_seq.jacobi, "type3")
        seq3 = apply_transform(matrix_seq, jac3, tr)
        for n in (0, 3, 7):
            expected = matrix_seq.grid_values[n] @ tr.sigma[n]
            assert float(np.max(operator_norm(seq3.grid_values[n] - expected))) < 1e-10

    def test_rejects_unknown_target(self, matrix_seq):
        with pytest.raises(ValidationError):
            to_type(matrix_seq.jacobi, "type4")


class TestCovariance:
    def test_block_diagonal_direct_sum(self):
        n = 12
        order = 512
        scalar_s = stieltjes(
            make_measure(SemicircleDensity(1), quad_order=order, normalize="strict"), n
        ).jacobi
        scalar_a = stieltjes(
            make_measure(ArcsineDensity(1), quad_order=order, normalize="strict"), n
        ).jacobi
        pair = ConjugatedDiagonalDensity([SemicircleDensity(1), ArcsineDensity(1)])
        joint = stieltjes(
            make_measure(pair, quad_order=order, normalize="strict"), n
        ).jacobi
        for k in range(n):
            gap_a = max(
                abs(joint.a[k, 0, 0] - scalar_s.a[k, 0, 0]),
                abs(joint.a[k, 1, 1] - scalar_a.a[k, 0, 0]),
                abs(joint.a[k, 0, 1]),
                abs(joint.a[k, 1, 0]),
            )
            gap_b = max(
                abs(joint.b[k, 0, 0] - scalar_s.b[k, 0, 0]),
                abs(joint.b[k, 1, 1] - scalar_a.b[k, 0, 0]),
                abs(joint.b[k, 0, 1]),
                abs(joint.b[k, 1, 0]),
            )
            assert gap_a < 1e-8
            assert gap_b < 1e-8

    def test_constant_conjugation_covariance(self):
        n = 10
        order = 512
        u = np.array([[0.6, 0.8], [-0.8, 0.6]])
        base = ConjugatedDiagonalDensity([SemicircleDensity(1), ArcsineDensity(1)])
        conj = ConjugatedDiagonalDensity(
            [SemicircleDensity(1), ArcsineDensity(1)], unitary=u
        )
        jac = stieltjes(make_measure(base, quad_order=order, normalize="strict"), n).jacobi
        jac_u = stieltjes(make_measure(conj, quad_order=order, normalize="strict"), n).jacobi
        for k in range(n):
            assert float(operator_norm(jac_u.a[k] - u.conj().T @ jac.a[k] @ u)) < 1e-8
            assert float(operator_norm(jac_u.b[k] - u.conj().T @ jac.b[k] @ u)) < 1e-8


class TestEvaluation:
    def test_leading_coeffs_inverse_products(self, arcsine_seq):
        jac = arcsine_seq.jacobi
        kappas = leading_coeffs(jac, 5)
        assert kappas[0][0, 0] == pytest.approx(1.0)
        for n in range(1, 6):
            assert complex(kappas[n][0, 0]).real == pytest.approx(
                1.0 / np.sqrt(2.0), abs=1e-10
            )
        assert np.allclose(leading_coeffs(jac, 4)[4], kappas[4])

    def test_eval_scaled_closed_form(self, semicircle_seq):
        # z^n U_n(cos) telescopes to (1 - z^{2n+2}) / (1 - z^2)
        z = 0.4 + 0.3j
        for n in (3, 8):
            oracle = (1.0 - z ** (2 * n + 2)) / (1.0 - z * z)
            got = complex(eval_scaled(semicircle_seq.jacobi, n, z)[0, 0])
            assert abs(got - oracle) < 1e-12

    def test_eval_scaled_origin_is_leading_coeff(self, arcsine_seq):
        jac = arcsine_seq.jacobi
        for n in (0, 1, 6):
            got = eval_scaled(jac, n, 0.0)
            assert np.allclose(got, leading_coeffs(jac, n)[n], atol=1e-12)

    def test_eval_scaled_many_batches(self, semicircle_seq):
        zs = np.array([0.1, 0.5j, -0.3 + 0.2j])
        batch = eval_scaled_many(semicircle_seq.jacobi, [2, 7], zs)
        assert batch.shape == (2, 3, 1, 1)
        for i, n in enumerate((2, 7)):
            for j, z in enumerate(zs):
                single = eval_scaled(semicircle_seq.jacobi, n, complex(z))
                assert np.allclose(batch[i, j], single, atol=1e-13)

    def test_eval_scaled_rejects_outside_disk(self, semicircle_seq):
        with pytest.raises(RadiusExceeded):
            eval_scaled(semicircle_seq.jacobi, 3, 1.5)

    def test_eval_needs_enough_blocks(self, semicircle_seq):
        with pytest.raises(DimensionMismatch):
            eval_scaled_many(semicircle_seq.jacobi, [2, N_SMALL + 1], np.array([0.3 + 0.1j]))

    def test_jacobi_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            BlockJacobi(a=np.zeros((3, 2, 2)), b=np.zeros((2, 2, 2)), norm_type="type1")
        with pytest.raises(ValidationError):
            BlockJacobi(a=np.zeros((2, 1, 1)), b=np.zeros((2, 1, 1)), norm_type="weird")
        with pytest.raises(ValidationError):
            BlockJacobi(a=np.zeros((2, 1, 1)), b=np.zeros((2, 1, 1)), norm_type="other")
