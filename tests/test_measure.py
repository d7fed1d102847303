"""Measure construction, normalization, bound states, weight sampling."""

import numpy as np
import pytest

from matszego.errors import MassOnSupport, ValidationError
from matszego.linalg import BoundarySampling, midpoint_nodes, operator_norm
from matszego.measure import (
    ArcsineDensity,
    ConjugatedDiagonalDensity,
    PolySemicircleDensity,
    SemicircleDensity,
    TableDensity,
    disk_coordinate,
    inner_product,
    make_measure,
    mass_condition_sums,
    szego_weight,
)

ID = lambda x: np.broadcast_to(np.eye(1), (np.asarray(x).size, 1, 1))
X = lambda x: np.asarray(x)[:, None, None] * np.eye(1)


def integrate(f, g, mu):
    """<<f, g>> for callables, sampled at the nodes and masses of mu."""
    x, e = mu.x_nodes, mu.mass_energies
    return inner_product(mu, f(x), f(e), g(x), g(e))


class TestConstruction:
    def test_semicircle_total_mass(self, semicircle_measure):
        total = integrate(ID, ID, semicircle_measure)
        assert float(operator_norm(total - np.eye(1))) < 1e-12

    def test_semicircle_moments(self, semicircle_measure):
        first = integrate(ID, X, semicircle_measure)
        second = integrate(X, X, semicircle_measure)
        assert abs(complex(first[0, 0])) < 1e-12
        assert complex(second[0, 0]).real == pytest.approx(1.0, abs=1e-12)

    def test_arcsine_second_moment(self):
        mu = make_measure(ArcsineDensity(1), quad_order=1024, normalize="strict")
        second = integrate(X, X, mu)
        assert complex(second[0, 0]).real == pytest.approx(2.0, abs=1e-10)

    def test_strict_mode_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            make_measure(
                SemicircleDensity(1),
                masses=[(2.5, np.array([[0.2]]))],
                quad_order=512,
                normalize="strict",
            )

    def test_auto_mode_renormalizes(self):
        mu = make_measure(
            SemicircleDensity(1),
            masses=[(2.5, np.array([[0.2]]))],
            quad_order=512,
            normalize="auto",
        )
        assert mu.normalization_defect < 1e-10
        assert mu.correction is not None
        total = integrate(ID, ID, mu)
        assert float(operator_norm(total - np.eye(1))) < 1e-10
        # scalar case rescales by total mass 1.2; the point keeps its site
        assert mu.bound_states[0].weight[0, 0] == pytest.approx(0.2 / 1.2, abs=1e-12)
        assert mu.bound_states[0].energy == 2.5

    def test_mass_on_support_rejected(self):
        with pytest.raises(MassOnSupport):
            make_measure(
                SemicircleDensity(1),
                masses=[(1.5, np.array([[0.1]]))],
                quad_order=256,
            )

    def test_duplicate_mass_rejected(self):
        with pytest.raises(ValidationError):
            make_measure(
                SemicircleDensity(1),
                masses=[(2.5, np.array([[0.1]])), (2.5, np.array([[0.1]]))],
                quad_order=256,
            )

    def test_non_hermitian_mass_rejected(self):
        with pytest.raises(ValidationError):
            make_measure(
                SemicircleDensity(2),
                masses=[(2.5, np.array([[0.1, 0.2], [0.0, 0.1]]))],
                quad_order=256,
            )

    def test_indefinite_mass_rejected(self):
        with pytest.raises(ValidationError):
            make_measure(
                SemicircleDensity(1),
                masses=[(2.5, np.array([[-0.1]]))],
                quad_order=256,
            )

    def test_weight_grid_is_symmetric_hermitian(self, shipped_measures):
        for mu in shipped_measures.values():
            v = mu.weight.values
            assert float(np.max(operator_norm(v - v.conj().transpose(0, 2, 1)))) < 1e-12


class TestDensities:
    def test_semicircle_mapped_weight(self, semicircle_measure):
        theta = semicircle_measure.weight.theta
        expected = 2.0 * np.sin(theta) ** 2
        got = semicircle_measure.weight.values[:, 0, 0].real
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_arcsine_mapped_weight(self):
        mu = make_measure(ArcsineDensity(1), quad_order=256, normalize="strict")
        assert np.max(np.abs(mu.weight.values[:, 0, 0] - 1.0)) < 1e-12

    def test_poly_semicircle_normalizes_itself(self):
        d = PolySemicircleDensity([1.0, 0.0, 0.3])
        mu = make_measure(d, quad_order=1024, normalize="strict")
        assert mu.normalization_defect < 1e-10

    def test_poly_semicircle_rejects_sign_change(self):
        with pytest.raises(ValidationError):
            PolySemicircleDensity([0.1, 0.0, -1.0])

    def test_conjugated_diagonal_structure(self):
        u = np.array([[0.6, 0.8], [-0.8, 0.6]])
        d = ConjugatedDiagonalDensity(
            [SemicircleDensity(1), ArcsineDensity(1)], unitary=u
        )
        x = np.array([0.3, -1.1])
        vals = d.evaluate(x)
        s = SemicircleDensity(1).evaluate(x)[:, 0, 0]
        a = ArcsineDensity(1).evaluate(x)[:, 0, 0]
        diag = np.zeros((2, 2, 2), dtype=complex)
        diag[:, 0, 0] = s
        diag[:, 1, 1] = a
        expected = np.einsum("ji,mjk,kl->mil", u.conj(), diag, u)
        assert float(np.max(np.abs(vals - expected))) < 1e-14

    def test_conjugated_diagonal_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            ConjugatedDiagonalDensity(
                [SemicircleDensity(1), SemicircleDensity(1)],
                unitary=np.array([[1.0, 0.0], [0.0, 2.0]]),
            )

    def test_table_round_trips_semicircle(self):
        m = 256
        theta = midpoint_nodes(m)
        samples = (2.0 / (2 * np.pi) * np.abs(np.sin(theta)))[:, None, None] * np.eye(1)
        d = TableDensity(samples)
        x = np.array([0.0, 0.7, -1.3])
        expected = SemicircleDensity(1).evaluate(x)
        # |sin t| has a kink at t = 0, pi: trig interpolation converges
        # slowly there, so compare where the interpolant is accurate
        assert float(np.max(np.abs(d.evaluate(x) - expected))) < 1e-2

    def test_table_rejects_asymmetric(self):
        m = 64
        theta = midpoint_nodes(m)
        samples = (1.0 + 0.5 * np.sin(theta))[:, None, None] * np.eye(1)
        with pytest.raises(ValidationError):
            TableDensity(samples)

    def test_table_exact_for_trig_polynomial(self):
        m = 64
        theta = midpoint_nodes(m)
        samples = (1.0 + 0.5 * np.cos(2 * theta))[:, None, None] * np.eye(1)
        d = TableDensity(samples)
        x = np.array([0.2, 1.4])
        t = np.arccos(x / 2.0)
        expected = 1.0 + 0.5 * np.cos(2 * t)
        assert np.allclose(d.evaluate(x)[:, 0, 0].real, expected, atol=1e-12)

    def test_density_rejects_points_off_band(self):
        with pytest.raises(ValidationError):
            SemicircleDensity(1).evaluate(np.array([2.5]))


class TestBoundStates:
    def test_disk_coordinate_closed_form(self):
        assert disk_coordinate(2.5) == pytest.approx(0.5)
        assert disk_coordinate(-2.5) == pytest.approx(-0.5)

    def test_disk_coordinate_inverts(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            e = float(rng.uniform(2.05, 8.0)) * (1 if rng.random() < 0.5 else -1)
            z = disk_coordinate(e)
            assert abs(z) < 1.0
            assert abs(z + 1.0 / z - e) < 1e-12

    def test_disk_coordinate_rejects_band(self):
        with pytest.raises(MassOnSupport):
            disk_coordinate(1.99)

    def test_states_sorted_by_modulus(self):
        mu = make_measure(
            SemicircleDensity(1),
            masses=[(2.1, np.array([[0.05]])), (-3.0, np.array([[0.05]])),
                    (2.5, np.array([[0.05]]))],
            quad_order=512,
            normalize="auto",
        )
        mods = [abs(s.z) for s in mu.bound_states]
        assert mods == sorted(mods)
        assert [s.energy for s in mu.bound_states][0] == -3.0

    def test_multiplicity_is_weight_rank(self):
        w = np.array([[0.1, 0.0], [0.0, 0.0]])
        mu = make_measure(
            SemicircleDensity(2), masses=[(2.5, w)], quad_order=512, normalize="auto"
        )
        assert mu.bound_states[0].multiplicity == 1

    def test_condition_sums(self, mass_measure):
        blaschke, root = mass_condition_sums(mass_measure)
        assert blaschke == pytest.approx(0.5, abs=1e-12)
        assert root == pytest.approx(np.sqrt(0.5), abs=1e-12)


class TestSzegoWeight:
    def test_refined_weight_agrees_with_family(self, semicircle_measure):
        w2 = szego_weight(semicircle_measure, refine=2)
        theta = w2.theta
        expected = 2.0 * np.sin(theta) ** 2
        assert np.max(np.abs(w2.values[:, 0, 0].real - expected)) < 1e-12
        assert w2.node_count == 2 * semicircle_measure.quad_order
