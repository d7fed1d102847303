"""Spectral balance identity: closed forms and the two evaluation routes."""

import json

import numpy as np
import pytest

from matszego import outer, specio
from matszego.errors import NotPD, ValidationError
from matszego.measure import ArcsineDensity, SemicircleDensity, TableDensity, make_measure
from matszego.polynomials import BlockJacobi, stieltjes, to_type
from matszego.sumrule import (
    a0_partials,
    check_sum_rule,
    e0_quantity,
    weight_logdet_mean,
    z_quantity,
)

from conftest import edge_table_document, noncommuting_document

LOG2 = float(np.log(2.0))


@pytest.fixture(scope="module")
def arcsine_measure():
    return make_measure(ArcsineDensity(1), quad_order=1024, normalize="strict")


class TestClosedForms:
    def test_free_case_all_zero(self, semicircle_measure):
        z, z_est = z_quantity(semicircle_measure)
        assert abs(z) < 1e-10
        assert z_est < 1e-6
        assert e0_quantity(semicircle_measure) == 0.0

    def test_arcsine_z(self, arcsine_measure):
        z, z_est = z_quantity(arcsine_measure)
        assert z == pytest.approx(-0.5 * LOG2, abs=1e-10)

    def test_arcsine_logdet_mean_vanishes(self, arcsine_measure):
        mean, est = weight_logdet_mean(arcsine_measure)
        assert abs(mean) < 1e-12
        assert est < 1e-12

    def test_mass_case_z_and_e0(self, mass_measure):
        z, _ = z_quantity(mass_measure)
        # auto renormalization scales the density by 1/1.2
        assert z == pytest.approx(0.5 * np.log(1.2), abs=1e-9)
        assert e0_quantity(mass_measure) == pytest.approx(LOG2, abs=1e-12)

    def test_e0_multiplicity_weighting(self, shipped_measures):
        mu = shipped_measures["matrix_semicircle_mass"]
        # rank-one weight at E = 2.5: single log(2) despite dim 2
        assert e0_quantity(mu) == pytest.approx(LOG2, abs=1e-12)


class TestPartialSums:
    def test_free_partials_vanish(self, semicircle_measure):
        ledger = check_sum_rule(semicircle_measure, [1, 5, 10])
        assert float(np.max(np.abs(ledger.a0_values))) < 1e-9
        assert float(np.max(ledger.residuals)) < 1e-9

    def test_arcsine_partials_constant(self, arcsine_measure):
        ledger = check_sum_rule(arcsine_measure, [1, 4, 9])
        assert np.allclose(ledger.a0_values, -0.5 * LOG2, atol=1e-9)
        assert float(np.max(ledger.residuals)) < 1e-9
        assert ledger.a0_oscillation < 1e-10

    def test_partials_invariant_under_type_change(self, mass_sequence):
        jac1 = mass_sequence.jacobi
        jac3, _ = to_type(jac1, "type3")
        n_values = [3, 10, 25]
        p1 = a0_partials(jac1, n_values)
        p3 = a0_partials(jac3, n_values)
        assert np.allclose(p1, p3, atol=1e-10)
        assert a0_partials(jac1, [25])[0] == pytest.approx(p1[-1])

    def test_mass_case_residuals_decrease(self, mass_measure):
        ledger = check_sum_rule(mass_measure, [10, 25, 50, 100])
        # decreasing until the quadrature floor (~2e-13), jitter after
        assert np.all(np.diff(ledger.residuals) < 1e-12)
        assert ledger.residuals[0] > 1e-7  # still converging at n = 10
        assert ledger.residuals[-1] < 1e-2


class TestStageNamedErrors:
    @pytest.fixture(scope="class")
    def ringing_measure(self):
        # positive samples with a symmetric pair of spikes: the doubled
        # grid's trigonometric interpolant rings below zero between nodes
        samples = np.full((64, 1, 1), 1e-3, dtype=complex)
        samples[10] = samples[53] = 1.0
        return make_measure(TableDensity(samples), quad_order=64)

    @pytest.mark.parametrize("stage", [z_quantity, weight_logdet_mean])
    def test_logdet_names_the_grid_and_the_node(self, ringing_measure, stage):
        with pytest.raises(NotPD, match=rf"^{stage.__name__}: det w = -.* at or below 0 at "
                           r"node t = -?\d\.\d{6} of the 128-node grid$"):
            stage(ringing_measure)

    def test_a0_names_the_singular_block(self):
        a = np.array([np.eye(2), np.diag([1.0, 0.0])], dtype=complex)
        jac = BlockJacobi(a=a, b=np.zeros_like(a), norm_type="type1")
        with pytest.raises(NotPD, match=r"^a0_partials: \|det A_2\| = 0\.000e\+00 at or below 0$"):
            a0_partials(jac, [1])

    def test_a0_degree_outside_the_blocks_is_a_validation_error(self, mass_sequence):
        with pytest.raises(ValidationError, match=r"^a0_partials: partial sum needs "
                           r"1 <= n <= 101, got 102$"):
            a0_partials(mass_sequence.jacobi, [5, 102])


class TestRankDeficientMass:
    def test_rank_one_mass_leaves_no_ghost(self):
        # the shipped rank-one 2x2 mass at M = 512: a full-rank root of its
        # weight keeps rounding-size entries on the kernel, a ghost mass that
        # re-orthogonalization resolves, and the residual jumps to log 2
        w = np.array([[0.072, -0.096j], [0.096j, 0.128]])
        mu = make_measure(SemicircleDensity(2), [(2.5, w)], quad_order=512)
        seq = stieltjes(mu, 100)
        root = mu.bound_states[0].root
        amps = np.linalg.norm(root @ seq.mass_values[:, 0], axis=(1, 2))
        frozen = int(np.argmax(amps < 1e-10))
        assert 0 < frozen < 100
        assert np.all(amps[frozen:] == 0.0)
        ledger = check_sum_rule(mu, [100])
        assert ledger.residuals[-1] <= 1e-10


class TestBridge:
    def test_free_routes_agree(self, semicircle_measure):
        ledger = check_sum_rule(semicircle_measure, [5, 10])
        assert ledger.bridge_value == pytest.approx(-0.5 * LOG2, abs=1e-9)
        assert ledger.bridge_gap < 1e-9
        assert ledger.agreement

    def test_arcsine_routes_agree(self, arcsine_measure):
        ledger = check_sum_rule(arcsine_measure, [5, 10])
        assert ledger.bridge_value == pytest.approx(0.0, abs=1e-10)
        assert ledger.agreement

    def test_mass_case_routes_agree(self, mass_measure):
        ledger = check_sum_rule(mass_measure, [20, 60, 100])
        assert ledger.agreement
        assert ledger.bridge_gap <= max(
            2.0 * max(ledger.z_estimate, ledger.bridge_estimate), 1e-12
        )
        # the two balances track each other degree by degree
        assert np.allclose(ledger.bridge_values, ledger.residuals, atol=1e-9)

    def test_ledger_field_consistency(self, mass_measure):
        n_values = [4, 8, 16]
        ledger = check_sum_rule(mass_measure, n_values)
        assert ledger.n_values == (4, 8, 16)
        assert ledger.a0_values.shape == (3,)
        assert ledger.residuals.shape == (3,)
        expected = np.abs(ledger.z_value - ledger.e0_value - ledger.a0_values)
        assert np.allclose(ledger.residuals, expected, atol=1e-15)

    def test_biased_factor_is_flagged(self, mass_measure, monkeypatch):
        # a factor whose log |det G| mean is off by 1e-2 must not agree: the
        # estimate may not contain the gap it is judging
        original = outer.boundary_logdet_mean

        def biased(g):
            mean, est = original(g)
            return mean + 1e-2, est

        monkeypatch.setattr(outer, "boundary_logdet_mean", biased)
        ledger = check_sum_rule(mass_measure, [10, 20])
        assert ledger.bridge_gap == pytest.approx(1e-2, rel=1e-3)
        assert ledger.bridge_estimate < 1e-3
        assert not ledger.agreement


# non-commuting weights with zeros at the band edges, factored on the
# deflated Wilson path
EDGE_DOCUMENTS = {
    "noncommuting_2_m256": noncommuting_document(2, 256),
    "noncommuting_2_m1024": noncommuting_document(2, 1024),
    "edge_table_m256": edge_table_document(256),
}


class TestEdgeFamilies:
    @pytest.mark.parametrize("name", sorted(EDGE_DOCUMENTS))
    def test_sum_rule_holds_on_edge_zero_families(self, name):
        text = json.dumps(EDGE_DOCUMENTS[name])
        mu = specio.build_measure(specio.parse_measure_spec(text))
        ledger = check_sum_rule(mu, [20, 60, 100])
        assert ledger.agreement
        # the acceptance gate's bound on the balance residual
        assert float(np.max(ledger.residuals)) < 1e-2
