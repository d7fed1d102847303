"""Spectral factorization of boundary weights and its diagnostics."""

import contextlib
import dataclasses
import io
import json
import warnings

import numpy as np
import pytest

from matszego import linalg, outer, specio
from matszego.blaschke import elementary_matrix
from matszego.cli import main
from matszego.errors import NoConvergence, NotPD, RadiusExceeded, Singular, SingularBoundary
from matszego.linalg import BoundarySampling, max_operator_norm, midpoint_nodes, operator_norm
from matszego.measure import szego_weight
from matszego.outer import (
    OuterFunction,
    boundary_logdet_mean,
    det_szego_check,
    s_function,
    spectral_factorize,
)
from matszego.tolerances import DEFAULT

from conftest import (
    SHIPPED,
    SPECS_DIR,
    edge_table_document,
    near_zero_document,
    noncommuting_document,
    random_smooth_weight,
    semicircle_document,
    table_document,
)


@pytest.fixture(scope="module")
def semicircle_factor(semicircle_measure):
    return spectral_factorize(szego_weight(semicircle_measure))


class TestClosedForms:
    def test_semicircle_coefficients(self, semicircle_factor):
        g = semicircle_factor
        c = g.coeffs[:, 0, 0]
        inv_root2 = 1.0 / np.sqrt(2.0)
        assert abs(c[0] - inv_root2) < 1e-10
        assert abs(c[1]) < 1e-10
        assert abs(c[2] + inv_root2) < 1e-10
        if c.size > 3:
            assert float(np.max(np.abs(c[3:]))) < 1e-10
        assert g.residual < 1e-10
        assert g.neg_leakage < 1e-10

    def test_semicircle_uses_cyclic_reduction(self, semicircle_factor):
        assert (semicircle_factor.path, semicircle_factor.sweeps) == ("reduction", 1)

    def test_arcsine_factor_is_identity(self, shipped_measures):
        g = spectral_factorize(szego_weight(shipped_measures["arcsine"]))
        assert abs(g.coeffs[0, 0, 0] - 1.0) < 1e-12
        if g.coeffs.shape[0] > 1:
            assert float(np.max(np.abs(g.coeffs[1:]))) < 1e-12

    def test_value_at_zero_hermitian_pd(self, semicircle_factor):
        g0 = semicircle_factor.value_at_zero()
        assert float(operator_norm(g0 - g0.conj().T)) < 1e-12
        assert float(np.min(np.linalg.eigvalsh(g0))) > 0.0

    def test_conjugated_pair_factors_exactly(self, shipped_measures):
        mu = shipped_measures["matrix_conjugated"]
        w = szego_weight(mu)
        g = spectral_factorize(w)
        assert (g.path, g.sweeps, g.order) == DECISIONS["matrix_conjugated"][:3]
        vals = g.boundary.values
        recon = vals.conj().transpose(0, 2, 1) @ vals
        assert float(np.max(operator_norm(recon - w.values))) < 1e-10
        g0 = g.value_at_zero()
        assert float(operator_norm(g0 - g0.conj().T)) < 1e-12
        eigs = np.linalg.eigvalsh(g0)
        # one semicircle channel (1/sqrt 2) and one arcsine channel (1)
        assert eigs[0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-10)
        assert eigs[1] == pytest.approx(1.0, abs=1e-10)

    def test_shipped_weights_use_cyclic_reduction(self, shipped_measures):
        for name in SHIPPED:
            g = spectral_factorize(szego_weight(shipped_measures[name]))
            assert (g.path, g.sweeps, g.order) == DECISIONS[name][:3], name

    def test_unresolved_channel_skips_the_reduction(self, monkeypatch):
        # |2 sin t|^{3/2} is no trig polynomial: its significant degree
        # reaches M/4, so it never reaches the cyclic reduction
        def refuse(c):
            raise AssertionError("cyclic reduction called on an unresolved channel")

        monkeypatch.setattr(outer, "_cyclic_reduction", refuse)
        theta = midpoint_nodes(2048)
        w = BoundarySampling(np.abs(2.0 * np.sin(theta))[:, None, None] ** 1.5)
        g = spectral_factorize(w)
        assert g.path == "wilson"
        assert g.residual <= DEFAULT.fact_rel * max_operator_norm(w.values)
        # the coefficients never fall below the band threshold, so the
        # series stops at M/8, with the O(M^-p) gaps of a fractional zero
        assert g.order == 256
        assert g.truncation_defect == pytest.approx(2.5273430661689575e-3, rel=1e-9)
        residual, _ = det_szego_check(g)
        assert residual == pytest.approx(1.588450684684268e-5, rel=1e-9)

    @pytest.mark.parametrize("coefficients", [
        [1.01, -2.0, 1.0],  # (x - 1)^2 + 0.01
        [1.1, -2.0, 1.0],  # (x - 1)^2 + 0.1
        [3.611, -3.8, 1.0],  # (x - 1.9)^2 + 1e-3
        [1.05, 0.0, -2.0, 0.0, 1.0],  # (x^2 - 1)^2 + 0.05
    ])
    def test_near_band_zeros_factor_exactly_on_every_grid(self, coefficients):
        # q(x) semicircle with q nearly vanishing on the band: the cyclic
        # reduction gives the same G(0) on every grid, which grid Wilson
        # iteration only reaches to 3e-10 .. 5e-9 on these weights
        g0 = []
        for m_grid in (256, 1024, 4096):
            doc = {"dim": 1, "quad_order": m_grid,
                   "density": {"family": "poly_semicircle", "coefficients": coefficients}}
            w = szego_weight(specio.build_measure(specio.parse_measure_spec(json.dumps(doc))))
            g = spectral_factorize(w)
            assert (g.path, g.order) == ("reduction", len(coefficients) + 1), m_grid
            assert g.residual <= 1e-13 * max_operator_norm(w.values), m_grid
            g0.append(g.value_at_zero()[0, 0].real)
        assert max(g0) - min(g0) <= 1e-12


def companion_radius(coeffs: np.ndarray) -> float:
    """Largest |eigenvalue| of the block companion matrix of the reversed
    polynomial z^K G(1/z): the reciprocals of the zeros of det G, so at
    most 1 exactly when G has no zero in the open disk."""
    order, dim = coeffs.shape[0] - 1, coeffs.shape[1]
    comp = np.zeros((order * dim, order * dim), dtype=complex)
    comp[:dim] = -np.linalg.solve(coeffs[0], coeffs[1:].transpose(1, 0, 2).reshape(dim, -1))
    comp[dim:, :-dim] = np.eye((order - 1) * dim)
    return float(np.max(np.abs(np.linalg.eigvals(comp))))


class TestRandomWeights:
    def test_random_pd_weights_factor(self):
        rng = np.random.default_rng(101)
        for trial in range(3):
            w = BoundarySampling(random_smooth_weight(rng, 2, 256))
            g = spectral_factorize(w)
            vals = g.boundary.values
            recon = vals.conj().transpose(0, 2, 1) @ vals
            assert float(np.max(operator_norm(recon - w.values))) < 1e-8
            g0 = g.value_at_zero()
            assert float(operator_norm(g0 - g0.conj().T)) < 1e-10
            assert float(np.min(np.linalg.eigvalsh(g0))) > 0.0
            assert g.neg_leakage < 1e-8

    def test_resolved_weight_sweep(self):
        # 150 band weights, strictly positive at the nodes: each that
        # factors does so by cyclic reduction, to a factor of order equal to
        # the band (matrix Fejer-Riesz) that passes the residual gate and
        # is outer. Draws 1, 85 and 97 dip below zero between the nodes
        # (by 1.1e-4, 1.2e-4 and 5.4e-5 on 16 M nodes), so no outer factor
        # exists; they are the only refusals allowed.
        rng = np.random.default_rng(20261019)
        refused = []
        for draw in range(150):
            dim, m_grid = int(rng.integers(2, 5)), int(rng.choice([256, 1024, 2048]))
            band, floor = int(rng.integers(1, 8)), float(10 ** rng.uniform(-4, 0))
            w = random_smooth_weight(rng, dim, m_grid, band, floor)
            try:
                g = spectral_factorize(BoundarySampling(w))
            except NoConvergence:
                refused.append(draw)
                continue
            assert (g.path, g.order) == ("reduction", band), draw
            assert g.residual <= DEFAULT.fact_rel * np.max(np.abs(np.linalg.eigvalsh(w))), draw
            assert companion_radius(g.coeffs) <= 1.0, draw
        assert set(refused) <= {1, 85, 97}

    def test_interior_evaluation_radius_guard(self, semicircle_factor):
        # the factor is (1 - z^2) / sqrt 2 on the whole closed disk
        assert abs(semicircle_factor.eval_interior(0.9995j)[0, 0]
                   - (1.0 + 0.9995**2) / np.sqrt(2.0)) < 1e-12
        assert abs(semicircle_factor.eval_interior(1.0)[0, 0]) < 1e-12
        with pytest.raises(RadiusExceeded):
            semicircle_factor.eval_interior(1.5)

    def test_interior_radius_names_its_stage(self, semicircle_factor):
        with pytest.raises(RadiusExceeded, match=r"^factorize: evaluation at "
                           r"\|z\| = 1\.5 outside the closed unit disk$"):
            semicircle_factor.eval_interior(np.array([0.5, -1.5j]))

    def test_interior_matches_series(self, semicircle_factor):
        z = 0.3 - 0.2j
        got = complex(semicircle_factor.eval_interior(z)[0, 0])
        assert abs(got - (1.0 - z * z) / np.sqrt(2.0)) < 1e-10

    def test_truncation_bound_controls_gap(self, semicircle_factor):
        assert semicircle_factor.truncation_defect < 1e-10


# documents and the order of their factor's significant band
EDGE_DOCUMENTS = {
    "noncommuting_2_m256": (noncommuting_document(2, 256), 2),
    "noncommuting_2_m1024": (noncommuting_document(2, 1024), 2),
    "edge_table_m256": (edge_table_document(256), 3),
}


class TestEdgeDeflation:
    @pytest.mark.parametrize("name", sorted(EDGE_DOCUMENTS))
    def test_edge_zero_families_factor_to_rounding(self, name):
        doc, band_order = EDGE_DOCUMENTS[name]
        w = szego_weight(specio.build_measure(specio.parse_measure_spec(json.dumps(doc))))
        g = spectral_factorize(w)
        assert g.path == "reduction"  # resolved
        assert g.order == band_order
        assert g.residual <= DEFAULT.fact_rel * max_operator_norm(w.values)
        residual, _ = det_szego_check(g)
        assert residual <= 1e-12
        assert g.truncation_defect <= 1e-10
        g0 = g.value_at_zero()
        assert float(operator_norm(g0 - g0.conj().T)) < 1e-12
        assert float(np.min(np.linalg.eigvalsh(g0))) > 0.0

    @pytest.mark.parametrize("root", [1.0, -1.0])
    def test_edge_factor(self, root):
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        unitary, rank = q.conj().T, 2
        proj = unitary[:rank].conj().T @ unitary[:rank]
        z = np.exp(1j * midpoint_nodes(64))
        b = 1.0 - root * z
        e = elementary_matrix(unitary, rank, b)
        gram = e.conj().transpose(0, 2, 1) @ e
        expected = (np.eye(3) - proj)[None] + (np.abs(b) ** 2)[:, None, None] * proj[None]
        assert float(np.max(np.abs(gram - expected))) < 1e-13
        assert np.allclose(np.linalg.det(e), b**rank, rtol=0.0, atol=1e-13)
        e0 = elementary_matrix(unitary, rank, np.ones(1))
        assert float(np.max(np.abs(e0[0] - np.eye(3)))) < 1e-14


class TestPositivityGuards:
    def test_rejects_indefinite_weight(self):
        vals = np.broadcast_to(np.diag([1.0, -0.5]), (64, 2, 2)).copy()
        with pytest.raises(NotPD):
            spectral_factorize(BoundarySampling(vals))

    def test_rejects_singular_weight(self):
        vals = np.broadcast_to(np.diag([1.0, 0.0]), (64, 2, 2)).copy()
        with pytest.raises(NotPD):
            spectral_factorize(BoundarySampling(vals))

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_node(self, dim, bad):
        # potrf admits a NaN pivot, and an infinite one at l = 1
        vals = np.broadcast_to(np.eye(dim), (64, dim, dim)).copy()
        vals[17, -1, -1] = bad
        with pytest.raises(NotPD, match=r"^factorize: weight not finite at node 17 of 64$"):
            spectral_factorize(BoundarySampling(vals))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_infinite_node_is_refused_without_a_warning(self, dim):
        # Hermitizing first would form inf * 0 in the imaginary part
        vals = np.broadcast_to(np.eye(dim), (64, dim, dim)).copy()
        vals[17, -1, -1] = np.inf
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NotPD, match=r"^factorize: weight not finite at node 17 of 64$"):
                spectral_factorize(BoundarySampling(vals))
        assert caught == []

    def test_negative_eigenvalue_at_a_node_exits_4(self, monkeypatch, capsys, tmp_path):
        # the Cholesky test refuses one node with a negative eigenvalue,
        # and the message words the smallest eigenvalue of the weight
        vals = document_weight(noncommuting_document(2, 256)).values.copy()
        vals[17] = np.diag([0.5, -0.25])
        spec = tmp_path / "noncommuting.json"
        spec.write_text(json.dumps(noncommuting_document(2, 256)))
        monkeypatch.setattr("matszego.measure.szego_weight", lambda mu: BoundarySampling(vals))
        assert main(["factorize", str(spec)]) == 4
        assert capsys.readouterr().err == ("numerical error: factorize: weight not positive "
                                           "definite: min eig -2.5e-01 at or below 0\n")


class TestOnePositivityDecision:
    """make_measure decides the weight's positivity, and spectral_factorize
    reads its decision; every other sampling is decided again."""

    def test_a_job_takes_one_cholesky_pass(self, monkeypatch, capsys):
        calls = []
        positive_definite = linalg.positive_definite

        def counting(a):
            calls.append(a.shape)
            return positive_definite(a)

        monkeypatch.setattr(linalg, "positive_definite", counting)
        for command in ("factorize", "limit"):
            calls.clear()
            assert main([command, str(SPECS_DIR / "matrix_conjugated.json")]) == 0
            assert calls == [(4096, 2, 2)], command
        capsys.readouterr()

    def test_only_make_measure_marks_a_weight(self, shipped_measures):
        mu = shipped_measures["matrix_semicircle_mass"]
        assert mu.weight.positive and szego_weight(mu) is mu.weight
        assert not szego_weight(mu, 2).positive
        assert not BoundarySampling(mu.weight.values).positive

    def test_a_weight_passed_directly_is_decided(self):
        # the certified weight's values, one node made indefinite: the flag
        # does not travel with the values
        vals = document_weight(noncommuting_document(2, 256)).values.copy()
        vals[17] = np.diag([0.5, -0.25])
        with pytest.raises(NotPD, match=r"^factorize: weight not positive definite: "
                           r"min eig -2\.5e-01 at or below 0$"):
            spectral_factorize(BoundarySampling(vals))


class TestFactorDefect:
    """The certificate forms G* G - w once, after G(0)'s turn."""

    def test_an_accepted_factor_forms_one_defect(self, shipped_measures, monkeypatch):
        calls = []
        gram_defect = outer._gram_defect

        def counting(boundary, values):
            calls.append(boundary.shape)
            return gram_defect(boundary, values)

        monkeypatch.setattr(outer, "_gram_defect", counting)
        g = spectral_factorize(szego_weight(shipped_measures["matrix_conjugated"]))
        assert g.path == "reduction" and calls == [(4096, 2, 2)]


class TestTinyDeterminant:
    """Admissible weights whose det w at the edge nodes lies far below any
    fixed floor, (2 sin^2(pi/M))^k for k channels vanishing at t = 0, pi,
    yet which factor to rounding."""

    @pytest.mark.parametrize("dim", [3, 4])
    def test_semicircle_blocks_factor_exactly(self, monkeypatch, dim):
        w = document_weight(semicircle_document(dim, 1024))
        assert float(np.min(np.linalg.det(w.values).real)) < 1e-14
        peels = peeled_edges(monkeypatch)
        g = spectral_factorize(w)
        # every channel vanishes at both edges: one peel of rank l at each
        assert (g.path, g.sweeps, g.order) == ("reduction", 1, 2)
        assert peels == [(1.0, dim), (-1.0, dim)]
        assert g.residual <= DEFAULT.fact_rel * max_operator_norm(w.values)
        residual, estimate = det_szego_check(g)
        assert residual <= 2.0 * estimate
        assert np.max(np.abs(g.value_at_zero() - np.eye(dim) / np.sqrt(2.0))) < 1e-12

    def test_noncommuting_semicircle_blocks_factor_by_cyclic_reduction(self):
        w = document_weight(noncommuting_document(4, 1024, semicircles=3))
        assert float(np.min(np.linalg.det(w.values).real)) < 1e-14
        g = spectral_factorize(w)
        assert (g.path, g.order) == ("reduction", 2)
        assert g.residual <= DEFAULT.fact_rel * max_operator_norm(w.values)

    def test_noncommuting_semicircle_blocks_factor_by_wilson(self):
        # the Wilson iteration, which still factors unresolved and wide-band
        # weights, certifies the same tiny-determinant weight on its M nodes
        w = document_weight(noncommuting_document(4, 1024, semicircles=3))
        assert float(np.min(np.linalg.det(w.values).real)) < 1e-14
        g = wilson_reference(w)
        assert g.path == "wilson" and g.sweeps > 0
        assert g.boundary.node_count == w.node_count
        assert g.residual <= DEFAULT.fact_rel * max_operator_norm(w.values)
        assert g.order == spectral_factorize(w).order

    def test_not_positive_definite_message(self):
        vals = np.broadcast_to(np.diag([1.0, -0.5]), (64, 2, 2)).copy()
        with pytest.raises(NotPD, match=r"^factorize: weight not positive definite: "
                           r"min eig -5\.0e-01 at or below 0$"):
            spectral_factorize(BoundarySampling(vals))


class TestDeterminantIdentity:
    def test_semicircle_mean_logdet(self, semicircle_factor):
        mean, est = boundary_logdet_mean(semicircle_factor)
        # mean of log(2 sin^2 t) over the circle is -log 2, and G carries
        # half of it; the weight vanishes at t = 0, pi so the plain grid
        # mean has an exact a/M term, which the extrapolation removes and
        # the estimate reports
        assert mean == pytest.approx(-0.5 * np.log(2.0), abs=1e-10)
        assert 1e-5 < est < 1e-2

    def test_arcsine_mean_logdet_vanishes(self, shipped_measures):
        g = spectral_factorize(szego_weight(shipped_measures["arcsine"]))
        mean, est = boundary_logdet_mean(g)
        assert abs(mean) < 1e-12
        assert est < 1e-12

    def test_det_residual_on_shipped_weights(self, shipped_measures):
        for name in ("free_semicircle", "arcsine", "matrix_conjugated"):
            g = spectral_factorize(szego_weight(shipped_measures[name]))
            residual, est = det_szego_check(g)
            assert residual < 1e-8, name

    def test_det_residual_on_random_weight(self):
        rng = np.random.default_rng(59)
        w = BoundarySampling(random_smooth_weight(rng, 2, 256))
        residual, _ = det_szego_check(spectral_factorize(w))
        assert residual < 1e-6


class TestPhaseFunction:
    def test_unitary_on_grid(self, semicircle_factor):
        s = s_function(semicircle_factor)
        prod = s.values.conj().transpose(0, 2, 1) @ s.values
        assert float(np.max(operator_norm(prod - np.eye(1)))) < 1e-10

    def test_semicircle_phase_closed_form(self, semicircle_factor):
        s = s_function(semicircle_factor)
        theta = s.theta
        oracle = -np.exp(2j * theta)
        assert np.max(np.abs(s.values[:, 0, 0] - oracle)) < 1e-10

    def test_reflection_inverts(self, semicircle_factor):
        s = s_function(semicircle_factor)
        prod = s.values @ s.values[::-1]
        assert float(np.max(operator_norm(prod - np.eye(1)))) < 1e-10


def document_weight(doc: dict) -> BoundarySampling:
    return szego_weight(specio.build_measure(specio.parse_measure_spec(json.dumps(doc))))


def fractional_edge_weight() -> BoundarySampling:
    """|2 sin t|^{3/2} at M = 2048: 9-10 Wilson sweeps ending in a stall."""
    return BoundarySampling(np.abs(2.0 * np.sin(midpoint_nodes(2048)))[:, None, None] ** 1.5)


def factor_outcome(w: BoundarySampling, tol=DEFAULT):
    """Everything spectral_factorize decides, as bytes, or its error message."""
    try:
        g = spectral_factorize(w, tol)
    except NoConvergence as exc:
        return str(exc)
    floats = np.array([g.residual, g.neg_leakage, g.truncation_defect])
    return g.sweeps, g.coeffs.tobytes(), g.boundary.values.tobytes(), floats.tobytes()


class TestBracketedDecisions:
    WEIGHTS = {
        "noncommuting_2_m256": lambda: document_weight(noncommuting_document(2, 256)),
        "noncommuting_2_m1024": lambda: document_weight(noncommuting_document(2, 1024)),
        "noncommuting_4_m1024": lambda: document_weight(noncommuting_document(4, 1024)),
        "edge_table_m256": lambda: document_weight(edge_table_document(256)),
        "fractional_edge_m2048": fractional_edge_weight,
    }

    @pytest.mark.parametrize("fact_rel", [DEFAULT.fact_rel, 1e-18])
    @pytest.mark.parametrize("name", sorted(WEIGHTS))
    def test_brackets_change_no_decision(self, monkeypatch, name, fact_rel):
        # every scale test settled exactly, by brackets whose Frobenius
        # norms read as unreliable (both ends NaN), must give the same
        # sweeps, factor and report floats bit for bit; fact_rel = 1e-18
        # runs each weight into its rounding plateau, where it fails
        w = self.WEIGHTS[name]()
        tol = dataclasses.replace(DEFAULT, fact_rel=fact_rel)
        fast = factor_outcome(w, tol)
        calls = []

        def unreliable(a):
            calls.append(a.shape)
            return np.linalg.norm(a, axis=(-2, -1)), None

        with monkeypatch.context() as m:
            m.setattr(linalg, "_frobenius_top", unreliable)
            assert factor_outcome(w, tol) == fast
        assert calls
        if fact_rel != DEFAULT.fact_rel:
            assert fast.startswith("factorize: residual ")

    def test_fractional_edge_ends_in_a_stall(self):
        g = spectral_factorize(fractional_edge_weight())
        assert 9 <= g.sweeps <= 10

    @pytest.mark.parametrize("name", ["noncommuting_2_m256", "noncommuting_4_m1024"])
    def test_few_full_stack_svds(self, monkeypatch, name):
        # cyclic reduction works on coefficients and the certificate takes
        # eigenvalues, so no node's block is ever decomposed by an SVD;
        # Wilson's residual norms, on the paths that take it, are
        # eigenvalues too
        w = self.WEIGHTS[name]()
        full = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            a = np.asarray(a)
            if a.ndim == 3 and a.shape[0] == w.node_count:
                full.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        g = spectral_factorize(w)
        assert (g.path, g.sweeps) == ("reduction", 2)
        assert not full

    def test_s_function_certificate_changes_nothing(self, monkeypatch):
        g = spectral_factorize(document_weight(noncommuting_document(4, 1024)))
        fast = s_function(g).values
        monkeypatch.setattr(outer, "_surely_invertible", lambda *args: False)
        assert s_function(g).values.tobytes() == fast.tobytes()


# (path, sweeps, order, (root, rank) of each peeled edge factor) of each
# weight's factorization; sweeps counts reduction steps on the reduction path
DECISIONS = {
    "free_semicircle": ("reduction", 1, 2, ((1.0, 1), (-1.0, 1))),
    "arcsine": ("reduction", 1, 0, ()),
    "semicircle_mass": ("reduction", 1, 2, ((1.0, 1), (-1.0, 1))),
    "matrix_semicircle_mass": ("reduction", 1, 2, ((1.0, 2), (-1.0, 2))),
    "matrix_conjugated": ("reduction", 1, 2, ((1.0, 1), (-1.0, 1))),
    "noncommuting_2_m256": ("reduction", 2, 2, ((1.0, 1), (-1.0, 1))),
    "noncommuting_2_m1024": ("reduction", 2, 2, ((1.0, 1), (-1.0, 1))),
    "noncommuting_4_m1024": ("reduction", 2, 2, ((1.0, 1), (-1.0, 1))),
    "table_4_m512": ("reduction", 5, 1, ()),
    "table_8_m256": ("reduction", 5, 1, ()),
    "edge_table_m256": ("reduction", 6, 3, ((1.0, 2), (-1.0, 2))),
}
DOCUMENTS = {
    "noncommuting_2_m256": lambda: noncommuting_document(2, 256),
    "noncommuting_2_m1024": lambda: noncommuting_document(2, 1024),
    "noncommuting_4_m1024": lambda: noncommuting_document(4, 1024),
    "table_4_m512": lambda: table_document(4, 512),
    "table_8_m256": lambda: table_document(8, 256),
    "edge_table_m256": lambda: edge_table_document(256),
}


def decision_weight(shipped_measures, name: str) -> BoundarySampling:
    if name in DOCUMENTS:
        return document_weight(DOCUMENTS[name]())
    return szego_weight(shipped_measures[name])


def peeled_edges(monkeypatch) -> list[tuple[float, int]]:
    """The (root, rank) of every edge factor _peel_edges takes from now on."""
    peels = []
    peel_edges = outer._peel_edges

    def recording(*args):
        remainder, peeled = peel_edges(*args)
        peels.extend((root, rank) for root, _, rank in peeled)
        return remainder, peeled

    monkeypatch.setattr(outer, "_peel_edges", recording)
    return peels


class TestDecisionIdentity:
    @pytest.mark.parametrize("name", sorted(DECISIONS))
    def test_frame_products_keep_every_decision(self, monkeypatch, shipped_measures, name):
        w = decision_weight(shipped_measures, name)
        peels = peeled_edges(monkeypatch)
        g = spectral_factorize(w)
        assert (g.path, g.sweeps, g.order, tuple(peels)) == DECISIONS[name]


def wilson_grids(monkeypatch) -> list[int]:
    """The node count of every _wilson call from now on, in call order."""
    nodes = []
    wilson = outer._wilson

    def recording(v, target):
        nodes.append(v.shape[0])
        return wilson(v, target)

    monkeypatch.setattr(outer, "_wilson", recording)
    return nodes


def reduction_orders(monkeypatch) -> list[int]:
    """The order of the remainder of every _cyclic_reduction call from now on."""
    orders = []
    reduction = outer._cyclic_reduction

    def recording(c):
        orders.append(c.shape[0] - 1)
        return reduction(c)

    monkeypatch.setattr(outer, "_cyclic_reduction", recording)
    return orders


def wilson_reference(w: BoundarySampling, fact_rel: float = DEFAULT.fact_rel) -> OuterFunction:
    """The certified Wilson factor of w on its M nodes, as if it were
    unresolved: iterated to fact_rel, certified at the default tolerance."""
    values = 0.5 * (w.values + w.values.conj().transpose(0, 2, 1))
    scale = linalg.BracketedNorm(values)
    tol = dataclasses.replace(DEFAULT, fact_rel=fact_rel)
    return outer._certified(outer._wilson_factor(values, scale, tol), values, scale, DEFAULT)


# (sweeps, residual) of wilson_reference at the default fact_rel and at
# 1e-18, which runs each weight into a stall on its rounding plateau;
# recorded from the bracketed loop that the plain float loop replaced
WILSON_RUNS = {
    "edge_table_m256": ((4, 2.3194260449531622e-10), (9, 2.7238813867563212e-15)),
    "fractional_edge_m2048": ((10, 2.1729497324748936e-11), (15, 4.440892098500626e-15)),
    "noncommuting_2_m1024": ((3, 4.144971401939739e-12), (8, 7.835368950568892e-15)),
    "noncommuting_2_m256": ((3, 4.1436778766808326e-12), (8, 6.015619690857536e-15)),
    "noncommuting_4_m1024": ((3, 4.139853030595966e-12), (8, 2.1389388295475584e-14)),
    "noncommuting_semicircles_4_m1024": ((3, 2.6796272342408185e-13),
                                         (7, 2.761733099884641e-14)),
    "table_4_m512": ((4, 6.426865042666223e-14), (9, 2.6529080041527235e-15)),
    "table_8_m256": ((4, 1.7783799732215327e-14), (9, 3.435441695062809e-15)),
}


def wilson_run_weight(name: str) -> BoundarySampling:
    if name == "noncommuting_semicircles_4_m1024":
        return document_weight(noncommuting_document(4, 1024, semicircles=3))
    if name in DOCUMENTS:
        return document_weight(DOCUMENTS[name]())
    return TestBracketedDecisions.WEIGHTS[name]()


class TestWilsonRuns:
    @pytest.mark.parametrize("name", sorted(WILSON_RUNS))
    def test_sweeps_and_residual_are_pinned(self, name):
        # the plain-float stop and stall tests take the bracketed loop's
        # decisions: the same sweeps, so the same iterate, to the bit
        w = wilson_run_weight(name)
        for fact_rel, pinned in zip((DEFAULT.fact_rel, 1e-18), WILSON_RUNS[name]):
            g = wilson_reference(w, fact_rel)
            assert g.path == "wilson"
            assert (g.sweeps, g.residual) == pinned, fact_rel


class TestResolutionGrid:
    @pytest.mark.parametrize("dim, band, m_grid, path", [
        pytest.param(dim, band, m_grid, path,
                     id=f"{band}-{m_grid}-{path}" + ("-scalar" if dim == 1 else ""))
        for dim, band, m_grid, path in [
            (2, 1, 4096, "reduction"), (2, 3, 16, "reduction"), (2, 4, 16, "wilson"),
            (2, 7, 32, "reduction"), (2, 8, 32, "wilson"), (2, 15, 64, "reduction"),
            (2, 16, 64, "wilson"), (2, 25, 256, "reduction"), (2, 26, 256, "wilson"),
            (1, 60, 4096, "reduction"), (1, 80, 4096, "reduction"), (1, 81, 4096, "wilson"),
        ]
    ])
    def test_path_rule(self, monkeypatch, dim, band, m_grid, path):
        # an l x l weight of band d on M nodes is factored by cyclic
        # reduction exactly when it is resolved, d < M/4, and its lifted
        # size is small, d^3 l <= 128 M (25^3 2 = 31250 and 26^3 2 = 35152
        # around 128 * 256 = 32768; 80^3 = 512000 and 81^3 = 531441 around
        # 128 * 4096 = 524288); a reduced factor has order d and a
        # residual at rounding level
        w = random_smooth_weight(np.random.default_rng(band), dim, m_grid, band)
        nodes, orders = wilson_grids(monkeypatch), reduction_orders(monkeypatch)
        try:
            g = spectral_factorize(BoundarySampling(w))
        except NoConvergence:
            assert path == "wilson"  # Wilson's series is cut at M/8 < d
        else:
            assert g.path == path
            if path == "reduction":
                assert g.order == band
                assert g.residual <= 1e-12 * max_operator_norm(w)
        assert (nodes, orders) == (([m_grid], []) if path == "wilson" else ([], [band]))

    @pytest.mark.parametrize("name", sorted(DOCUMENTS))
    def test_reduction_agrees_with_wilson(self, monkeypatch, name):
        # one reduction, no Wilson sweep, and the factor Wilson reaches on
        # all M nodes, to its accuracy
        w = document_weight(DOCUMENTS[name]())
        with monkeypatch.context() as m:
            nodes = wilson_grids(m)
            g = spectral_factorize(w)
        assert nodes == [] and g.boundary.node_count == w.node_count
        assert (g.path, g.sweeps, g.order) == DECISIONS[name][:3]
        assert g.residual <= DEFAULT.fact_rel * max_operator_norm(w.values)
        ref = wilson_reference(w)
        assert ref.order == g.order
        assert np.max(np.abs(g.coeffs - ref.coeffs)) <= 1e-9 * np.max(np.abs(ref.coeffs))

    @pytest.mark.parametrize("eps", [1e-2, 1e-4])
    def test_near_zero_weight_factors_by_reduction(self, monkeypatch, tmp_path, eps):
        # the factor's inverse is sharply peaked at x = 0.5, which cost the
        # grid Wilson iteration a second run on all M nodes; the reduction
        # needs more steps as eps falls, and returns a factor of order 4
        doc = near_zero_document(eps, 1024)
        spec = tmp_path / "near_zero.json"
        spec.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["factorize", str(spec)]) == 0
        w = document_weight(doc)
        with monkeypatch.context() as m:
            nodes = wilson_grids(m)
            g = spectral_factorize(w)
        assert nodes == []
        assert (g.path, g.order) == ("reduction", 4)
        assert g.residual <= DEFAULT.fact_rel * max_operator_norm(w.values)

    def test_failed_reduction_exits_4(self, monkeypatch, capsys, tmp_path):
        # the weight needs two reduction steps; capped at one, the
        # reduction stops unconverged and the CLI reports its stage
        spec = tmp_path / "noncommuting.json"
        spec.write_text(json.dumps(noncommuting_document(2, 256)))
        monkeypatch.setattr(outer, "_MAX_SWEEPS", 1)
        assert main(["factorize", str(spec)]) == 4
        assert capsys.readouterr().err == ("numerical error: factorize: cyclic reduction did "
                                           "not converge in 1 step(s)\n")

    def test_wilson_factor_is_evaluated_up_to_the_circle(self):
        # the cut series is a polynomial, so by the maximum principle its
        # error inside the disk is at most its error on the circle: the
        # Wilson path needs no radius cap of its own
        g = spectral_factorize(fractional_edge_weight())
        assert g.path == "wilson"
        gap = {}
        for r in (0.999, 1.0):
            z = r * np.exp(2j * np.pi * np.arange(512) / 512)
            gap[r] = np.max(np.abs(g.eval_interior(z)[:, 0, 0] - (1.0 - z * z) ** 0.75))
        assert gap[0.999] <= gap[1.0]

    def test_unresolved_weight_runs_once_on_its_own_grid(self, monkeypatch):
        w = fractional_edge_weight()
        nodes, orders = wilson_grids(monkeypatch), reduction_orders(monkeypatch)
        g = spectral_factorize(w)
        assert (nodes, orders, g.path) == ([2048], [], "wilson")
        assert g.boundary.node_count == 2048

    @pytest.mark.parametrize("name", sorted(TestBracketedDecisions.WEIGHTS))
    def test_failure_message_is_the_full_grid_one(self, name):
        # the gate reads the residual over all M nodes against the exact
        # scale; the reduction does not depend on fact_rel, so its failing
        # residual is the one certified at the default tolerance
        w = TestBracketedDecisions.WEIGHTS[name]()
        tol = dataclasses.replace(DEFAULT, fact_rel=1e-18)
        message = factor_outcome(w, tol)
        target = 1e-18 * linalg.max_hermitian_norm(
            0.5 * (w.values + w.values.conj().transpose(0, 2, 1)))
        assert message.startswith("factorize: residual ")
        assert message.endswith(" sweeps") and f" above target {target:.1e} after " in message
        g = spectral_factorize(w)
        if g.path == "reduction":
            assert message == (f"factorize: residual {g.residual:.1e} above target "
                               f"{target:.1e} after {g.sweeps} sweeps")


def singular_node_factor(block: np.ndarray) -> OuterFunction:
    """A hand-built 2x2 factor whose boundary is the identity except at one node."""
    vals = np.broadcast_to(np.eye(2, dtype=complex), (64, 2, 2)).copy()
    vals[9] = block
    coeffs = np.array([np.eye(2), np.diag([0.5, 0.0])], dtype=complex)
    return OuterFunction(coeffs=coeffs, boundary=BoundarySampling(vals), residual=0.0,
                         neg_leakage=0.0, truncation_defect=0.0, sweeps=0, path="reduction")


class TestSingularBoundary:
    @pytest.mark.parametrize("block", [np.diag([1.0, 0.0]), np.diag([1.0, 1e-14])])
    def test_s_function_names_its_stage(self, block):
        with pytest.raises(SingularBoundary, match=r"^s_function: G\(e\^\{-it\}\) numerically "
                           r"singular at node t = .*: smallest singular value .* at or below "):
            s_function(singular_node_factor(block))

    def test_zero_pivot_above_a_tiny_threshold_names_its_stage(self):
        # LU swaps this block's rows and leaves fl(1/3) - fl(1/3) * 1 = 0,
        # while its smallest singular value, 3e-16 from rounding 1/3, clears
        # sing_rel = 1e-20: the inverse fails, and so does s_function
        block = np.array([[1.0, 1.0 / 3.0], [3.0, 1.0]])
        tol = dataclasses.replace(DEFAULT, sing_rel=1e-20)
        with pytest.raises(SingularBoundary, match=r"^s_function: G\(e\^\{-it\}\) numerically "
                           r"singular at node t = 2\.208932: smallest singular value "
                           r".* with a zero LU pivot; largest 3\.3e\+00$"):
            s_function(singular_node_factor(block), tol)

    def test_s_function_threshold_is_relative(self):
        # 1e-11 clears 1e-12 times the largest singular value, 1: no error
        s = s_function(singular_node_factor(np.diag([1.0, 1e-11])))
        assert s.values[54, 1, 1] == pytest.approx(1e11)

    def test_logdet_mean_names_its_stage(self):
        # the second column of G vanishes, so det G = 0 at every node
        g = singular_node_factor(np.eye(2))
        g = dataclasses.replace(g, coeffs=np.array([np.diag([1.0, 0.0]), np.diag([0.5, 0.0])],
                                                   dtype=complex))
        with pytest.raises(SingularBoundary, match=r"^boundary_logdet_mean: det G vanishes at "
                           r"node t = .* of the 64-node grid: \|det G\| = 0\.0e\+00"):
            boundary_logdet_mean(g)

    def test_singular_value_at_zero_names_its_stage(self, monkeypatch):
        # G(z) = diag(1, z) has G* G = I on the circle but G(0) singular
        factor = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
        boundary = linalg.synthesize_on_grid(np.arange(2), factor, 64).values
        monkeypatch.setattr(outer, "_reduction_factor",
                            lambda *args: (factor, boundary, 0.0, 0.0, 1, "reduction"))
        w = BoundarySampling(np.tile(np.eye(2, dtype=complex), (64, 1, 1)))
        with pytest.raises(Singular, match=r"^factorize: G\(0\): smallest singular value "
                           r"0\.000e\+00 at or below tol\.sing_rel x largest = 1\.000e-12$"):
            spectral_factorize(w)
