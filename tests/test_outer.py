"""Spectral factorization of boundary weights and its diagnostics."""

import contextlib
import dataclasses
import io
import json

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

    def test_semicircle_uses_exact_path(self, semicircle_factor):
        assert semicircle_factor.sweeps == 0

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
        assert g.sweeps == 0
        vals = g.boundary.values
        recon = vals.conj().transpose(0, 2, 1) @ vals
        assert float(np.max(operator_norm(recon - w.values))) < 1e-10
        g0 = g.value_at_zero()
        assert float(operator_norm(g0 - g0.conj().T)) < 1e-12
        eigs = np.linalg.eigvalsh(g0)
        # one semicircle channel (1/sqrt 2) and one arcsine channel (1)
        assert eigs[0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-10)
        assert eigs[1] == pytest.approx(1.0, abs=1e-10)

    def test_shipped_weights_use_exact_path(self, shipped_measures):
        for name in SHIPPED:
            assert spectral_factorize(szego_weight(shipped_measures[name])).sweeps == 0, name

    def test_unresolved_channel_skips_root_splitting(self, monkeypatch):
        # |2 sin t|^{3/2} is no trig polynomial: its significant degree
        # reaches M/4, so the exact path gives up before root splitting
        def refuse(poly):
            raise AssertionError("polyroots called on an unresolved channel")

        monkeypatch.setattr(np.polynomial.polynomial, "polyroots", refuse)
        theta = midpoint_nodes(2048)
        w = BoundarySampling(np.abs(2.0 * np.sin(theta))[:, None, None] ** 1.5)
        g = spectral_factorize(w)
        assert g.sweeps > 0
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
        # q(x) semicircle with q nearly vanishing on the band: root splitting
        # gives the same G(0) on every grid, which grid Wilson iteration
        # only reaches to 3e-10 .. 5e-9 on these weights
        g0 = []
        for m_grid in (256, 1024, 4096):
            doc = {"dim": 1, "quad_order": m_grid,
                   "density": {"family": "poly_semicircle", "coefficients": coefficients}}
            w = szego_weight(specio.build_measure(specio.parse_measure_spec(json.dumps(doc))))
            g = spectral_factorize(w)
            assert g.sweeps == 0, m_grid
            g0.append(g.value_at_zero()[0, 0].real)
        assert max(g0) - min(g0) <= 1e-12


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

    def test_interior_evaluation_radius_guard(self, semicircle_factor):
        with pytest.raises(RadiusExceeded):
            semicircle_factor.eval_interior(0.995)

    def test_interior_radius_names_its_stage(self, semicircle_factor):
        with pytest.raises(RadiusExceeded, match=r"^factorize: interior evaluation at "
                           r"\|z\| = 0\.995 above 0\.99$"):
            semicircle_factor.eval_interior(np.array([0.5, -0.995j]))

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
        assert g.sweeps > 0  # non-commuting: the Wilson path ran
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


class TestTinyDeterminant:
    """Admissible weights whose det w at the edge nodes lies far below any
    fixed floor, (2 sin^2(pi/M))^k for k channels vanishing at t = 0, pi,
    yet which factor to rounding."""

    @pytest.mark.parametrize("dim", [3, 4])
    def test_semicircle_blocks_factor_exactly(self, dim):
        w = document_weight(semicircle_document(dim, 1024))
        assert float(np.min(np.linalg.det(w.values).real)) < 1e-14
        g = spectral_factorize(w)
        assert g.sweeps == 0
        assert g.residual <= DEFAULT.fact_rel * max_operator_norm(w.values)
        residual, estimate = det_szego_check(g)
        assert residual <= 2.0 * estimate
        assert np.max(np.abs(g.value_at_zero() - np.eye(dim) / np.sqrt(2.0))) < 1e-12

    def test_noncommuting_semicircle_blocks_factor_by_wilson(self):
        w = document_weight(noncommuting_document(4, 1024, semicircles=3))
        assert float(np.min(np.linalg.det(w.values).real)) < 1e-14
        g = spectral_factorize(w)
        assert g.sweeps > 0
        assert g.residual <= DEFAULT.fact_rel * max_operator_norm(w.values)

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


def exact_wilson(v: np.ndarray, target: float) -> tuple[np.ndarray, int]:
    """outer._wilson with its stop and stall tests on exact residuals."""
    m_grid, dim = v.shape[0], v.shape[1]
    psi = np.linalg.cholesky(np.mean(v, axis=0))[None].repeat(m_grid, axis=0)
    best, stall = np.inf, 0
    for sweeps in range(1, 61):
        inv_psi = np.linalg.inv(psi)
        ratio = inv_psi @ v @ inv_psi.conj().transpose(0, 2, 1) + np.eye(dim)
        psi = psi @ linalg.analytic_part(BoundarySampling(ratio)).values
        res = max_operator_norm(psi @ psi.conj().transpose(0, 2, 1) - v)
        stall = 0 if res < best * 0.7 else stall + 1
        best = min(best, res)
        if res <= target or stall >= 4:
            break
    return psi, sweeps


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
        # every tolerance test settled exactly, by brackets whose Frobenius
        # norms read as unreliable (both ends NaN) or by the exact-residual
        # Wilson loop, must give the same sweeps, factor and report floats
        # bit for bit; fact_rel = 1e-18 runs each weight into its rounding
        # plateau, where residuals rise and stall
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
        monkeypatch.setattr(outer, "_wilson", exact_wilson)
        assert factor_outcome(w, tol) == fast
        if fact_rel != DEFAULT.fact_rel:
            assert fast.startswith("factorize: residual ")

    def test_fractional_edge_ends_in_a_stall(self):
        g = spectral_factorize(fractional_edge_weight())
        assert 9 <= g.sweeps <= 10

    @pytest.mark.parametrize("name", ["noncommuting_2_m256", "noncommuting_4_m1024"])
    def test_few_full_stack_svds(self, monkeypatch, name):
        # at most the last sweep's stop test needs an SVD of every node's
        # block (the reported residual takes eigenvalues); exact tests at
        # every sweep need four
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
        assert g.sweeps == 3
        assert len(full) <= 1

    def test_s_function_certificate_changes_nothing(self, monkeypatch):
        g = spectral_factorize(document_weight(noncommuting_document(4, 1024)))
        fast = s_function(g).values
        monkeypatch.setattr(outer, "_surely_invertible", lambda *args: False)
        assert s_function(g).values.tobytes() == fast.tobytes()


# (path, sweeps, order, (root, rank) of each peeled edge factor) of each
# weight's factorization, as the einsum frame products decided them
DECISIONS = {
    "free_semicircle": ("exact", 0, 2, ()),
    "arcsine": ("exact", 0, 0, ()),
    "semicircle_mass": ("exact", 0, 2, ()),
    "matrix_semicircle_mass": ("exact", 0, 2, ()),
    "matrix_conjugated": ("exact", 0, 2, ()),
    "noncommuting_2_m256": ("wilson", 3, 2, ((1.0, 1), (-1.0, 1))),
    "noncommuting_2_m1024": ("wilson", 3, 2, ((1.0, 1), (-1.0, 1))),
    "noncommuting_4_m1024": ("wilson", 3, 2, ((1.0, 1), (-1.0, 1))),
    "table_4_m512": ("wilson", 4, 1, ()),
    "table_8_m256": ("wilson", 4, 1, ()),
    "edge_table_m256": ("wilson", 4, 3, ((1.0, 2), (-1.0, 2))),
}
DOCUMENTS = {
    "noncommuting_2_m256": lambda: noncommuting_document(2, 256),
    "noncommuting_2_m1024": lambda: noncommuting_document(2, 1024),
    "noncommuting_4_m1024": lambda: noncommuting_document(4, 1024),
    "table_4_m512": lambda: table_document(4, 512),
    "table_8_m256": lambda: table_document(8, 256),
    "edge_table_m256": lambda: edge_table_document(256),
}


class TestDecisionIdentity:
    @pytest.mark.parametrize("name", sorted(DECISIONS))
    def test_frame_products_keep_every_decision(self, monkeypatch, shipped_measures, name):
        if name in DOCUMENTS:
            w = document_weight(DOCUMENTS[name]())
        else:
            w = szego_weight(shipped_measures[name])
        peels = []
        peel_edges = outer._peel_edges

        def recording(values, z, floor):
            remainder, peeled = peel_edges(values, z, floor)
            peels.extend((root, rank) for root, _, rank in peeled)
            return remainder, peeled

        monkeypatch.setattr(outer, "_peel_edges", recording)
        g = spectral_factorize(w)
        path = "wilson" if g.sweeps else "exact"
        assert (path, g.sweeps, g.order, tuple(peels)) == DECISIONS[name]


def full_grid(monkeypatch) -> None:
    """Make Wilson's first attempt run on the weight's own grid."""
    monkeypatch.setattr(outer, "_resolution_grid", lambda band, m_grid: m_grid)


def wilson_grids(monkeypatch) -> list[int]:
    """The node count of every _wilson call from now on, in call order."""
    nodes = []
    wilson = outer._wilson

    def recording(v, target):
        nodes.append(v.shape[0])
        return wilson(v, target)

    monkeypatch.setattr(outer, "_wilson", recording)
    return nodes


class TestResolutionGrid:
    @pytest.mark.parametrize("band, m_grid, nodes", [
        (1, 4096, 64), (3, 4096, 64), (4, 4096, 128), (7, 1024, 128), (8, 1024, 256),
        (2, 32, 32), (300, 2048, 2048),
    ])
    def test_grid_rule(self, band, m_grid, nodes):
        assert outer._resolution_grid(band, m_grid) == nodes

    @pytest.mark.parametrize("name", sorted(DOCUMENTS))
    def test_wilson_runs_on_the_resolution_grid(self, monkeypatch, name):
        w = document_weight(DOCUMENTS[name]())
        with monkeypatch.context() as m:
            nodes = wilson_grids(m)
            g = spectral_factorize(w)
        assert nodes == [64]
        assert g.wilson_nodes == 64 and g.boundary.node_count == w.node_count
        assert (g.sweeps, g.order) == DECISIONS[name][1:3]
        full_grid(monkeypatch)
        ref = spectral_factorize(w)
        assert ref.wilson_nodes == w.node_count
        assert g.coeffs.shape == ref.coeffs.shape
        assert np.max(np.abs(g.coeffs - ref.coeffs)) <= 1e-12 * np.max(np.abs(ref.coeffs))
        assert g.residual <= DEFAULT.fact_rel * max_operator_norm(w.values)

    @pytest.mark.parametrize("eps", [1e-2, 1e-4])
    def test_near_zero_weight_falls_back_to_the_full_grid(self, monkeypatch, tmp_path, eps):
        # the coarse factor misses the sharp peak of the inverse at x = 0.5
        # and fails the full-grid certificate; the second run is the
        # full-grid one, bit for bit
        doc = near_zero_document(eps, 1024)
        spec = tmp_path / "near_zero.json"
        spec.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["factorize", str(spec)]) == 0
        w = document_weight(doc)
        with monkeypatch.context() as m:
            nodes = wilson_grids(m)
            outcome = factor_outcome(w)
        assert nodes == [128, 1024]
        full_grid(monkeypatch)
        assert outcome == factor_outcome(w)

    def test_unresolved_weight_runs_once_on_its_own_grid(self, monkeypatch):
        w = fractional_edge_weight()
        with monkeypatch.context() as m:
            nodes = wilson_grids(m)
            outcome = factor_outcome(w)
        assert nodes == [2048]
        full_grid(monkeypatch)
        assert outcome == factor_outcome(w)

    @pytest.mark.parametrize("name", sorted(TestBracketedDecisions.WEIGHTS))
    def test_failure_message_is_the_full_grid_one(self, monkeypatch, name):
        w = TestBracketedDecisions.WEIGHTS[name]()
        tol = dataclasses.replace(DEFAULT, fact_rel=1e-18)
        message = factor_outcome(w, tol)
        full_grid(monkeypatch)
        assert message.startswith("factorize: residual ") and message == factor_outcome(w, tol)


def singular_node_factor(block: np.ndarray) -> OuterFunction:
    """A hand-built 2x2 factor whose boundary is the identity except at one node."""
    vals = np.broadcast_to(np.eye(2, dtype=complex), (64, 2, 2)).copy()
    vals[9] = block
    coeffs = np.array([np.eye(2), np.diag([0.5, 0.0])], dtype=complex)
    return OuterFunction(coeffs=coeffs, boundary=BoundarySampling(vals), residual=0.0,
                         neg_leakage=0.0, truncation_defect=0.0, sweeps=0)


class TestSingularBoundary:
    @pytest.mark.parametrize("block", [np.diag([1.0, 0.0]), np.diag([1.0, 1e-14])])
    def test_s_function_names_its_stage(self, block):
        with pytest.raises(SingularBoundary, match=r"^s_function: G\(e\^\{-it\}\) numerically "
                           r"singular at node t = .*: smallest singular value .* at or below "):
            s_function(singular_node_factor(block))

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
        monkeypatch.setattr(outer, "_commuting_factor", lambda values: factor)
        w = BoundarySampling(np.tile(np.eye(2, dtype=complex), (64, 1, 1)))
        with pytest.raises(Singular, match=r"^factorize: G\(0\): smallest singular value "
                           r"0\.000e\+00 at or below tol\.sing_rel x largest = 1\.000e-12$"):
            spectral_factorize(w)
