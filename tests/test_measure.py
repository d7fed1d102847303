"""Measure construction, normalization, bound states, weight sampling."""

import re

import mpmath
import numpy as np
import pytest

from matszego.errors import MassOnSupport, ValidationError
from matszego.linalg import midpoint_nodes, operator_norm
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

from conftest import random_smooth_weight

ID = lambda x: np.broadcast_to(np.eye(1), (np.asarray(x).size, 1, 1))
X = lambda x: np.asarray(x)[:, None, None] * np.eye(1)


def integrate(f, g, mu):
    """<<f, g>> for callables, sampled at the nodes and masses of mu."""
    x, e = mu.x_nodes, np.array([s.energy for s in mu.bound_states])
    return inner_product(mu, f(x), f(e), g(x), g(e))


class FlippedDensity(SemicircleDensity):
    """The semicircle with its sign flipped at one mirror pair of nodes."""

    def sample(self, order):
        f = super().sample(order)
        f[[order // 4, order - 1 - order // 4]] *= -1.0
        return f


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

    def test_weight_with_two_negative_eigenvalues_rejected(self):
        # det w > 0 at the flipped nodes, so only a test of definiteness sees them
        with pytest.raises(ValidationError,
                           match=r"^Szego condition fails: w\(t\) has eigenvalue -\d"):
            make_measure(FlippedDensity(2), quad_order=256, normalize="auto")

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
        vals = d.sample(16)
        s = SemicircleDensity(1).sample(16)[:, 0, 0]
        a = ArcsineDensity(1).sample(16)[:, 0, 0]
        diag = np.zeros((16, 2, 2), dtype=complex)
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
        expected = SemicircleDensity(1).sample(4 * m)
        # |sin t| has a kink at t = 0, pi, where trig interpolation
        # converges only like 1/M
        assert float(np.max(np.abs(d.sample(4 * m) - expected))) < 1e-2

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
        for order in (16, 256):
            t = midpoint_nodes(order)
            expected = 1.0 + 0.5 * np.cos(2 * t)
            assert np.allclose(d.sample(order)[:, 0, 0].real, expected, atol=1e-12)


ROTATION = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])


def node_table(node: np.ndarray, m: int = 64) -> np.ndarray:
    """m identity samples with node at the mirror pair 3, m - 4, so that
    the table stays symmetric in t."""
    samples = np.broadcast_to(np.eye(2, dtype=complex), (m, 2, 2)).copy()
    samples[3] = samples[m - 4] = node
    return samples


def rotated(low: float) -> np.ndarray:
    """A real symmetric node with eigenvalues 1 and low, off the axes."""
    node = ROTATION @ np.diag([1.0, low]) @ ROTATION.T
    return 0.5 * (node + node.T)


def eigvalsh_rule(samples: np.ndarray) -> bool:
    """Whether a table is positive semi-definite by the rule TableDensity
    applies, decided by eigvalsh at every node: each eigenvalue at least
    -1e-10 times the largest entry of the table."""
    scale = max(float(np.max(np.abs(samples))), 1e-300)
    return float(np.min(np.linalg.eigvalsh(samples))) >= -1e-10 * scale


class TestTablePositivity:
    """TableDensity's positivity decision is eigvalsh's, though a Cholesky
    admits a positive definite table without it."""

    @pytest.fixture()
    def eigvalsh_calls(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        return calls

    def test_positive_definite_table_needs_no_eigenvalues(self, eigvalsh_calls):
        samples = smooth_table(64)
        TableDensity(samples)
        assert eigvalsh_calls == [] and eigvalsh_rule(samples)

    def test_negative_eigenvalue_is_refused(self, eigvalsh_calls):
        samples = node_table(rotated(-1e-3))
        with pytest.raises(ValidationError) as info:
            TableDensity(samples)
        assert str(info.value) == "table: samples not positive semi-definite"
        assert len(eigvalsh_calls) == 1 and not eigvalsh_rule(samples)

    @pytest.mark.parametrize("node, sign", [(rotated(-1e-12), -1.0), (np.diag([1.0, 0.0]), 0.0)],
                             ids=["rounding-level", "zero"])
    def test_semi_definite_node_is_admitted_then_fails_szego(self, eigvalsh_calls, node, sign):
        # Cholesky fails on the node, so eigvalsh decides, and admits it
        samples = node_table(node)
        density = TableDensity(samples)
        assert len(eigvalsh_calls) == 1 and eigvalsh_rule(samples)
        with pytest.raises(ValidationError) as info:
            make_measure(density, quad_order=64)
        message = re.fullmatch(r"Szego condition fails: w\(t\) has eigenvalue (\S+) at a node",
                               str(info.value))
        assert message and np.sign(float(message[1])) == sign


    def test_non_hermitian_samples_are_refused(self):
        node = np.array([[1.0, 0.5], [0.1, 1.0]])
        with pytest.raises(ValidationError, match=r"^table: samples not Hermitian \(defect "):
            TableDensity(node_table(node))


def smooth_table(m: int) -> np.ndarray:
    """Hermitian 2x2 samples of a symmetric, non-band-limited f(2 cos t)."""
    theta = midpoint_nodes(m)
    a = np.array([[2.0, 0.3 - 0.4j], [0.3 + 0.4j, 1.5]])
    b = np.array([[0.5, 0.2j], [-0.2j, -0.3]])
    bump = 1.0 / (1.3 - np.cos(theta))
    return a[None] + bump[:, None, None] * b[None]


def dense_interpolant(samples: np.ndarray, order: int) -> np.ndarray:
    """sum_{-M/2 <= n < M/2} c_n exp(i n t) on the order-node grid, by direct sums."""
    m = samples.shape[0]
    n = np.arange(-m // 2, m // 2)
    coeffs = np.einsum("nm,mij->nij", np.exp(-1j * np.outer(n, midpoint_nodes(m))), samples) / m
    return np.einsum("tn,nij->tij", np.exp(1j * np.outer(midpoint_nodes(order), n)), coeffs)


class TestTableSampling:
    def test_own_grid_returns_stored_samples(self):
        samples = smooth_table(64)
        d = TableDensity(samples)
        got = d.sample(64)
        assert got is d.samples
        assert not got.flags.writeable
        assert float(np.max(np.abs(got - samples))) < 1e-15

    @pytest.mark.parametrize("order", [32, 128, 256])
    def test_other_grids_match_dense_interpolant(self, order):
        samples = smooth_table(64)
        got = TableDensity(samples).sample(order)
        assert got.shape == (order, 2, 2)
        assert float(np.max(np.abs(got - dense_interpolant(samples, order)))) <= 1e-13

    @pytest.mark.parametrize("order", [16, 32, 64, 128])
    def test_samples_are_reflection_symmetric(self, order):
        got = TableDensity(smooth_table(64)).sample(order)
        assert np.array_equal(got, got[::-1])


class CountingDensity(SemicircleDensity):
    def __init__(self):
        super().__init__(1)
        self.orders = []

    def sample(self, order):
        self.orders.append(order)
        return super().sample(order)


class TestComputeOnce:
    def test_each_grid_is_sampled_once(self):
        d = CountingDensity()
        mu = make_measure(
            d, masses=[(2.5, np.array([[0.2]]))], quad_order=256, normalize="auto"
        )
        assert mu.correction is not None
        assert mu.density is d
        assert d.orders == [256]
        w2 = szego_weight(mu, refine=2)
        assert d.orders == [256, 512]
        # the refined weight carries the same normalizing congruence
        expected = 2.0 * np.sin(w2.theta) ** 2 / 1.2
        assert np.max(np.abs(w2.values[:, 0, 0] - expected)) < 1e-12


class TestBoundStates:
    def test_disk_coordinate_closed_form(self):
        assert disk_coordinate(2.5) == 0.5
        assert disk_coordinate(-2.5) == -0.5

    def test_disk_coordinate_inverts(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            e = float(rng.uniform(2.05, 8.0)) * (1 if rng.random() < 0.5 else -1)
            z = disk_coordinate(e)
            assert abs(z) < 1.0
            assert abs(z + 1.0 / z - e) < 1e-12

    def test_disk_coordinate_near_the_band(self):
        # E^2 - 4 cancels as |E| -> 2; against 40 digits, z is within 1 ulp
        with mpmath.workdps(40):
            for k in range(1, 16):
                for e in (2.0 + 10.0**-k, -(2.0 + 10.0**-k)):
                    z = disk_coordinate(e)
                    exact = (e - mpmath.sign(e) * mpmath.sqrt(mpmath.mpf(e) ** 2 - 4)) / 2
                    assert z.imag == 0.0
                    assert abs(mpmath.mpf(z.real) - exact) <= np.spacing(abs(z.real)), e

    def test_disk_coordinate_far_from_the_band(self):
        # E - sqrt(E^2 - 4) would cancel for far masses; the root outside
        # the disk, inverted, is within 2 eps relative of 50 digits up to
        # |E| = 1e300, and the reference is formed that way too
        rng = np.random.default_rng(29)
        with mpmath.workdps(50):
            for e in 2.0 + 10.0 ** rng.uniform(-15.0, 300.0, 400):
                for energy in (e, -e):
                    z = disk_coordinate(energy)
                    exact = 2 / (energy + mpmath.sign(energy) * mpmath.sqrt(
                        mpmath.mpf(energy) ** 2 - 4))
                    assert z.imag == 0.0
                    assert abs(mpmath.mpf(z.real) - exact) <= 2 * 2.0**-52 * abs(exact), energy
        assert disk_coordinate(1e9) == 1e-9 and disk_coordinate(-1e300) == -1e-300

    @pytest.mark.parametrize(
        "energy", [1.7e308, -1.7e308, np.finfo(float).max, -np.finfo(float).max]
    )
    def test_disk_coordinate_at_the_largest_floats(self, energy):
        # E + sqrt(E^2 - 4) overflows from about 9e307 on; halving both
        # terms first keeps z = 1 / E, a subnormal float, without a warning
        z = disk_coordinate(energy)
        assert z.imag == 0.0 and z.real != 0.0
        assert abs(z.real - 1.0 / energy) <= 1e-14 * abs(1.0 / energy)

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


class TestInnerProduct:
    @pytest.fixture(scope="class")
    def table_measure(self):
        rng = np.random.default_rng(21)
        samples = random_smooth_weight(rng, 3, 64)
        v = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        masses = [(2.4, 0.05 * np.outer(v[:, 0], v[:, 0].conj())), (-3.1, 0.02 * v @ v.conj().T)]
        return make_measure(TableDensity(samples), masses, quad_order=64)

    def test_rectangular_blocks_match_a_node_sum(self, table_measure):
        mu = table_measure
        rng = np.random.default_rng(22)
        shape = lambda n, k: rng.standard_normal((n, 3, k)) + 1j * rng.standard_normal((n, 3, k))
        fv, gv = shape(64, 2), shape(64, 4)
        fe, ge = shape(2, 2), shape(2, 4)
        expected = sum(fv[m].conj().T @ mu.weight.values[m] @ gv[m] for m in range(64)) / 64
        expected = expected + sum(
            fe[k].conj().T @ s.weight @ ge[k] for k, s in enumerate(mu.bound_states)
        )
        got = inner_product(mu, fv, fe, gv, ge)
        assert got.shape == (2, 4)
        assert float(np.max(np.abs(got - expected))) < 1e-13

    @pytest.mark.parametrize("k, k2", [(150, 90), (7, 400), (300, 300)])
    def test_wide_stacks_match_an_einsum(self, table_measure, k, k2):
        # node chunks of (1 << 14) // (l (k + k')) nodes: 2 to 8 chunks
        # over the 64 nodes, the last one short
        mu = table_measure
        assert 64 % ((1 << 14) // (3 * (k + k2))) != 0
        rng = np.random.default_rng(k + k2)
        shape = lambda n, c: rng.standard_normal((n, 3, c)) + 1j * rng.standard_normal((n, 3, c))
        fv, gv = shape(64, k), shape(64, k2)
        fe, ge = shape(2, k), shape(2, k2)
        expected = np.einsum("mik,mij,mjc->kc", fv.conj(), mu.weight.values, gv) / 64
        expected += np.einsum("mik,mij,mjc->kc", fe.conj(), mu.mass_weights, ge)
        got = inner_product(mu, fv, fe, gv, ge)
        assert got.shape == (k, k2)
        assert float(np.max(np.abs(got - expected))) < 1e-13 * float(np.max(np.abs(expected)))

    def test_whitening_roots_rebuild_the_weights(self, table_measure):
        mu = table_measure
        # one root per mirror pair t_m, t_{M-1-m} = -t_m, of the pair's weight
        fold = mu.grid_fold
        c, inverse = fold.root, fold.inverse
        half = mu.quad_order // 2
        assert c.shape == inverse.shape == (half, 3, 3)
        assert np.array_equal(fold.x, mu.x_nodes[:half])
        assert float(np.max(np.abs(fold.x - mu.x_nodes[::-1][:half]))) < 1e-13
        w = mu.weight.values
        gram = c.conj().transpose(0, 2, 1) @ c
        assert float(np.max(np.abs(gram * mu.quad_order - (w[:half] + w[::-1][:half])))) < 1e-13
        assert float(np.max(np.abs(inverse @ c - np.eye(3)))) < 1e-13
        nodes = np.zeros((mu.quad_order, 2))
        nodes[:half] = np.arange(2 * half).reshape(half, 2)
        assert np.array_equal(fold.unfold(nodes), np.concatenate([nodes[:half], nodes[:half][::-1]]))
        for s in mu.bound_states:
            assert s.root.shape == (s.multiplicity, 3)
            assert float(np.max(np.abs(s.root.conj().T @ s.root - s.weight))) < 1e-15


class TestSzegoWeight:
    def test_refined_weight_agrees_with_family(self, semicircle_measure):
        w2 = szego_weight(semicircle_measure, refine=2)
        theta = w2.theta
        expected = 2.0 * np.sin(theta) ** 2
        assert np.max(np.abs(w2.values[:, 0, 0].real - expected)) < 1e-12
        assert w2.node_count == 2 * semicircle_measure.quad_order
