"""Subspace frames, unitary-valued disk products, residue extraction."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from matszego.errors import (
    DegenerateFrame,
    DuplicatePole,
    NotSimplePole,
    NumericalError,
    PoleAtReflection,
    ValidationError,
)
from matszego.linalg import operator_norm
from matszego.blaschke import (
    BlaschkePotapovProduct,
    construct_product,
    kernel_frame,
    principal_angles,
    residue_kernel,
    unitary_completion,
)

from conftest import haar_frames

E1 = np.array([[1.0], [0.0]], dtype=complex)
E2 = np.array([[0.0], [1.0]], dtype=complex)


def circle(count=128):
    return np.exp(2j * np.pi * np.arange(count) / count)


def scalar_b(z_k: complex, z):
    """The scalar Blaschke function of a pole z_k, positive at the origin."""
    return (abs(z_k) / z_k) * (z_k - z) / (1.0 - np.conj(z_k) * z)


def one_factor(z_k: complex, rank: int, unitary: np.ndarray) -> BlaschkePotapovProduct:
    return BlaschkePotapovProduct(
        poles=np.array([z_k], dtype=complex),
        ranks=np.array([rank]),
        unitaries=np.asarray(unitary, dtype=complex)[None],
    )


def unitarity_defect(vals: np.ndarray) -> float:
    eye = np.eye(vals.shape[-1])
    return float(np.max(operator_norm(vals.conj().swapaxes(-1, -2) @ vals - eye)))


class TestFrames:
    def test_unitary_completion_preserves_span(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        q = unitary_completion(v)
        assert q.shape == (4, 4)
        assert float(operator_norm(q.conj().T @ q - np.eye(4))) < 1e-12
        assert float(np.max(principal_angles(q[:, :2], v))) < 1e-10

    def test_unitary_completion_rejects_dependent(self):
        v = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
        with pytest.raises(DegenerateFrame):
            unitary_completion(v)
        with pytest.raises(DegenerateFrame):
            unitary_completion(np.zeros((3, 1)))

    def test_unitary_completion_completes_basis(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal((4, 2))
        q = unitary_completion(v)
        assert_complement(q[:, :2], q[:, 2:], 2)
        assert float(np.max(principal_angles(q[:, :2], v))) < 1e-14

    def test_complement_of_empty_is_identity(self):
        assert np.array_equal(unitary_completion(np.zeros((3, 0))), np.eye(3))

    def test_kernel_frame_rank_one(self):
        w = np.array([[0.2, 0.0], [0.0, 0.0]])
        k = kernel_frame(w)
        assert k.shape == (2, 1)
        assert float(np.max(principal_angles(k, E2))) < 1e-12

    def test_kernel_frame_full_rank_is_empty(self):
        assert kernel_frame(np.eye(3)).shape == (3, 0)

    def test_kernel_frame_zero_matrix_is_identity(self):
        assert np.allclose(kernel_frame(np.zeros((2, 2))), np.eye(2))
        # zero sets what counts as a zero matrix: at or below it, all is kernel
        assert np.allclose(kernel_frame(1e-3 * np.eye(2), zero=1e-3), np.eye(2))
        assert kernel_frame(1e-3 * np.eye(2), zero=1e-4).shape == (2, 0)

    def test_principal_angles_extremes(self):
        assert np.max(principal_angles(E1, E1)) == 0.0
        assert np.max(principal_angles(E1, E2)) == pytest.approx(np.pi / 2)
        # dimension mismatch between empty and nonempty spans is maximal
        assert np.max(principal_angles(np.zeros((2, 0)), E1)) == pytest.approx(np.pi / 2)


def rotated_pair(angles, rng):
    """Orthonormal frames of two spans in C^4 with the given principal
    angles, turned by one Haar unitary so no coordinate is special."""
    e = np.eye(4, dtype=complex)
    f1 = e[:, : len(angles)]
    f2 = np.stack(
        [np.cos(t) * e[:, k] + np.exp(0.7j) * np.sin(t) * e[:, len(angles) + k]
         for k, t in enumerate(angles)],
        axis=1,
    )
    u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    return u @ f1, u @ f2


def assert_complement(frame, c, dim):
    """c is an orthonormal basis of dimension dim orthogonal to frame."""
    assert c.shape == (frame.shape[0], dim)
    assert float(operator_norm(c.conj().T @ c - np.eye(dim))) < 1e-14
    assert float(np.max(np.abs(frame.conj().T @ c), initial=0.0)) < 1e-14


class TestSubspacePorts:
    """Closed forms for the SVD null space and the principal angles."""

    @pytest.fixture(autouse=True)
    def _invalid_values_raise(self):
        # a sine that rounds above 1 must not reach arcsin as a NaN
        with np.errstate(invalid="raise"):
            yield

    @pytest.mark.parametrize(
        "angles", [(1.2, 0.3), (0.9, 0.6), (np.pi / 2, 0.0), (np.pi / 2 - 1e-9, 0.2), (1.5, 1e-9)]
    )
    def test_rotated_spans_largest_first(self, angles):
        f1, f2 = rotated_pair(angles, np.random.default_rng(41))
        got = principal_angles(f1, f2)
        want = np.sort(angles)[::-1]
        assert got.shape == (2,)
        assert np.all(np.diff(got) <= 0.0)
        # pi/2 - 1e-9 must come from its cosine: its sine rounds to 1
        np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-14)
        # the smaller angle of (1.5, 1e-9) must come from its own sine,
        # not from the arccos of a cosine that rounds to 1
        np.testing.assert_allclose(got[1], want[1], rtol=1e-6, atol=1e-14)

    def test_small_angle_through_the_sine(self):
        theta = 1e-9
        f1, f2 = rotated_pair([theta], np.random.default_rng(43))
        got = principal_angles(f1, f2)
        assert got.shape == (1,)
        assert abs(got[0] - theta) <= 1e-6 * theta
        # the arccos of the cosine cannot resolve it: cos(1e-9) rounds to 1
        assert np.arccos(np.cos(theta)) == 0.0

    def test_unequal_column_counts_both_ways(self):
        theta = 0.4
        e = np.eye(4, dtype=complex)
        wide = e[:, :3]
        narrow = (np.cos(theta) * e[:, 1] + np.sin(theta) * e[:, 3])[:, None]
        for f1, f2 in ((wide, narrow), (narrow, wide)):
            got = principal_angles(f1, f2)
            assert got.shape == (1,)
            assert got[0] == pytest.approx(theta, abs=1e-15)
        # a plane against a line inside it, and the other way round
        assert principal_angles(wide, e[:, [0]]) == pytest.approx([0.0], abs=1e-15)
        assert principal_angles(e[:, [0]], e[:, 1:]) == pytest.approx([np.pi / 2])

    def test_rank_deficient_frames_drop_dependent_columns(self):
        rng = np.random.default_rng(47)
        f1, f2 = rotated_pair((1.0, 0.25), rng)
        # a third column in the span of the first two, and a repeated one
        mix = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        loose1 = np.hstack([f1, f1 @ mix[:, None]])
        loose2 = np.hstack([3.0 * f2, f2[:, [0]], f2[:, [1]]])
        got = principal_angles(loose1, loose2)
        np.testing.assert_allclose(got, [1.0, 0.25], atol=1e-14)
        # a rank-one frame of two parallel columns against a line
        line = f2[:, [1]]
        assert principal_angles(np.hstack([line, -2j * line]), f1) == pytest.approx(
            [0.25], abs=1e-14
        )

    def test_complement_of_full_frame_is_empty(self):
        rng = np.random.default_rng(53)
        v = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q = unitary_completion(v)
        assert q.shape == (4, 4) and q.dtype == complex
        assert q[:, 4:].shape == (4, 0)

    def test_complement_of_a_plane(self):
        f1, _ = rotated_pair((0.3, 0.2), np.random.default_rng(61))
        c = unitary_completion(f1)[:, 2:]
        assert_complement(f1, c, 2)
        assert principal_angles(c, f1) == pytest.approx([np.pi / 2] * 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_frames_raise_a_stage_named_error(self, bad):
        frame = np.eye(4, 2, dtype=complex)
        frame[2, 1] = bad
        with pytest.raises(NumericalError, match=r"^blaschke: principal_angles first frame "):
            principal_angles(frame, np.eye(4, 1))
        with pytest.raises(NumericalError, match=r"^blaschke: principal_angles second frame "):
            principal_angles(np.eye(4, 1), frame)
        with pytest.raises(NumericalError, match=r"^blaschke: unitary_completion input "):
            unitary_completion(frame)
        with pytest.raises(NumericalError, match=r"^blaschke: unitary_completion input "):
            construct_product([(0.5, frame)], dim=4)
        # a full-dimensional target goes through unitary_completion alone
        square = np.eye(4, dtype=complex)
        square[0, 3] = bad
        with pytest.raises(NumericalError, match=r"^blaschke: unitary_completion input "):
            construct_product([(0.5, square)], dim=4)


class TestStageNamedErrors:
    def test_frame_errors(self):
        with pytest.raises(DegenerateFrame, match=r"^blaschke: 3 columns .* dimension 2$"):
            unitary_completion(np.ones((2, 3)))
        with pytest.raises(DegenerateFrame, match=r"^blaschke: .*min pivot 0\.000e\+00 at or below "):
            unitary_completion(np.zeros((3, 1)))
        with pytest.raises(ValidationError, match=r"^blaschke: frame at .* 3 columns, above dimension 2$"):
            construct_product([(0.5, np.ones((2, 3)))], dim=2)

    def test_pole_errors(self):
        with pytest.raises(ValidationError, match=r"^blaschke: pole 1\.2.*\|z\| = 1\.2 not in \(0, 1\)$"):
            construct_product([(1.2, E1)], dim=2)
        with pytest.raises(DuplicatePole, match=r"^blaschke: .*gap 0\.000e\+00 below 1\.0e-12$"):
            construct_product([(0.5, E1), (0.5, E2)], dim=2)
        f = one_factor(0.5, 1, np.eye(1))
        reflected = r"^blaschke: .*1/conj\(0\.5\+0j\): .*= 0\.000e\+00 below 1\.0e-14$"
        with pytest.raises(PoleAtReflection, match=reflected):
            f.eval(2.0)

    def test_residue_errors(self):
        prod = construct_product([(0.5, E1)], dim=2)
        with pytest.raises(ValidationError, match=r"^blaschke: pole 1 .*clearance 0\.000e\+00"):
            residue_kernel(prod.eval_inverse, 1.0)

        def double(z):
            z = np.atleast_1d(np.asarray(z, dtype=complex))
            return ((z - 0.5) ** -2)[:, None, None] * np.eye(1)

        with pytest.raises(NotSimplePole, match=r"^blaschke: second-order .* above 1e-6 x scale"):
            residue_kernel(double, 0.5)


class TestElementaryFactor:
    """One factor F_k, as a one-factor product."""

    def test_scalar_blaschke_properties(self):
        f = one_factor(0.5j, 1, np.eye(1))
        assert abs(complex(f.eval(0.5j)[0, 0])) < 1e-15
        assert complex(f.eval(0.0)[0, 0]) == pytest.approx(0.5)
        on_circle = np.abs(f.eval(circle())[:, 0, 0])
        assert np.max(np.abs(on_circle - 1.0)) < 1e-12

    def test_scalar_rejects_reflected_point(self):
        f = one_factor(0.5, 1, np.eye(1))
        for evaluate in (f.eval, f.eval_inverse):
            with pytest.raises(PoleAtReflection):
                evaluate(np.array([0.1, 2.0]))

    def test_block_structure(self):
        f = one_factor(0.4, 1, np.eye(2))
        v = f.eval(0.1)
        b = complex(scalar_b(0.4, 0.1))
        assert v[0, 0] == pytest.approx(b)
        assert v[1, 1] == pytest.approx(1.0)
        assert abs(v[0, 1]) + abs(v[1, 0]) < 1e-15

    def test_inverse_is_pointwise_inverse(self):
        rng = np.random.default_rng(9)
        q = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        f = one_factor(0.3 - 0.2j, 2, q)
        zs = np.array([0.1, -0.4j, 0.2 + 0.6j])
        prod = f.eval(zs) @ f.eval_inverse(zs)
        assert float(np.max(operator_norm(prod - np.eye(3)))) < 1e-12


def reference_product(poles, ranks, unitaries, z, inverse=False):
    """B(z), or B(z)^{-1}, one point and one factor at a time, each factor
    U* diag(b, ..., b, 1, ..., 1) U formed by explicit matrix products;
    also the product of the factors' operator norms, the scale of the
    rounding error."""
    dim = unitaries.shape[-1]
    vals, scales = [], []
    for zp in z:
        acc, scale = np.eye(dim, dtype=complex), 1.0
        order = range(len(poles))
        for k in reversed(order) if inverse else order:
            b = complex(scalar_b(complex(poles[k]), zp))
            d = np.ones(dim, dtype=complex)
            d[: ranks[k]] = 1.0 / b if inverse else b
            acc = acc @ (unitaries[k].conj().T @ np.diag(d) @ unitaries[k])
            scale *= float(np.abs(d).max())
        vals.append(acc)
        scales.append(scale)
    return np.array(vals), np.array(scales)


@st.composite
def factor_sets(draw):
    """Stacked factor data with l <= 4, ranks 0..l and poles up to |z| = 0.999,
    and evaluation points in the closed disk."""
    dim = draw(st.integers(1, 4))
    count = draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    radii = draw(st.lists(st.floats(0.01, 0.999), min_size=count, max_size=count))
    poles = np.array(radii) * np.exp(1j * rng.uniform(-np.pi, np.pi, count))
    ranks = np.array(draw(st.lists(st.integers(0, dim), min_size=count, max_size=count)), dtype=int)
    raw = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    unitaries = np.linalg.qr(raw)[0].reshape(count, dim, dim)
    points = np.sqrt(rng.uniform(0.0, 1.0, 17)) * np.exp(2j * np.pi * rng.uniform(size=17))
    return BlaschkePotapovProduct(poles=poles, ranks=ranks, unitaries=unitaries), points


class TestStackedProduct:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(factor_sets())
    def test_matches_a_per_factor_loop(self, case):
        prod, z = case
        # points within 1e-6 of a pole would only test the reference's overflow
        assume(np.all(np.abs(z[:, None] - prod.poles) > 1e-6))
        for inverse, evaluate in ((False, prod.eval), (True, prod.eval_inverse)):
            want, scale = reference_product(prod.poles, prod.ranks, prod.unitaries, z, inverse)
            got = evaluate(z)
            assert got.shape == (z.size, prod.dim, prod.dim)
            err = np.max(np.abs(got - want), axis=(1, 2))
            assert np.all(err <= 1e-14 * scale)
            one = evaluate(complex(z[3]))
            assert one.shape == (prod.dim, prod.dim)
            assert np.max(np.abs(one - want[3])) <= 1e-14 * scale[3]

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(factor_sets(), st.data())
    def test_reflected_point_names_its_pole(self, case, data):
        prod, z = case
        assume(prod.poles.size > 0)
        k = data.draw(st.integers(0, prod.poles.size - 1))
        z_k = complex(prod.poles[k])
        # the check is one pass over all factors: other poles do not mask it
        assume(np.all(np.abs(1.0 - np.conj(np.delete(prod.poles, k)) / np.conj(z_k)) > 1e-6))
        pts = np.concatenate([z, [1.0 / np.conj(z_k)]])
        for evaluate in (prod.eval, prod.eval_inverse):
            with pytest.raises(PoleAtReflection, match=re.escape(f"1/conj({z_k:.6g}): ")):
                evaluate(pts)


class TestProductConstruction:
    def test_single_state_pins_range(self):
        prod = construct_product([(0.5, E1)], dim=2)
        val = prod.eval(0.5)
        # rank-one value with range exactly span(e1)
        s = np.linalg.svd(val, compute_uv=False)
        assert s[1] < 1e-12
        u = np.linalg.svd(val)[0][:, :1]
        assert float(np.max(principal_angles(u, E1))) < 1e-10

    def test_single_state_closed_form(self):
        # prescribing range span(e1) at z = 0.5 leaves channel one free
        # and puts the scalar factor in channel two
        prod = construct_product([(0.5, E1)], dim=2)
        for z in (0.0, 0.3j, -0.7):
            val = prod.eval(z)
            assert val[0, 0] == pytest.approx(1.0, abs=1e-12)
            assert val[1, 1] == pytest.approx(complex(scalar_b(0.5, z)), abs=1e-12)
            assert abs(val[0, 1]) + abs(val[1, 0]) < 1e-12

    def test_boundary_unitarity(self):
        rng = np.random.default_rng(21)
        states = [
            (0.5, E1),
            (-0.3 + 0.2j, E2),
            (0.1 + 0.6j, np.zeros((2, 0))),
        ]
        prod = construct_product(states, dim=2)
        assert unitarity_defect(prod.eval(circle())) < 1e-12

    def test_det_at_zero(self):
        states = [(0.5, E1), (0.25, np.zeros((2, 0)))]
        prod = construct_product(states, dim=2)
        # ranks: 1 for the pinned state, 2 for the empty target
        expected = 0.5**1 * 0.25**2
        assert prod.det_at_zero() == pytest.approx(expected)
        assert abs(np.linalg.det(prod.value_at_zero())) == pytest.approx(
            expected, abs=1e-12
        )

    def test_full_dimensional_target_contributes_nothing(self):
        prod = construct_product([(0.5, np.eye(2, dtype=complex))], dim=2)
        assert prod.poles.shape == prod.ranks.shape == (0,)
        assert prod.unitaries.shape == (0, 2, 2)
        assert np.allclose(prod.eval(0.3), np.eye(2))

    def test_inverse_cancels(self):
        rng = np.random.default_rng(23)
        v = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
        states = [(0.4, v), (-0.2 + 0.5j, rng.standard_normal((3, 2)))]
        prod = construct_product(states, dim=3)
        zs = np.array([0.05, 0.3 - 0.1j, -0.8j])
        vals = prod.eval(zs) @ prod.eval_inverse(zs)
        assert float(np.max(operator_norm(vals - np.eye(3)))) < 1e-10

    def test_frame_basis_invariance(self):
        rng = np.random.default_rng(27)
        v1 = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        v2 = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
        states = [(0.45, v1), (-0.3j, v2)]
        base = construct_product(states, dim=3)
        scrambled = construct_product(haar_frames(states, np.random.default_rng(99)), dim=3)
        zs = np.array([0.0, 0.2 + 0.1j, -0.5, 0.7j])
        gap = float(np.max(operator_norm(base.eval(zs) - scrambled.eval(zs))))
        assert gap < 1e-10

    def test_later_states_keep_earlier_ranges(self):
        rng = np.random.default_rng(31)
        states = [
            (0.5, rng.standard_normal((3, 1))),
            (0.3 + 0.3j, rng.standard_normal((3, 2))),
            (-0.6, rng.standard_normal((3, 1))),
        ]
        prod = construct_product(states, dim=3)
        for z_k, v in states:
            d = np.shape(v)[1]
            target = unitary_completion(np.asarray(v, dtype=complex))[:, :d]
            val = prod.eval(complex(z_k))
            s = np.linalg.svd(val, compute_uv=False)
            assert s[d] < 1e-10  # rank drops to d
            u = np.linalg.svd(val)[0][:, :d]
            assert float(np.max(principal_angles(u, target))) < 1e-8

    def test_factors_take_no_svd(self, monkeypatch):
        # each factor's unitary is one complete QR of its pulled frame
        rng = np.random.default_rng(37)
        poles = [0.5, -0.4j, 0.3 + 0.3j, -0.6, 0.2 - 0.5j, 0.7j]
        states = [
            (z, rng.standard_normal((3, 1 + k % 2)) + 1j * rng.standard_normal((3, 1 + k % 2)))
            for k, z in enumerate(poles)
        ]
        calls = []
        svd = np.linalg.svd

        def spy(*args, **kwargs):
            calls.append(args)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        prod = construct_product(states, dim=3)
        assert calls == []
        assert sorted(prod.ranks.tolist()) == [1, 1, 1, 2, 2, 2]

    def test_duplicate_pole_rejected(self):
        with pytest.raises(DuplicatePole):
            construct_product([(0.5, E1), (0.5, E2)], dim=2)

    def test_pole_outside_disk_rejected(self):
        with pytest.raises(ValidationError):
            construct_product([(1.2, E1)], dim=2)
        with pytest.raises(ValidationError):
            construct_product([(0.0, E1)], dim=2)


class TestResidues:
    def test_scalar_residue_closed_form(self):
        # inverse of b(z) = (0.5 - z)/(1 - 0.5 z) has residue -0.75 at 0.5
        prod = construct_product([(0.5, np.zeros((1, 0)))], dim=1)
        residue, frame = residue_kernel(prod.eval_inverse, 0.5)
        assert complex(residue[0, 0]) == pytest.approx(-0.75, abs=1e-10)
        assert frame.shape == (1, 0)

    def test_product_residue_kernel_matches_range(self):
        prod = construct_product([(0.5, E1)], dim=2)
        residue, frame = residue_kernel(prod.eval_inverse, 0.5)
        # the scalar factor sits in channel two; channel one is regular
        assert abs(residue[0, 0]) < 1e-10
        assert complex(residue[1, 1]) == pytest.approx(-0.75, abs=1e-10)
        assert frame.shape == (2, 1)
        assert float(np.max(principal_angles(frame, E1))) < 1e-8

    def test_multi_pole_residue(self):
        rng = np.random.default_rng(37)
        states = [(0.5, E1), (-0.4, rng.standard_normal((2, 1)))]
        prod = construct_product(states, dim=2)
        residue, frame = residue_kernel(
            prod.eval_inverse, 0.5, other_poles=[-0.4]
        )
        range_at_pole = np.linalg.svd(prod.eval(0.5))[0][:, :1]
        assert frame.shape == (2, 1)
        assert float(np.max(principal_angles(frame, range_at_pole))) < 1e-8

    def test_double_pole_detected(self):
        def double(z):
            z = np.atleast_1d(np.asarray(z, dtype=complex))
            return ((z - 0.5) ** -2)[:, None, None] * np.eye(1)

        with pytest.raises(NotSimplePole):
            residue_kernel(double, 0.5)

    def test_regular_point_gives_identity_frame(self):
        prod = construct_product([(0.5, E1)], dim=2)

        def shifted(z):
            return prod.eval_inverse(z)  # regular at -0.5

        residue, frame = residue_kernel(shifted, -0.5)
        assert float(operator_norm(residue)) < 1e-10
        assert np.allclose(frame, np.eye(2))

    def test_pole_on_boundary_rejected(self):
        prod = construct_product([(0.5, E1)], dim=2)
        with pytest.raises(ValidationError):
            residue_kernel(prod.eval_inverse, 1.0)
