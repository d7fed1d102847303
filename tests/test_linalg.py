"""Grid, matrix-kernel, and Fourier-layer unit tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matszego.blaschke import elementary_matrix
from matszego.errors import (
    AliasedIndex,
    DimensionMismatch,
    NegativeEigenvalue,
    NotHermitian,
    Singular,
)
from matszego import linalg
from matszego.linalg import (
    BoundarySampling,
    BracketedNorm,
    analytic_part,
    diagonal_congruence,
    fourier_coefficients,
    frame_product,
    gram_mean,
    hermitian_defect,
    left_polar,
    matrix_fourier_coeff,
    max_hermitian_norm,
    max_operator_norm,
    midpoint_nodes,
    norm_l2_1,
    norm_l2_2,
    operator_norm,
    principal_sqrt,
    synthesize_on_grid,
)
from matszego.tolerances import DEFAULT


def random_sampling(rng, node_count=32, dim=2):
    v = rng.standard_normal((node_count, dim, dim)) + 1j * rng.standard_normal(
        (node_count, dim, dim)
    )
    return BoundarySampling(v)


def sampled(fn, node_count):
    """fn(theta) -> (M, l, l) on the midpoint grid of node_count nodes."""
    return BoundarySampling(fn(midpoint_nodes(node_count)))


class TestGrid:
    def test_nodes_avoid_singular_angles(self):
        theta = midpoint_nodes(64)
        assert np.all(np.abs(theta) > 1e-12)
        assert np.all(np.abs(np.abs(theta) - np.pi) > 1e-12)
        assert np.all(np.abs(theta) < np.pi)

    def test_nodes_reflection_symmetric(self):
        theta = midpoint_nodes(128)
        assert np.max(np.abs(theta + theta[::-1])) < 1e-15

    def test_node_spacing_uniform(self):
        theta = midpoint_nodes(16)
        gaps = np.diff(theta)
        assert np.allclose(gaps, 2 * np.pi / 16, atol=1e-14)

    @pytest.mark.parametrize("bad", [0, 2, 3, 12, -8])
    def test_rejects_bad_counts(self, bad):
        with pytest.raises(DimensionMismatch):
            midpoint_nodes(bad)

    def test_sampling_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            BoundarySampling(np.zeros((8, 2, 3)))
        with pytest.raises(DimensionMismatch):
            BoundarySampling(np.zeros((6, 2, 2)))


class TestMatrixKernels:
    def test_operator_norm_is_largest_singular_value(self):
        a = np.array([[3.0, 0.0], [0.0, -4.0]])
        assert operator_norm(a) == pytest.approx(4.0)

    def test_hermitian_defect_zero_for_hermitian(self):
        a = np.array([[2.0, 1j], [-1j, 5.0]])
        assert hermitian_defect(a) < 1e-15

    def test_hermitian_defect_is_the_per_block_maximum_bitwise(self):
        rng = np.random.default_rng(17)
        for dim in range(1, 9):
            stack = rng.standard_normal((20, dim, dim)) + 1j * rng.standard_normal((20, dim, dim))
            stack[3] = stack[3] + stack[3].conj().T  # one exactly Hermitian block
            per_block = [float(operator_norm(m - m.conj().T)) for m in stack]
            assert hermitian_defect(stack) == max(per_block)
            assert hermitian_defect(stack[0]) == per_block[0]
            assert hermitian_defect(stack[3]) == 0.0

    def test_sqrt_identity(self):
        assert np.allclose(principal_sqrt(np.eye(3)), np.eye(3), atol=1e-14)

    def test_sqrt_diagonal(self):
        a = np.diag([4.0, 9.0])
        assert np.allclose(principal_sqrt(a), np.diag([2.0, 3.0]), atol=1e-14)

    def test_sqrt_reconstructs_random_gram(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            a = x.conj().T @ x
            s = principal_sqrt(a)
            assert float(operator_norm(s @ s - a)) < 1e-12 * max(1.0, float(operator_norm(a)))
            assert hermitian_defect(s) < 1e-12

    def test_sqrt_fixes_projectors(self):
        exact = np.diag([1.0, 1.0, 0.0])
        assert float(operator_norm(principal_sqrt(exact) - exact)) < 1e-15
        # rotated projector carries O(eps) eigenvalue noise; sqrt turns
        # that into O(sqrt(eps)), so the bound is looser here
        rng = np.random.default_rng(5)
        v = np.linalg.qr(rng.standard_normal((4, 2)))[0]
        p = v @ v.conj().T
        assert float(operator_norm(principal_sqrt(p) - p)) < 1e-7

    def test_sqrt_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            principal_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_sqrt_rejects_negative(self):
        with pytest.raises(NegativeEigenvalue):
            principal_sqrt(np.diag([1.0, -0.5]))

    def test_polar_identity_and_scalar(self):
        u, p = left_polar(np.eye(2))
        assert np.allclose(u, np.eye(2), atol=1e-14)
        assert np.allclose(p, np.eye(2), atol=1e-14)
        u, p = left_polar(2.0 * np.eye(2))
        assert np.allclose(u, np.eye(2), atol=1e-14)
        assert np.allclose(p, 2.0 * np.eye(2), atol=1e-14)

    def test_polar_reconstructs_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            u, p = left_polar(a)
            assert float(operator_norm(a - u @ p)) < 1e-12 * float(operator_norm(a))
            assert float(operator_norm(u.conj().T @ u - np.eye(3))) < 1e-12
            assert float(operator_norm(p - principal_sqrt(a.conj().T @ a))) < 1e-11

    def test_polar_rejects_singular(self):
        with pytest.raises(Singular):
            left_polar(np.diag([1.0, 0.0]))


class TestMaxOperatorNorm:
    def batches(self):
        rng = np.random.default_rng(11)
        for l, k in ((1, 1), (2, 2), (3, 5), (4, 4)):
            a = rng.standard_normal((200, l, k)) + 1j * rng.standard_normal((200, l, k))
            a *= np.exp(rng.uniform(-8.0, 2.0, (200, 1, 1)))
            yield a
            tied = a.copy()
            tied[::7] = a[3]  # the same block, maximal or not, many times
            yield tied
            tied[np.argmax(np.linalg.norm(a, axis=(1, 2)))] *= 0.0
            yield tied
            yield np.zeros((5, l, k))
            rank_one = np.einsum("i,j->ij", rng.standard_normal(l), rng.standard_normal(k))
            yield rng.standard_normal((50, 1, 1)) * rank_one

    def test_equals_the_full_batch_maximum_bitwise(self):
        for a in self.batches():
            assert max_operator_norm(a) == np.max(operator_norm(a))

    def test_empty_batch_raises_like_the_full_maximum(self):
        a = np.zeros((0, 3, 3))
        with pytest.raises(ValueError):
            np.max(operator_norm(a))
        with pytest.raises(ValueError):
            max_operator_norm(a)

    def test_zero_stack_needs_no_svd(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("SVD of an all-zero stack")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        for shape in ((64, 1, 1), (64, 4, 4), (3, 2, 5)):
            value = max_operator_norm(np.zeros(shape, dtype=complex))
            assert value == 0.0 and not np.signbit(value)
            bracket = BracketedNorm(np.zeros(shape))
            assert (bracket.lo, bracket.hi) == (0.0, 0.0)

    def test_underflowing_stack_is_not_taken_for_zero(self):
        # squares of 1e-170 underflow, so every Frobenius norm reads 0
        a = np.full((4, 2, 2), 1e-170)
        assert max_operator_norm(a) == np.max(operator_norm(a)) == 2e-170
        bracket = BracketedNorm(a)
        assert np.isnan(bracket.lo) and np.isnan(bracket.hi)


EPS = 2.0**-52
# Zeros of both signs, subnormals, NaN and infinities.
SPECIAL_ENTRIES = (0.0, -0.0, 5e-324, -5e-324, 2.0**-1030, np.nan, np.inf, -np.inf)


@st.composite
def scalar_stacks(draw, special=True, decades=300.0):
    """(M, 1, 1) complex stacks, real or complex entries over +-decades
    decades, with up to four SPECIAL_ENTRIES dropped in when special."""
    count = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def spread():
        return rng.standard_normal(count) * 10.0 ** rng.uniform(-decades, decades, count)

    a = spread().astype(complex)
    if draw(st.booleans()):
        a += 1j * spread()
    if special:
        for value in draw(st.lists(st.sampled_from(SPECIAL_ENTRIES), max_size=4)):
            a[rng.integers(count)] = value
    return a.reshape(count, 1, 1)


@st.composite
def block_stacks(draw, dims=(2, 4)):
    """(M, l, l) stacks for l in dims: general, and Hermitian ones that are
    positive definite, indefinite or semi-definite."""
    dim = draw(st.sampled_from(dims))
    count = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    kind = draw(st.sampled_from(["general", "definite", "indefinite", "semidefinite"]))
    if kind == "general":
        return a
    gram = a.conj().transpose(0, 2, 1) @ a
    if kind == "indefinite":
        return gram - 2.0 * np.eye(dim)
    if kind == "semidefinite":
        gram[:, :, 0] = gram[:, 0, :] = 0.0
    return gram


def lapack_positive(a):
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def lapack_polar(a):
    """linalg.left_polar's general path: (U, P) from one SVD, None when singular."""
    w, s, vh = np.linalg.svd(a)
    if s[0] == 0.0 or s[-1] <= DEFAULT.sing_rel * s[0]:
        return None
    return w @ vh, (vh.conj().T * s) @ vh


def same_bytes(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


class TestScalarKernels:
    """The l = 1 closed forms of the stack kernels against np.linalg."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(scalar_stacks())
    def test_positive_definite_decides_as_potrf(self, a):
        # per entry and per stack, zeros of both signs, NaN and inf included
        assert linalg.positive_definite(a) == lapack_positive(a)
        for block in a:
            assert linalg.positive_definite(block[None]) == lapack_positive(block[None])

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(scalar_stacks())
    def test_eigvalsh_and_eigh_are_heevds_floats(self, a):
        assert same_bytes(linalg.eigvalsh(a), np.linalg.eigvalsh(a))
        for got, want in zip(linalg.eigh(a), np.linalg.eigh(a)):
            assert same_bytes(got, want)
        assert same_bytes(linalg.eigvalsh(a[0]), np.linalg.eigvalsh(a[0]))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(scalar_stacks())
    def test_det_is_the_entry(self, a):
        got = linalg.det(a)
        assert same_bytes(got, a[:, 0, 0])
        assert linalg.det(a[0]) == a[0, 0, 0] or np.isnan(a[0, 0, 0])
        # np.linalg.det returns sign(a) exp(log |a|): |log |a|| / 2 ulps
        # from log's rounding and a few more from exp and the sign product
        with np.errstate(invalid="ignore"):
            ref = np.linalg.det(a)
        mag = np.abs(got)
        fine = np.isfinite(mag) & (mag >= np.finfo(float).tiny)
        bound = (2.0 + np.abs(np.log(mag[fine]))) * EPS * mag[fine]
        assert np.all(np.abs(ref[fine] - got[fine]) <= bound)
        assert np.all(ref[mag == 0.0] == 0.0)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(scalar_stacks(special=False, decades=130.0))
    def test_left_polar_is_the_svds_for_real_entries(self, a):
        # within +-1e130 gesdd does not rescale the block; past that its
        # scaling may cost |a| an ulp that the closed form keeps
        for block in a:
            want = lapack_polar(block)
            if want is None:
                with pytest.raises(Singular):
                    left_polar(block)
                continue
            got = left_polar(block)
            if block[0, 0].imag == 0.0:
                assert all(same_bytes(g, w) for g, w in zip(got, want))
            else:
                # gesdd reaches |a| through a Householder reflector and dlapy3
                assert np.abs(got[0] - want[0]).max() <= 4.0 * EPS
                assert np.abs(got[1] - want[1]).max() <= 4.0 * EPS * np.abs(want[1]).max()

    def test_left_polar_refuses_a_zero_entry(self):
        for zero in (0.0, -0.0):
            with pytest.raises(Singular, match="^smallest singular value 0.000e"):
                left_polar(np.array([[zero]]))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(scalar_stacks(special=False))
    def test_inv_is_lapacks_for_real_entries(self, a):
        with np.errstate(over="ignore"):
            got = linalg.inv(a)
        want = np.linalg.inv(a)
        fine = np.abs(a[:, 0, 0]) <= 1e300  # past it LAPACK's reciprocal overflows
        real = fine & (a[:, 0, 0].imag == 0.0)
        assert same_bytes(got[real], want[real])
        # getri takes a complex reciprocal by another formula than 1 / a
        assert np.all(np.abs(got[fine] - want[fine]) <= 4.0 * EPS * np.abs(want[fine]))

    def test_inv_refuses_a_zero_entry(self):
        for zero in (0.0, -0.0):
            with pytest.raises(np.linalg.LinAlgError):
                linalg.inv(np.array([[[2.0]], [[zero]]], dtype=complex))

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(block_stacks())
    def test_blocks_take_np_linalg_exactly(self, a):
        assert linalg.positive_definite(a) == lapack_positive(a)
        assert same_bytes(linalg.det(a), np.linalg.det(a))
        hermitian = np.allclose(a, a.conj().transpose(0, 2, 1))
        if hermitian:
            assert same_bytes(linalg.eigvalsh(a), np.linalg.eigvalsh(a))
            for got, want in zip(linalg.eigh(a), np.linalg.eigh(a)):
                assert same_bytes(got, want)
        try:
            want = np.linalg.inv(a)
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                linalg.inv(a)
        else:
            assert same_bytes(linalg.inv(a), want)
        want = lapack_polar(a[0])
        if want is not None:
            assert all(same_bytes(g, w) for g, w in zip(left_polar(a[0]), want))


STACK_KINDS = ("rank_one", "full_rank", "spike", "zero", "nonfinite", "tiny", "huge", "mixed")


@st.composite
def stacks(draw):
    """(M, l, l) stacks, l = 1..8: flat rank one (the shape of a Wilson
    residual), flat full rank, one spike, all zero, non-finite entries,
    and magnitudes near 1e-300, 1e300 or spread over many decades."""
    kind = draw(st.sampled_from(STACK_KINDS))
    dim = draw(st.integers(1, 8))
    count = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def cnormal(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if kind == "rank_one":
        u, v = cnormal(dim), cnormal(dim)
        phases = np.exp(2j * np.pi * rng.random(count))
        return phases[:, None, None] * np.outer(u, v.conj())[None] / np.linalg.norm(u)
    if kind == "full_rank":
        return np.stack([np.linalg.qr(cnormal(dim, dim))[0] for _ in range(count)]) * 3.7
    if kind == "zero":
        return np.zeros((count, dim, dim), dtype=complex)
    a = cnormal(count, dim, dim)
    if kind == "spike":
        a *= 1e-3
        a[rng.integers(count)] *= 1e4
    elif kind == "nonfinite":
        a[rng.integers(count), rng.integers(dim), rng.integers(dim)] = draw(
            st.sampled_from([np.inf, -np.inf, np.nan, complex(np.inf, 1.0)])
        )
    elif kind == "tiny":
        a *= 10.0 ** rng.uniform(-310.0, -290.0, (count, 1, 1))
    elif kind == "huge":
        a *= 10.0 ** rng.uniform(290.0, 307.0, (count, 1, 1))
    else:
        a *= 10.0 ** rng.uniform(-200.0, 200.0, (count, 1, 1))
    return a


def thresholds(values):
    """Each finite value and its neighbouring floats."""
    out = []
    for x in values:
        if np.isfinite(x):
            out += [x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)]
    return out + [0.0, np.inf, np.nan]


def tie(a, how, rng):
    """a with its blocks tied in Frobenius norm: "phases" puts the top block
    everywhere under random unit phases (equal norms, distinct bytes),
    "repeat" copies a few blocks over the others (equal bytes), and
    "quantize" rounds every entry to an eighth of the largest one."""
    if how == "phases":
        top = a[np.argmax(np.abs(a).reshape(len(a), -1).max(axis=1))]
        return np.exp(2j * np.pi * rng.random(len(a)))[:, None, None] * top
    if how == "repeat":
        return a[rng.integers(0, min(3, len(a)), len(a))]
    q = np.max(np.abs(a)) / 8.0
    return np.round(a.real / q) * q + 1j * np.round(a.imag / q) * q


class TestMaxOperatorNormProperty:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(stacks(), st.sampled_from(["as_drawn", "phases", "repeat", "quantize"]),
           st.integers(0, 2**32 - 1))
    def test_equals_the_full_batch_maximum(self, a, how, seed):
        with np.errstate(over="ignore", invalid="ignore"):
            if how != "as_drawn":
                a = tie(np.concatenate([a] * 4), how, np.random.default_rng(seed))
            try:
                full = np.max(operator_norm(a))
            except np.linalg.LinAlgError:
                with pytest.raises(np.linalg.LinAlgError):
                    max_operator_norm(a)
                return
            got = max_operator_norm(a)
        assert got == full or (np.isnan(got) and np.isnan(full))


class TestBracketedNorm:
    @settings(max_examples=250, derandomize=True, deadline=None)
    @given(stacks(), st.sampled_from(["as_drawn", "phases", "repeat", "quantize"]),
           st.integers(0, 2**32 - 1))
    def test_bracket_decisions_equal_exact_decisions(self, a, how, seed):
        # on Hermitian stacks, every test monotone in the value decides as
        # it does on max_hermitian_norm, whether the bracket settles it or
        # not; a non-finite stack raises like the exact value
        with np.errstate(over="ignore", invalid="ignore"):
            if how != "as_drawn":
                a = tie(np.concatenate([a] * 4), how, np.random.default_rng(seed))
            h = a + a.conj().transpose(0, 2, 1)
            bracket = BracketedNorm(h)
            if not np.isfinite(h).all():
                assert np.isnan(bracket.lo) and np.isnan(bracket.hi)
                with pytest.raises(np.linalg.LinAlgError):
                    bracket.decide(lambda value: value <= 1.0)
                return
            exact = max_hermitian_norm(h)
            if not np.isnan(bracket.lo):
                assert bracket.lo <= exact <= bracket.hi
            for t in thresholds([exact, bracket.lo, bracket.hi]):
                assert BracketedNorm(h).decide(lambda value: value <= t) == (exact <= t), t
                assert BracketedNorm(h).decide(lambda value: t < 0.7 * value) == (t < 0.7 * exact)
            lam = np.abs(np.linalg.eigvalsh(h[0]))
            for rel in (1e-10, 0.5, 1.0):
                # the peeling test's shape: a count that grows with the value
                rank = BracketedNorm(h).decide(lambda value: int(np.sum(lam <= rel * value)))
                assert rank == int(np.sum(lam <= rel * exact))
            assert bracket.exact() == exact


class TestMaxHermitianNorm:
    def test_equals_the_full_batch_maximum_bitwise(self):
        for a in TestMaxOperatorNorm().batches():
            if a.shape[1] != a.shape[2]:
                continue
            h = a + a.conj().transpose(0, 2, 1)
            assert max_hermitian_norm(h) == np.max(np.abs(np.linalg.eigvalsh(h)))
            assert max_hermitian_norm(h) == pytest.approx(max_operator_norm(h), rel=1e-14)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.inf, 1.0)])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0)])
    def test_non_finite_entries_raise(self, bad, entry):
        # eigvalsh may answer a NaN on the diagonal with eigenvalues 0 and
        # never reads the upper triangle, so the stack is checked first
        h = np.broadcast_to(np.eye(2, dtype=complex), (8, 2, 2)).copy()
        h[5][entry] = bad
        with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
            max_hermitian_norm(h)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(stacks(), st.sampled_from(["as_drawn", "phases", "repeat", "quantize"]),
           st.integers(0, 2**32 - 1))
    def test_equals_the_full_batch_maximum(self, a, how, seed):
        with np.errstate(over="ignore", invalid="ignore"):
            if how != "as_drawn":
                a = tie(np.concatenate([a] * 4), how, np.random.default_rng(seed))
            h = a + a.conj().transpose(0, 2, 1)
            if not np.isfinite(h).all():
                with pytest.raises(np.linalg.LinAlgError):
                    max_hermitian_norm(h)
                return
            assert max_hermitian_norm(h) == np.max(np.abs(np.linalg.eigvalsh(h)))

    def test_flat_rank_one_stack_takes_one_decomposition(self, monkeypatch):
        # the shape of a Wilson residual: rank one with nearly equal norms
        # at every node, so the top block's norm rules out all the others
        rng = np.random.default_rng(7)
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        h = (1.0 - 1e-3 * rng.random(4096))[:, None, None] * np.outer(u, u.conj())[None]
        blocks = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            blocks.append(int(np.prod(np.shape(a)[:-2])))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        value = max_hermitian_norm(h)
        assert blocks == [1]
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        assert value == np.max(np.abs(np.linalg.eigvalsh(h)))

    def test_zero_stack_needs_no_decomposition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh of an all-zero stack")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        value = max_hermitian_norm(np.zeros((64, 4, 4), dtype=complex))
        assert value == 0.0 and not np.signbit(value)


# The einsum forms the GEMM helpers replaced, kept as their reference.
def einsum_diagonal_congruence(u, d):
    return np.einsum("ji,...j,jk->...ik", u.conj(), d, u)


def einsum_frame_product(a, f, b):
    return np.einsum("ij,mjk,kl->mil", a, f, b)


def cnormal(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def unitary(rng, dim):
    return np.linalg.qr(cnormal(rng, dim, dim))[0]


# Each result may differ from its reference by the rounding of either: a
# few ulps times l of the sum of |terms|, entry by entry.
ULPS = 4 * np.finfo(float).eps


@st.composite
def diagonal_cases(draw):
    """(u, d): a unitary or general frame of size l = 1, 2, 4, 8 and rows d
    for M = 4 ... 4096 nodes, real (density channels) or complex, some
    with zero entries (rank deficient)."""
    dim = draw(st.sampled_from([1, 2, 4, 8]))
    count = 2 ** draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = unitary(rng, dim) if draw(st.booleans()) else cnormal(rng, dim, dim)
    d = cnormal(rng, count, dim) if draw(st.booleans()) else rng.random((count, dim))
    if draw(st.booleans()):
        d[:, rng.random(dim) < 0.5] = 0.0
    return u, d


@st.composite
def frame_cases(draw):
    """(a, f, b) with f a Hermitian or general stack, l = 1, 2, 4, 8 and
    M = 4 ... 4096, and (a, b) shaped as the package uses them: a
    Hermitian congruence (c, c), a rotation (B*, B), a left factor
    (Omega, I), or general."""
    dim = draw(st.sampled_from([1, 2, 4, 8]))
    count = 2 ** draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = cnormal(rng, count, dim, dim)
    if draw(st.booleans()):
        f = f + f.conj().transpose(0, 2, 1)
    kind = draw(st.sampled_from(["congruence", "rotation", "left", "general"]))
    if kind == "congruence":
        c = cnormal(rng, dim, dim)
        a = b = c + c.conj().T
    elif kind == "rotation":
        b = unitary(rng, dim)
        a = b.conj().T
    elif kind == "left":
        a, b = unitary(rng, dim), np.eye(dim)
    else:
        a, b = cnormal(rng, dim, dim), cnormal(rng, dim, dim)
    return a, f, b


class TestFrameProducts:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(diagonal_cases())
    def test_diagonal_congruence_matches_einsum(self, case):
        u, d = case
        got = diagonal_congruence(u, d)
        bound = einsum_diagonal_congruence(np.abs(u), np.abs(d)).real
        assert got.shape == d.shape + (u.shape[0],)
        err = np.abs(got - einsum_diagonal_congruence(u, d))
        assert np.all(err <= ULPS * u.shape[0] * bound)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(frame_cases())
    def test_frame_product_matches_einsum(self, case):
        a, f, b = case
        got = frame_product(a, f, b)
        bound = einsum_frame_product(np.abs(a), np.abs(f), np.abs(b)).real
        assert got.shape == f.shape
        err = np.abs(got - einsum_frame_product(a, f, b))
        assert np.all(err <= ULPS * f.shape[-1] * bound)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.sampled_from([1, 2, 4, 8]), st.integers(0, 8), st.integers(0, 12),
           st.integers(0, 2**32 - 1))
    def test_elementary_matrix_matches_einsum(self, dim, rank, log_count, seed):
        # b for one factor at T points, (T,), and as a 0-d array
        rng = np.random.default_rng(seed)
        u, rank = unitary(rng, dim), min(rank, dim)
        for b in (cnormal(rng, 2**log_count), cnormal(rng)):
            d = np.ones(b.shape + (dim,), dtype=complex)
            d[..., :rank] = b[..., None]
            got = elementary_matrix(u, rank, b)
            assert got.shape == b.shape + (dim, dim)
            bound = einsum_diagonal_congruence(np.abs(u), np.abs(d)).real
            err = np.abs(got - einsum_diagonal_congruence(u, d))
            assert np.all(err <= ULPS * dim * bound)
        # a stack of factors, (K, l, l) with ranks (K,) and b (K, T), as a
        # Blaschke-Potapov product makes them: each as it would be on its own
        us = np.stack([u, unitary(rng, dim), unitary(rng, dim)])
        ranks, bs = np.array([rank, 0, dim]), cnormal(rng, 3, 2**log_count)
        got = elementary_matrix(us, ranks, bs)
        for k in range(3):
            assert got[k].tobytes() == elementary_matrix(us[k], ranks[k], bs[k]).tobytes()

    def test_scalar_products_round_as_before(self):
        # at l = 1 both helpers do the reference's products in its order
        rng = np.random.default_rng(5)
        f, c = rng.random((64, 1, 1)) + 0j, np.array([[1.7 + 0j]])
        assert frame_product(c, f, c).tobytes() == einsum_frame_product(c, f, c).tobytes()
        u, d = np.array([[1.0 + 0j]]), rng.random((64, 1))
        assert diagonal_congruence(u, d).tobytes() == einsum_diagonal_congruence(u, d).tobytes()


class TestNorms:
    def test_constant_identity(self):
        f = BoundarySampling(np.broadcast_to(np.eye(2), (16, 2, 2)).copy())
        assert norm_l2_1(f) == pytest.approx(1.0)
        assert norm_l2_2(f) == pytest.approx(1.0)

    def test_zero(self):
        f = BoundarySampling(np.zeros((16, 2, 2)))
        assert norm_l2_1(f) == 0.0
        assert norm_l2_2(f) == 0.0

    def test_equivalence_sandwich(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            dim = int(rng.integers(1, 5))
            f = random_sampling(rng, 32, dim)
            n1, n2 = norm_l2_1(f), norm_l2_2(f)
            assert n2 <= n1 + 1e-12
            assert n1 <= np.sqrt(dim) * n2 + 1e-12

    def test_gram_product_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            dim = int(rng.integers(1, 5))
            f = random_sampling(rng, 32, dim)
            g = random_sampling(rng, 32, dim)
            lhs = float(operator_norm(gram_mean(f, g)))
            assert lhs <= dim * norm_l2_2(f) * norm_l2_2(g) + 1e-12


class TestFourier:
    def test_constant_coefficients(self):
        c = np.array([[1.0, 2.0], [3.0, 4.0]])
        f = BoundarySampling(np.broadcast_to(c, (16, 2, 2)).copy())
        assert np.allclose(matrix_fourier_coeff(f, 0), c, atol=1e-14)
        assert float(operator_norm(matrix_fourier_coeff(f, 3))) < 1e-14

    def test_single_mode(self):
        f = sampled(lambda t: np.exp(2j * t)[:, None, None] * np.eye(2), 32)
        assert np.allclose(matrix_fourier_coeff(f, 2), np.eye(2), atol=1e-13)
        assert float(operator_norm(matrix_fourier_coeff(f, 1))) < 1e-13

    def test_aliased_index_rejected(self):
        f = BoundarySampling(np.zeros((16, 1, 1)))
        with pytest.raises(AliasedIndex):
            matrix_fourier_coeff(f, 8)
        with pytest.raises(AliasedIndex):
            matrix_fourier_coeff(f, -8)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(19)
        f = random_sampling(rng, 32, 2)
        n_vals, coeffs = fourier_coefficients(f)
        for n in (-7, -1, 0, 1, 5):
            k = int(np.flatnonzero(n_vals == n)[0])
            assert np.allclose(coeffs[k], matrix_fourier_coeff(f, n), atol=1e-13)

    def test_synthesis_round_trip(self):
        rng = np.random.default_rng(23)
        f = random_sampling(rng, 64, 3)
        n_vals, coeffs = fourier_coefficients(f)
        g = synthesize_on_grid(n_vals, coeffs, 64)
        assert float(np.max(np.abs(g.values - f.values))) < 1e-12

    def test_refined_synthesis_keeps_smooth_values(self):
        f = sampled(lambda t: (1.0 + 0.5 * np.cos(3 * t))[:, None, None] * np.eye(1), 32)
        n_vals, coeffs = fourier_coefficients(f)
        g = synthesize_on_grid(n_vals, coeffs, 128)
        expected = 1.0 + 0.5 * np.cos(3 * g.theta)
        assert np.allclose(g.values[:, 0, 0], expected, atol=1e-12)

    def test_analytic_part_splits_modes(self):
        f = sampled(
            lambda t: (2.0 + np.exp(3j * t) + np.exp(-2j * t))[:, None, None]
            * np.eye(1),
            64,
        )
        g = analytic_part(f)
        expected = 1.0 + np.exp(3j * f.theta)
        assert np.allclose(g.values[:, 0, 0], expected, atol=1e-12)

    def test_riemann_lebesgue_decay(self):
        # fixed smooth sampling: coefficient envelope must shrink with |n|
        rng = np.random.default_rng(31)
        m = 64
        theta = midpoint_nodes(m)
        vals = np.zeros((m, 2, 2), dtype=complex)
        for k in range(4):
            c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            vals += (np.cos(k * theta) / (1.0 + k**3))[:, None, None] * c
        f = BoundarySampling(vals)
        norms = [float(operator_norm(matrix_fourier_coeff(f, n))) for n in range(m // 4)]
        envelope = [max(norms[n:]) for n in range(len(norms))]
        assert all(a >= b - 1e-15 for a, b in zip(envelope, envelope[1:]))
        assert envelope[-1] < 1e-12
