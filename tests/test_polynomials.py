"""Recurrence construction, normalization types, and evaluation."""

import copy
import dataclasses
import hashlib
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matszego.errors import (
    DimensionMismatch,
    LostOrthogonality,
    LostPositivity,
    NegativeEigenvalue,
    NotHermitian,
    NumericalError,
    RadiusExceeded,
    Singular,
    ValidationError,
)
from matszego import polynomials
from matszego.limits import asymptotics_report, build_pipeline, verify_l2
from matszego.linalg import (
    BoundarySampling,
    BracketedNorm,
    band_degree,
    fourier_coefficients,
    left_polar,
    max_operator_norm,
    midpoint_nodes,
    operator_norm,
    synthesize_on_grid,
)
from matszego.measure import (
    ArcsineDensity,
    ConjugatedDiagonalDensity,
    SemicircleDensity,
    TableDensity,
    grid_fold,
    inner_product,
    make_measure,
)
from matszego.polynomials import (
    NORM_TYPES,
    BlockJacobi,
    PolySequence,
    _column_major,
    _gram_eigh,
    _times,
    apply_transform,
    eval_scaled_many,
    orthonormality_defect,
    recurrence_residual,
    stieltjes,
    to_type,
    type_defect,
)
from matszego.sumrule import check_sum_rule
from matszego.tolerances import Tolerances

from conftest import SHIPPED, grid_values, leading_coeff, random_smooth_weight

N_SMALL = 24


def grid_theta(seq):
    """The node angles of the grid of M' nodes the sequence's recurrence ran on."""
    return midpoint_nodes(2 * seq.fold.x.size)


def _document_grid(mu, n_max):
    """The recurrence grid rule kept at the document's own M nodes."""
    return grid_fold(mu.weight)


@pytest.fixture
def document_grid(monkeypatch):
    """Run every recurrence of the test on the document's M nodes, the
    reference that the degree-sized grid must reproduce."""
    monkeypatch.setattr(polynomials, "_recurrence_grid", _document_grid)


def tilt_grid(monkeypatch, shift=0.0, scale=1.0):
    """Run the recurrence on the document's fold with abscissae scale x + shift."""
    def tilted(mu, n_max):
        fold = grid_fold(mu.weight)
        return dataclasses.replace(fold, x=fold.x * scale + shift)

    monkeypatch.setattr(polynomials, "_recurrence_grid", tilted)


@pytest.fixture(scope="module")
def semicircle_seq(semicircle_measure):
    return stieltjes(semicircle_measure, N_SMALL)


@pytest.fixture(scope="module")
def arcsine_seq():
    mu = make_measure(ArcsineDensity(1), quad_order=1024, normalize="strict")
    return stieltjes(mu, N_SMALL)


# sha256 over the buffer (C order), the A blocks and the B blocks of
# stieltjes on the scalar shipped documents run on their own M nodes, as
# the GEMM and eigh kernels of the block recurrence give them; like
# golden_digests.json they hold for one numpy/BLAS build.
SCALAR_RECURRENCE_DIGESTS = {
    "free_semicircle/30": "4e47bfcd24ed906f9a45d0deecac54e915471cf28e10d081aa70108815bdf334",
    "free_semicircle/100": "b486d76e2954a0f3cfc83c205628a1f7864fee1977059f6bdea966f987d29e68",
    "arcsine/30": "50ed17000ddd1c4212f904d5827f0126af0b5ddc0960383a3ad5b72108542cae",
    "arcsine/100": "f6cf70fcd7c80286b42f611fa01f312ab641dc2e7444584215b381394f2b9d13",
    "semicircle_mass/30": "d3cc73eba23e9db9687eed6bdb2f3b68b13e4d98de8465c255c89c1bfead5bb4",
    "semicircle_mass/100": "bb9f072bd0e6584d83f92de1b9db235926e24e1f63cbd29e7dbc0cf4cf4155c3",
}


def recurrence_digest(seq: PolySequence) -> str:
    h = hashlib.sha256()
    for a in (seq._y, seq.jacobi.a, seq.jacobi.b):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _same_bytes(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


class TestScalarKernels:
    """At l = 1 the recurrence's kernels scale, divide and take one dot
    product where the block kernels run a GEMM, a solve or an eigh; on the
    real blocks of a scalar recurrence they give the same floats."""

    @pytest.mark.parametrize("key", sorted(SCALAR_RECURRENCE_DIGESTS))
    def test_scalar_recurrence_is_bitwise_the_block_kernels(self, shipped_measures, key,
                                                            document_grid):
        name, n = key.split("/")
        seq = stieltjes(shipped_measures[name], int(n))
        assert recurrence_digest(seq) == SCALAR_RECURRENCE_DIGESTS[key]

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3000), st.booleans())
    def test_kernels_match_the_block_forms_on_real_blocks(self, seed, rows, negative_zero):
        rng = np.random.default_rng(seed)
        # a column of a Fortran-order buffer, real values with signed-zero
        # imaginary parts, as the whitened rows are
        buf = np.zeros((rows, 3), dtype=complex, order="F")
        buf[:, 1] = rng.standard_normal(rows) * 10.0 ** rng.uniform(-3, 3, rows)
        buf[:, 1].imag = np.where(rng.random(rows) < 0.5, -0.0, 0.0)
        v = buf[:, 1:2]
        m = np.array([[rng.standard_normal() * 10.0 ** rng.uniform(-3, 3)]], dtype=complex)
        if negative_zero:
            m = m.conj()
        assert _same_bytes(_column_major(v, m), (m.T @ v.T).T)
        w = v.reshape(-1, 1, 1)
        assert _same_bytes(_times(w, m), (w.reshape(-1, 1) @ m).reshape(w.shape))
        gram = v.conj().T @ v
        for got, want in zip(_gram_eigh(v), np.linalg.eigh(0.5 * (gram + gram.conj().T))):
            assert _same_bytes(got, want)


class TestScalarOracles:
    def test_semicircle_coefficients_are_free(self, semicircle_seq):
        jac = semicircle_seq.jacobi
        assert float(np.max(np.abs(jac.a - 1.0))) < 1e-10
        assert float(np.max(np.abs(jac.b))) < 1e-10

    def test_semicircle_matches_chebyshev_second_kind(self, semicircle_seq):
        theta = grid_theta(semicircle_seq)
        for n in (1, 5, 12):
            oracle = np.sin((n + 1) * theta) / np.sin(theta)
            got = semicircle_seq.grid_at(n)[:, 0, 0].real
            assert np.max(np.abs(got - oracle)) < 1e-9

    def test_arcsine_coefficients(self, arcsine_seq):
        jac = arcsine_seq.jacobi
        assert complex(jac.a[0, 0, 0]).real == pytest.approx(np.sqrt(2.0), abs=1e-10)
        assert float(np.max(np.abs(jac.a[1:] - 1.0))) < 1e-10
        assert float(np.max(np.abs(jac.b))) < 1e-10

    def test_arcsine_matches_chebyshev_first_kind(self, arcsine_seq):
        theta = grid_theta(arcsine_seq)
        for n in (1, 4, 9):
            oracle = np.sqrt(2.0) * np.cos(n * theta)
            got = arcsine_seq.grid_at(n)[:, 0, 0].real
            assert np.max(np.abs(got - oracle)) < 1e-9

    def test_orthonormality_and_recurrence(self, semicircle_seq):
        assert orthonormality_defect(semicircle_seq) < 1e-10
        assert recurrence_residual(semicircle_seq) < 1e-9

    def test_mass_case_orthonormal(self, mass_sequence):
        assert orthonormality_defect(mass_sequence) < 1e-8

    def test_mass_values_stay_bounded(self, mass_sequence):
        w = mass_sequence.measure.bound_states[0].weight
        root = np.sqrt(w[0, 0].real)
        amps = root * np.abs(mass_sequence.mass_values[:, 0, 0, 0])
        assert float(amps.max()) <= 1.0 + 1e-8


class TestStageNamedErrors:
    def test_lost_positivity_names_the_resolution(self, mass_measure):
        # the shipped mass spec: M = 4096 nodes and one rank-one mass; its
        # weight has band 2, so degree 3 runs on the 16 nodes above 2 x 3 + 2 + 2
        with pytest.raises(
            LostPositivity,
            match=r"^stieltjes: step 1: Gram eigenvalue .* below 1\.0e\+01; the resolution on "
            r"M' = 16 of M = 4096 nodes is M'/2 \+ sum rank_k = 8 \+ 1 = 9$",
        ):
            stieltjes(mass_measure, 3, Tolerances(pos=10.0))

    def test_lost_positivity_on_the_document_grid(self, mass_measure, document_grid):
        with pytest.raises(
            LostPositivity,
            match=r"^stieltjes: step 1: Gram eigenvalue .* below 1\.0e\+01; the resolution on "
            r"M' = 4096 of M = 4096 nodes is M'/2 \+ sum rank_k = 2048 \+ 1 = 2049$",
        ):
            stieltjes(mass_measure, 3, Tolerances(pos=10.0))

    def test_not_hermitian_names_its_threshold(self, semicircle_measure, monkeypatch):
        # complex abscissae make the first B block non-Hermitian
        tilt_grid(monkeypatch, shift=0.1j)
        with pytest.raises(
            NotHermitian,
            match=r"^stieltjes: step 1: B block defect .* above 1e-8 x max\(1, \|\|B\|\|\) = ",
        ):
            stieltjes(semicircle_measure, 3)

    def test_negative_gram_eigenvalue_names_its_step(self, semicircle_measure, monkeypatch):
        # only reachable when tol.pos <= 0 lets a negative Gram eigenvalue
        # past the positivity test; shift every eigenvalue down by 2
        gram_eigh = polynomials._gram_eigh

        def shifted(q):
            lam, vec = gram_eigh(q)
            return lam - 2.0, vec

        monkeypatch.setattr(polynomials, "_gram_eigh", shifted)
        with pytest.raises(
            NegativeEigenvalue,
            match=r"^stieltjes: step 1: Gram eigenvalue -1\.000e\+00 below -1\.0e-10$",
        ):
            stieltjes(semicircle_measure, 3, Tolerances(pos=-np.inf))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_gram_overflow_names_its_step(self, dim, monkeypatch):
        # abscissae past about 1e154 overflow the Gram matrix x^2 |p|^2; the
        # first step is refused without a RuntimeWarning, before eigh sees it
        mu = make_measure(SemicircleDensity(dim), quad_order=1024, normalize="strict")
        tilt_grid(monkeypatch, scale=1e160)
        with pytest.raises(
            NumericalError,
            match=r"^stieltjes: step 1: Gram matrix not finite at max \|x\| = 2\.000e\+160; ",
        ):
            stieltjes(mu, 3)

    @pytest.mark.parametrize("target", ["type1", "type2"])
    def test_polar_names_the_singular_degree(self, target):
        a = np.array([np.eye(2), np.diag([1.0, 0.0])], dtype=complex)
        jac = BlockJacobi(a=a, b=np.zeros_like(a), norm_type="type1")
        with pytest.raises(
            Singular,
            match=r"^to_type: degree 2: smallest singular value 0\.000e\+00 at or below "
            r"tol\.sing_rel x largest = 1\.000e-12$",
        ):
            to_type(jac, target)

    def test_type3_names_the_singular_degree(self):
        a = np.array([np.eye(2), np.diag([1.0, 0.0])], dtype=complex)
        jac = BlockJacobi(a=a, b=np.zeros_like(a), norm_type="type1")
        with pytest.raises(
            Singular,
            match=r"^to_type: degree 2: LQ factor diagonal min \|d\| 0\.000e\+00 at or below "
            r"tol\.sing_rel x max\(1, max \|d\|\) = 1\.000e-12$",
        ):
            to_type(jac, "type3")


class TestHermitianDecision:
    # Tilting the abscissae of the document's M-node fold by i eps
    # (tilt_grid) adds i eps W_grid to B_1, W_grid the grid part of the
    # shipped 2x2 mass measure's total mass, whose
    # eigenvalues differ; so the defect's Frobenius bracket is wide, and
    # each tilt puts it in one zone relative to the 1e-8 x max(1, ||B||)
    # floor: wholly below, across with the exact defect below or above,
    # and wholly above. The test reads the exact norms in every zone.
    CASES = [
        (2.0e-9, "below", False),
        (4.4e-9, "across", False),
        (5.2e-9, "across", True),
        (1.1e-8, "above", True),
    ]

    @pytest.mark.parametrize("eps, zone, raised", CASES)
    def test_matches_the_exact_svd_test(self, shipped_measures, monkeypatch, eps, zone, raised):
        mu = shipped_measures["matrix_semicircle_mass"]
        blocks = []
        check = polynomials._check_hermitian

        def spy_check(b, step):
            blocks.append(b.copy())
            return check(b, step)

        monkeypatch.setattr(polynomials, "_check_hermitian", spy_check)
        tilt_grid(monkeypatch, shift=1j * eps)
        try:
            stieltjes(mu, 1)
            got = False
        except NotHermitian:
            got = True
        (b,) = blocks
        defect = b - b.conj().T
        floor = 1e-8 * max(1.0, float(operator_norm(b)))
        bracket = BracketedNorm(defect)
        where = "below" if bracket.hi <= floor else "above" if bracket.lo > floor else "across"
        assert zone == where
        assert got == raised == (float(operator_norm(defect)) > floor)

    def test_frobenius_pass_is_the_exact_pass(self):
        # skew defects with Frobenius norm about 1e-8 and operator norm
        # a factor up to sqrt(l) below it: each block raises exactly when
        # the exact SVD test says so
        rng = np.random.default_rng(23)
        for l in (1, 2, 4):
            for scale in np.linspace(0.95e-8, 1.6e-8, 40):
                h = rng.standard_normal((l, l)) + 1j * rng.standard_normal((l, l))
                skew = h - h.conj().T
                b = np.diag(rng.uniform(0.5, 2.0, l)) + 0.5 * scale * skew / np.linalg.norm(skew)
                defect = float(operator_norm(b - b.conj().T))
                exact = defect > 1e-8 * max(1.0, float(operator_norm(b)))
                try:
                    polynomials._check_hermitian(b, 1)
                    raised = False
                except NotHermitian:
                    raised = True
                assert raised == exact, (l, scale)


def _random_measure(l, m_grid, seed):
    """Table weight with a far rank-deficient mass and a near-band mass."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(l) + 1j * rng.standard_normal(l)
    far = 0.05 * np.outer(v, v.conj())  # rank one (full rank only when l = 1)
    near = 0.05 * np.eye(l, dtype=complex)
    if l > 1:  # rank l - 1: the complement of v
        near -= 0.05 * np.outer(v, v.conj()) / (v.conj() @ v)
    samples = random_smooth_weight(rng, l, m_grid)
    return make_measure(TableDensity(samples), [(-2.7, far), (2.03, near)], quad_order=m_grid)


def _defect_tiling(mu, n):
    """(row chunk lengths, row step, column tiles) of orthonormality_defect
    on a degree-n sequence of mu, by its rule: tiles of
    width = max(1, 64 // l) l columns, and chunks of
    max(1, 4096 // (width l)) l rows, first over the M/2 node rows, then
    over the mass rows (one per unit of each mass's multiplicity)."""
    l = mu.dim
    width = max(1, 64 // l) * l
    step = max(1, (1 << 12) // (width * l)) * l
    grid_rows = mu.quad_order // 2 * l
    total = grid_rows + sum(s.multiplicity for s in mu.bound_states)
    bounds = list(range(0, grid_rows, step)) + list(range(grid_rows, total, step)) + [total]
    return np.diff(bounds), step, -(-(n + 1) * l // width)


class TestGramDefect:
    # (l, M, n, window): the defect of the degree-n sequence sums at least
    # two row chunks, one of them partial, over more than one column tile
    CASES = [(1, 512, 64, 40), (2, 256, 32, 20), (3, 128, 24, 24), (4, 128, 20, 12)]

    @pytest.mark.parametrize("l, m_grid, n, window", CASES)
    def test_matches_pairwise_inner_products(self, l, m_grid, n, window):
        mu = _random_measure(l, m_grid, seed=100 + l)
        chunks, step, tiles = _defect_tiling(mu, n)
        assert chunks.size >= 2 and chunks.min() < step and tiles > 1
        seq = stieltjes(mu, n)
        assert [s.multiplicity for s in mu.bound_states] == [1, max(1, l - 1)]
        assert np.any(seq.mass_values[-1, 1] != 0)  # the near-band mass is still live

        gv, mv = grid_values(seq), seq.mass_values
        pairs = {
            (i, j): inner_product(mu, gv[i], mv[i], gv[j], mv[j]) - (i == j) * np.eye(l)
            for i in range(n + 1) for j in range(i, n + 1)
        }
        cols = (n + 1) * l
        fv = gv.transpose(1, 2, 0, 3).reshape(m_grid, l, cols)
        fe = mv.transpose(1, 2, 0, 3).reshape(2, l, cols)
        gram = inner_product(mu, fv, fe, fv, fe) - np.eye(cols)
        for (i, j), ref in pairs.items():
            block = gram[i * l : (i + 1) * l, j * l : (j + 1) * l]
            assert float(np.max(np.abs(block - ref))) < 1e-14

        # a sequence of degree window runs the same first steps
        for degree, part in ((n, seq), (window, stieltjes(mu, window))):
            ref = max(float(operator_norm(g)) for (i, j), g in pairs.items() if j <= degree)
            assert abs(orthonormality_defect(part) - ref) < 1e-14


def _mp_matrix(a):
    return mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in a])


def _mp_sqrt2(g):
    """Hermitian PD square root of a 2x2 matrix: (G + sqrt(det G) I) / sqrt(tr G + 2 sqrt(det G))."""
    s = mpmath.sqrt(mpmath.re(mpmath.det(g)))
    return (g + s * mpmath.eye(2)) / mpmath.sqrt(mpmath.re(g[0, 0] + g[1, 1]) + 2 * s)


def _gram_schmidt_blocks(mu, n):
    """Type-1 A and B blocks of mu's discrete inner product, by block
    Gram-Schmidt at 50 digits.

    The nodes are the grid abscissae with weights w(t_m) / M and the mass
    energies with their weights, taken as exact data. Each x p_k is
    orthogonalized against every earlier p_j, and normalized by the
    Hermitian square root of its Gram matrix (the type-1 choice).
    """
    with mpmath.workdps(50):
        m = mu.quad_order
        nodes = [(mpmath.mpf(float(x)), _mp_matrix(w) / m)
                 for x, w in zip(2.0 * np.cos(midpoint_nodes(m)), mu.weight.values)]
        nodes += [(mpmath.mpf(s.energy), _mp_matrix(s.weight)) for s in mu.bound_states]

        def inner(f, g):
            out = mpmath.zeros(2, 2)
            for (_, w), fv, gv in zip(nodes, f, g):
                out += fv.H * w * gv
            return out

        basis = [[mpmath.eye(2) for _ in nodes]]
        a_blocks, b_blocks = [], []
        for _ in range(n):
            xp = [x * v for (x, _), v in zip(nodes, basis[-1])]
            b_blocks.append(inner(basis[-1], xp))
            q = xp
            for p in basis:
                c = inner(p, q)
                q = [qv - pv * c for qv, pv in zip(q, p)]
            a = _mp_sqrt2(inner(q, q))
            basis.append([qv * a**-1 for qv in q])
            a_blocks.append(a)
        to_np = lambda blocks: np.array([[[complex(v) for v in (b[i, 0], b[i, 1])]
                                         for i in range(2)] for b in blocks])
        return to_np(a_blocks), to_np(b_blocks)


class TestMultiprecisionOracle:
    def test_blocks_match_gram_schmidt_at_50_digits(self):
        # 2x2 non-commuting table on 16 nodes (8 distinct abscissae) with a
        # rank-one mass: a 17-dimensional space, so degree 6 is well inside it
        t = midpoint_nodes(16)
        b0 = np.array([[2.0, 0.3 - 0.4j], [0.3 + 0.4j, 1.5]])
        b1 = np.array([[0.5, 0.2j], [-0.2j, -0.3]])
        b2 = np.array([[0.1, 0.25], [0.25, 0.2]])
        samples = b0 + np.cos(t)[:, None, None] * b1 + np.cos(2 * t)[:, None, None] * b2
        v = np.array([1.0, 0.5 - 0.5j])
        mu = make_measure(TableDensity(samples), [(3.0, 0.3 * np.outer(v, v.conj()))],
                          quad_order=16)
        assert [s.multiplicity for s in mu.bound_states] == [1]
        n = 6
        a_ref, b_ref = _gram_schmidt_blocks(mu, n)
        jac = stieltjes(mu, n).jacobi
        assert float(np.max(np.abs(jac.a - a_ref))) < 1e-12
        assert float(np.max(np.abs(jac.b - b_ref))) < 1e-12


@pytest.fixture(scope="module")
def deep_measure():
    # l = 4, M = 512 with a slowly decaying mass that forces a full
    # re-orthogonalization pass nearly every step up to n = 100
    u = np.linalg.qr(np.arange(16.0).reshape(4, 4) ** 0.5 + np.eye(4))[0]
    density = ConjugatedDiagonalDensity(
        [SemicircleDensity(1), ArcsineDensity(1)] * 2, unitary=u
    )
    masses = [(2.08, 0.1 * np.outer(u[0], u[0])), (-2.6, 0.1 * np.outer(u[3], u[3]))]
    return make_measure(density, masses, quad_order=512)


class TestMemory:
    def test_peak_stays_near_the_returned_values(self, deep_measure):
        # the weight has band 2, so degree 100 runs on 256 of the 512 nodes;
        # beyond the buffer itself (3.3 MB), the returned whitened rows, the
        # peak is about 235 KB, 3.5% of the 6.6 MB of values: a copy of the
        # basis or of a window (1 MB) would show. numpy loads numpy.fft, which
        # the grid rule uses, on first use: a first run keeps its import out
        stieltjes(deep_measure, 100)
        tracemalloc.start()
        try:
            seq = stieltjes(deep_measure, 100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - seq._y.nbytes <= 0.04 * grid_values(seq).nbytes

    def test_buffer_is_read_only(self, deep_measure):
        # no reader can unwhiten the rows in place; a degree's l columns
        # are contiguous
        seq = stieltjes(deep_measure, 100)
        assert seq._y.flags.f_contiguous
        with pytest.raises(ValueError, match="read-only"):
            seq._y[0, 0] = 1.0

    def test_every_buffer_entry_is_written(self, deep_measure, monkeypatch):
        # the buffer is left uninitialized; an entry read before it is
        # written would carry a NaN from a NaN-filled np.empty into the rows
        want = stieltjes(deep_measure, 40)._y
        empty = np.empty

        def nan_empty(*args, **kwargs):
            out = empty(*args, **kwargs)
            if out.dtype.kind in "fc":
                out.fill(np.nan)
            return out

        monkeypatch.setattr(np, "empty", nan_empty)
        got = stieltjes(deep_measure, 40)._y
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_defect_never_stacks_the_whole_grid(self, deep_measure, monkeypatch):
        # the values are 6.6 MB on the recurrence's 256 nodes and 13 MB on
        # the document's 512, and so would be a weighted copy of them; the
        # node chunks keep the peak at the Gram tiles, about 270 KB whatever
        # the number of rows
        for rule, values in ((polynomials._recurrence_grid, 6.6e6), (_document_grid, 13e6)):
            monkeypatch.setattr(polynomials, "_recurrence_grid", rule)
            seq = stieltjes(deep_measure, 100)
            assert grid_values(seq).nbytes > values
            tracemalloc.start()
            try:
                orthonormality_defect(seq)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 320e3, values

    def test_residual_holds_no_stack_of_values(self, deep_measure, monkeypatch):
        # on the document's 512 nodes: one panel's defect is 64 KB and the
        # residual peaks near 370 KB; with a row per grid node it peaks near
        # 675 KB, and three unwhitened degrees of all M nodes reach about
        # 1 MB. The recurrence's 256 nodes would halve those, so they are
        # held to the peak on 512
        peaks = []
        for rule in (_document_grid, polynomials._recurrence_grid):
            monkeypatch.setattr(polynomials, "_recurrence_grid", rule)
            seq = stieltjes(deep_measure, 100)
            tracemalloc.start()
            try:
                recurrence_residual(seq)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 500e3 and peaks[1] <= peaks[0]


class TestHighDegree:
    """The loop at degrees where re-orthogonalization has to act."""

    N = 400

    def test_free_semicircle_stays_free(self, shipped_measures):
        seq = stieltjes(shipped_measures["free_semicircle"], self.N)
        assert float(np.max(np.abs(seq.jacobi.a - 1.0))) <= 1e-12
        assert float(np.max(np.abs(seq.jacobi.b))) <= 1e-12

    def test_arcsine_closed_form(self, shipped_measures):
        jac = stieltjes(shipped_measures["arcsine"], self.N).jacobi
        ref = np.ones(self.N)
        ref[0] = np.sqrt(2.0)
        assert float(np.max(np.abs(jac.a[:, 0, 0] - ref))) <= 1e-12
        assert float(np.max(np.abs(jac.b))) <= 1e-12

    def test_conjugated_channels_closed_form(self, shipped_measures):
        # u A_k u* = diag(semicircle, arcsine) channel by channel
        mu = shipped_measures["matrix_conjugated"]
        u = mu.density.unitary
        jac = stieltjes(mu, self.N).jacobi
        ref = np.zeros((self.N, 2, 2))
        ref[:, 0, 0] = ref[:, 1, 1] = 1.0
        ref[0, 1, 1] = np.sqrt(2.0)
        assert float(np.max(np.abs(u @ jac.a @ u.conj().T - ref))) <= 1e-12
        assert float(np.max(np.abs(jac.b))) <= 1e-12

    @pytest.mark.parametrize("n", [400, 800])
    def test_shipped_mass_sum_rule(self, mass_measure, n):
        assert check_sum_rule(mass_measure, [n]).residuals[-1] <= 1e-10

    def test_certificates_hold_over_every_degree(self, shipped_measures):
        seq = stieltjes(shipped_measures["semicircle_mass"], self.N)
        assert orthonormality_defect(seq) <= 1e-9
        assert recurrence_residual(seq) <= 1e-10


def _many_masses(l, seed, count=20, order=1024):
    """Random table weight with count masses, half above 2 and half below
    -2, at distances 1e-3..1 from the band, of random rank-one weights."""
    rng = np.random.default_rng(seed)
    masses = []
    for k in range(count):
        v = rng.standard_normal(l) + 1j * rng.standard_normal(l)
        energy = (1 if k % 2 else -1) * (2.0 + 10.0 ** rng.uniform(-3.0, 0.0))
        masses.append((energy, rng.uniform(0.002, 0.02) * np.outer(v, v.conj()) / (v.conj() @ v)))
    samples = random_smooth_weight(rng, l, order)
    return make_measure(TableDensity(samples), masses, quad_order=order)


def _every_step(monkeypatch, mu, n):
    """The reference run: a zero threshold re-orthogonalizes every block."""
    with monkeypatch.context() as m:
        m.setattr(polynomials, "_REORTH_THRESHOLD", 0.0)
        return stieltjes(mu, n)


class TestPartialReorthogonalization:
    # the A and B blocks of the partial run stay within this of the
    # every-step reference run
    BLOCK_GAP = 1e-13

    def _compare(self, monkeypatch, mu, n):
        seq = stieltjes(mu, n)
        ref = _every_step(monkeypatch, mu, n)
        assert ref.reorthogonalization_passes == n
        assert seq.reorthogonalization_passes < n // 4
        assert float(np.max(np.abs(seq.jacobi.a - ref.jacobi.a))) <= self.BLOCK_GAP
        assert float(np.max(np.abs(seq.jacobi.b - ref.jacobi.b))) <= self.BLOCK_GAP
        assert orthonormality_defect(seq) <= 1e-9
        return seq

    def test_matches_every_step_on_live_masses(self, monkeypatch, deep_measure):
        self._compare(monkeypatch, deep_measure, 100)

    @pytest.mark.parametrize("l, seed", [(1, 301), (1, 302), (2, 303)])
    def test_matches_every_step_on_many_masses(self, monkeypatch, l, seed):
        mu = _many_masses(l, seed)
        assert sorted(np.sign([s.energy for s in mu.bound_states])) == [-1] * 10 + [1] * 10
        self._compare(monkeypatch, mu, 400)

    def test_passes_are_deterministic(self, deep_measure):
        counts = {stieltjes(deep_measure, 100).reorthogonalization_passes for _ in range(2)}
        assert len(counts) == 1 and counts.pop() > 0

    def test_pass_count_on_the_mass_ledger(self):
        # 80 masses at +-(2 + 0.5 / k^2) with weights 0.05 / k^2; the near-band
        # ones stay live for over a thousand steps
        masses = [(sign * (2.0 + 0.5 / k**2), [[0.05 / k**2]])
                  for k in range(1, 41) for sign in (1, -1)]
        mu = make_measure(SemicircleDensity(1), masses, quad_order=4096)
        seq = stieltjes(mu, 1800)
        assert seq.reorthogonalization_passes <= 250

    def test_lost_orthogonality_is_refused(self, monkeypatch, deep_measure):
        # without any pass the live masses' rounding noise swamps the basis
        monkeypatch.setattr(polynomials, "_REORTH_THRESHOLD", np.inf)
        with pytest.raises(LostOrthogonality, match=r"^stieltjes: degree 100: orthonormality "
                           r"defect .* against degrees 0\.\.100 above tol\.orth 1\.0e-07$"):
            stieltjes(deep_measure, 100)


class TestResolution:
    # M = 64: 32 distinct abscissae of l dimensions each, and a rank-one
    # mass adds one dimension, a whole block only when l = 1
    @pytest.mark.parametrize("l, masses, top", [
        (1, [], 31), (1, [(3.0, [[0.1]])], 32), (2, [], 31), (2, [(3.0, [[0.1, 0], [0, 0]])], 31),
    ])
    def test_degrees_up_to_the_resolution(self, l, masses, top):
        mu = make_measure(SemicircleDensity(l), masses, quad_order=64)
        assert stieltjes(mu, top).degree == top
        with pytest.raises(LostPositivity, match=r"^stieltjes: degree .* dimensions; the discrete "
                           r"measure has \(M/2\) l \+ sum rank_k = 32 x "):
            stieltjes(mu, top + 1)


def _residual_reference(seq):
    """The recurrence defect on a stack of every degree's unwhitened values."""
    a, b = seq.jacobi.a, seq.jacobi.b
    p = grid_values(seq)
    x = 2.0 * np.cos(grid_theta(seq))[:, None, None]
    worst = 0.0
    for n in range(seq.degree):
        res = x * p[n] - polynomials._times(p[n + 1], a[n].conj().T)
        res -= polynomials._times(p[n], b[n])
        if n > 0:
            res -= polynomials._times(p[n - 1], a[n - 1])
        worst = max(worst, max_operator_norm(res))
    return worst


@pytest.fixture(scope="module")
def deep_shapes(deep_measure):
    """The recurrence benchmark's three shapes at M = 512: the 4x4
    deep_measure, the 2x2 semicircle with a rank-one mass and the 2x2
    conjugated semicircle-arcsine pair."""
    w = np.array([[0.072, -0.096j], [0.096j, 0.128]])
    pair = ConjugatedDiagonalDensity([SemicircleDensity(1), ArcsineDensity(1)],
                                     unitary=np.array([[0.6, 0.8j], [0.8j, 0.6]]))
    return {
        "deep_measure": deep_measure,
        "mass_2_m512": make_measure(SemicircleDensity(2), [(2.5, w)], quad_order=512),
        "conjugated_2_m512": make_measure(pair, quad_order=512, normalize="strict"),
    }


@pytest.fixture(scope="module")
def residual_cases(shipped_measures, deep_shapes):
    """Sequences at n = 100: the shipped specs and the recurrence
    benchmark's shapes (deep_shapes), each of these also in type 2."""
    measures = dict(shipped_measures, **deep_shapes)
    out = {}
    for name, mu in measures.items():
        seq = stieltjes(mu, 100)
        out[name] = seq
        if name not in SHIPPED:
            out[name + "-type2"] = apply_transform(seq, *to_type(seq.jacobi, "type2"))
    return out


class TestRecurrenceResidual:
    def test_matches_the_unwhitened_formula(self, residual_cases):
        for name, seq in residual_cases.items():
            got, ref = recurrence_residual(seq), _residual_reference(seq)
            assert got <= 1e-11 and abs(got - ref) <= 1e-12, name

    @pytest.mark.parametrize("name", ["matrix_conjugated", "deep_measure", "deep_measure-type2"])
    def test_a_perturbed_block_shows(self, residual_cases, name):
        seq = copy.copy(residual_cases[name])
        a = seq.jacobi.a.copy()
        a[40] += 1e-6 * np.eye(seq.measure.dim)
        seq.jacobi = dataclasses.replace(seq.jacobi, a=a)
        assert recurrence_residual(seq) > 1e-7
        assert _residual_reference(seq) > 1e-7


# The per-degree loops that recurrence_residual, orthonormality_defect
# and type_defect ran before their panel and stack kernels, kept as
# references. The Gram defect and the type defect do the same arithmetic
# and must give the same floats; the residual's panels sum the three
# block products in one GEMM, so its float may move at rounding level.


def _loop_residual(seq):
    """recurrence_residual one degree at a time: three products of the
    whitened rows, the defect unwhitened node by node, every block's norm."""
    a, b, s = seq.jacobi.a, seq.jacobi.b, seq.sigma
    if s is not None:
        s_adj = s.conj().transpose(0, 2, 1)
        a, b = s[:-1] @ a @ s_adj[1:], s[:-1] @ b @ s_adj[:-1]
    fold, l = seq.fold, seq.measure.dim
    half = fold.x.shape[0]
    rows, inv_root = seq._y[: half * l], fold.inverse
    x_rows = np.repeat(fold.x, l)[:, None]
    worst = 0.0
    for n in range(seq.degree):
        q = rows[:, n * l : (n + 1) * l]
        res = x_rows * q
        res -= polynomials._column_major(rows[:, (n + 1) * l : (n + 2) * l], a[n].conj().T)
        res -= polynomials._column_major(q, b[n])
        if n > 0:
            res -= polynomials._column_major(rows[:, (n - 1) * l : n * l], a[n - 1])
        nodes = res.reshape(half, l, l)
        worst = max(worst, max_operator_norm(polynomials._node_product(inv_root, nodes, nodes)))
    return worst


def _loop_gram_defect(seq):
    """orthonormality_defect with every tile's blocks decomposed."""
    y, l = seq._y, seq.measure.dim
    cols = (seq.degree + 1) * l
    width = max(1, 64 // l) * l
    grid_rows, total = seq.fold.x.shape[0] * l, y.shape[0]
    step = max(1, (1 << 12) // (width * l)) * l
    bounds = list(range(0, grid_rows, step)) + list(range(grid_rows, total, step)) + [total]
    worst = 0.0
    for a in range(0, cols, width):
        left = y[:, a : min(a + width, cols)]
        for b in range(a, cols, width):
            right = y[:, b : min(b + width, cols)]
            tile = left[: bounds[1]].conj().T @ right[: bounds[1]]
            for start, stop in zip(bounds[1:-1], bounds[2:]):
                tile += left[start:stop].conj().T @ right[start:stop]
            ni, nj = tile.shape[0] // l, tile.shape[1] // l
            blocks = tile.reshape(ni, l, nj, l).transpose(0, 2, 1, 3)
            if a == b:
                i, j = np.triu_indices(ni)
                blocks = blocks[i, j]
                blocks[i == j] -= np.eye(l)
            worst = max(worst, max_operator_norm(blocks.reshape(-1, l, l)))
    return worst


def _loop_type_defect(jacobi):
    """type_defect one block at a time."""
    a = jacobi.a
    if jacobi.norm_type == "type1":
        return polynomials.hermitian_defect(a)
    worst = 0.0
    if jacobi.norm_type == "type2":
        cum = np.eye(jacobi.dim, dtype=complex)
        for m in a:
            cum = cum @ m
            worst = max(worst, polynomials.hermitian_defect(cum))
        return worst
    for m in a:
        worst = max(worst, float(np.max(np.abs(np.triu(m, 1)))))
        diag = np.diagonal(m)
        worst = max(worst, float(np.max(np.abs(diag.imag))))
        worst = max(worst, float(max(0.0, -np.min(diag.real))))
    return worst


def _assert_kernels_match_the_loops(seq, label):
    ref = _loop_residual(seq)
    # 1e-13 of the unit scale of orthonormal values: the defect of terms of
    # size about ||x|| ||p_n|| left at rounding level
    assert abs(recurrence_residual(seq) - ref) <= 1e-13 * max(1.0, ref), label
    assert orthonormality_defect(seq) == _loop_gram_defect(seq), label
    for target in NORM_TYPES:
        jac = seq.jacobi if target == seq.jacobi.norm_type else to_type(seq.jacobi, target)[0]
        assert type_defect(jac) == _loop_type_defect(jac), (label, target)


@st.composite
def generated_sequences(draw):
    """(measure, degree, normalization type): table weights of l <= 4 on 16
    to 64 nodes, with up to two masses of any rank, at a degree up to the
    measure's resolution."""
    l = draw(st.integers(1, 4))
    m_grid = draw(st.sampled_from([16, 32, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    masses = []
    for energy in draw(st.lists(st.sampled_from([-3.1, -2.4, 2.2, 2.9]), max_size=2, unique=True)):
        v = rng.standard_normal((l, draw(st.integers(1, l))))
        v = v + 1j * rng.standard_normal(v.shape)
        masses.append((energy, 0.05 * v @ v.conj().T))
    mu = make_measure(TableDensity(random_smooth_weight(rng, l, m_grid)), masses,
                      quad_order=m_grid)
    ranks = sum(s.multiplicity for s in mu.bound_states)
    n = draw(st.integers(1, (m_grid // 2 * l + ranks) // l - 1))
    return mu, n, draw(st.sampled_from(NORM_TYPES))


class TestKernelsMatchTheLoops:
    def test_on_the_shipped_and_benchmark_shapes(self, residual_cases):
        for name, seq in residual_cases.items():
            _assert_kernels_match_the_loops(seq, name)

    @pytest.mark.parametrize("l, m_grid, n", [(3, 1024, 40), (2, 4096, 7)])
    def test_panels_that_split_the_nodes(self, l, m_grid, n):
        # (M/2) l^2 entries exceed a panel, so the panels split the nodes:
        # 455 + 57 of 512 nodes for l = 3, 1024 + 1024 of 2048 for l = 2
        mu = _random_measure(l, m_grid, seed=300 + l)
        seq = stieltjes(mu, n)
        _assert_kernels_match_the_loops(seq, (l, m_grid))
        _assert_kernels_match_the_loops(apply_transform(seq, *to_type(seq.jacobi, "type2")),
                                        (l, m_grid, "type2"))

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(generated_sequences())
    def test_on_generated_measures(self, case):
        mu, n, target = case
        seq = stieltjes(mu, n)
        if target != "type1":
            seq = apply_transform(seq, *to_type(seq.jacobi, target))
        _assert_kernels_match_the_loops(seq, (mu.dim, mu.quad_order, n, target))

    def test_type3_defect_reads_every_block(self):
        # each kind of departure from type 3 in a different block, signed
        # zeros on the diagonal
        a = np.zeros((4, 3, 3), dtype=complex)
        a[:] = np.diag([1.0, -0.0, 2.0])
        a[1, 0, 2] = 3e-9j
        a[2, 1, 1] = 1.0 + 4e-9j
        a[3, 2, 2] = -5e-9
        jac = BlockJacobi(a=a, b=np.zeros_like(a), norm_type="type3")
        assert type_defect(jac) == _loop_type_defect(jac) == 5e-9
        jac = BlockJacobi(a=a[:1], b=np.zeros_like(a[:1]), norm_type="type3")
        assert type_defect(jac) == _loop_type_defect(jac) == 0.0


def _loop_to_type(jacobi, target):
    """to_type's type-2 and type-3 unitaries one degree at a time: the polar
    factor of each running product A_1 ... A_k, or the phase-fixed LQ factor
    of each sigma_k* A_k."""
    n, l = jacobi.block_count, jacobi.dim
    sigma = np.empty((n + 1, l, l), dtype=complex)
    sigma[0] = np.eye(l)
    cum = np.eye(l, dtype=complex)
    for k in range(n):
        if target == "type2":
            cum = cum @ jacobi.a[k]
            sigma[k + 1] = left_polar(cum)[0].conj().T
        else:
            q, r = np.linalg.qr((sigma[k].conj().T @ jacobi.a[k]).conj().T)
            d = np.diagonal(r)
            sigma[k + 1] = q * (d / np.abs(d))[None, :]
    left = sigma[:-1].conj().transpose(0, 2, 1)
    blocks = BlockJacobi(a=left @ jacobi.a @ sigma[1:], b=left @ jacobi.b @ sigma[:-1],
                         norm_type=target)
    return blocks, sigma


def _assert_transforms_match_the_loops(jac, label):
    """Types 2 and 3 bitwise as the loops, the type-3 defect at rounding."""
    for target in ("type2", "type3"):
        got, sigma = to_type(jac, target)
        want, want_sigma = _loop_to_type(jac, target)
        assert sigma.tobytes() == want_sigma.tobytes(), (label, target)
        assert got.a.tobytes() == want.a.tobytes(), (label, target)
        assert got.b.tobytes() == want.b.tobytes(), (label, target)
    assert type_defect(got) <= 1e-13 * max(1.0, max_operator_norm(jac.a)), label


class TestBatchedTransforms:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(generated_sequences(), st.data())
    def test_on_generated_measures(self, case, data):
        mu, n, _ = case
        jac = stieltjes(mu, n).jacobi
        _assert_transforms_match_the_loops(jac, (mu.dim, mu.quad_order, n))
        # a zero last column makes A_degree, and every later product, singular
        degree = data.draw(st.integers(1, n))
        a = jac.a.copy()
        a[degree - 1, :, -1] = 0.0
        singular = BlockJacobi(a=a, b=jac.b, norm_type="type1")
        for target in NORM_TYPES:
            with pytest.raises(Singular, match=rf"^to_type: degree {degree}: "):
                to_type(singular, target)

    @pytest.mark.parametrize("energy", [50.0, 1e5])
    def test_far_mass(self, energy):
        # a far mass makes A_1 large, about 16 at E = 50 and 3e4 at E = 1e5
        v = np.array([1.0, 0.5j])
        mu = make_measure(SemicircleDensity(2), [(energy, 0.1 * np.outer(v, v.conj()))],
                          quad_order=1024)
        _assert_transforms_match_the_loops(stieltjes(mu, 100).jacobi, energy)

    def test_gapped_channel(self):
        # u* diag(w_1, w_2) u with w_1 = 1 and w_2 the semicircle of [-1, 1]
        # over a floor of 1e-14: the second channel's blocks tend to 1/2, so
        # cond(A_1 ... A_k) passes 1e4 by k = 100. An LQ of those products
        # read type 3 with defect 5.4e-13 and blocks 5.4e-13 off the loop's;
        # each sigma_k* A_k is well conditioned, and the loop stays at rounding
        m_grid = 1024
        theta = midpoint_nodes(m_grid)
        s, x = np.abs(np.sin(theta)), 2.0 * np.cos(theta)
        w = np.stack([np.ones(m_grid), 4.0 * s * np.sqrt(np.maximum(1.0 - x * x, 0.0)) + 1e-14])
        cs, sn = np.cos(0.3), np.sin(0.3) * np.exp(0.7j)
        u = np.array([[cs, sn], [-sn.conjugate(), cs]])
        vals = np.einsum("ji,jm,jk->mik", u.conj(), w / (2.0 * np.pi * s), u)
        jac = stieltjes(make_measure(TableDensity(vals), quad_order=m_grid), 100).jacobi
        products = np.linalg.multi_dot(list(jac.a))
        assert np.linalg.cond(products) > 1e4
        _assert_transforms_match_the_loops(jac, "gapped")
        assert type_defect(to_type(jac, "type3")[0]) <= 1e-15

    def test_zero_blocks(self):
        for l in (1, 2):
            empty = np.zeros((0, l, l), dtype=complex)
            jac = BlockJacobi(a=empty, b=empty, norm_type="type1")
            for target in NORM_TYPES:
                got, sigma = to_type(jac, target)
                assert sigma.tobytes() == np.eye(l, dtype=complex)[None].tobytes(), (l, target)
                assert got.a.shape == got.b.shape == (0, l, l), (l, target)


class TestReadsLeaveTheBuffer:
    def test_defect_is_the_same_after_every_degree_is_read(self, residual_cases):
        seqs = [residual_cases["deep_measure"], residual_cases["deep_measure-type2"]]
        before = [orthonormality_defect(seq) for seq in seqs]
        for seq in seqs:
            grid_values(seq)
        assert [orthonormality_defect(seq) for seq in seqs] == before


def _unfolded_lanczos(mu, n):
    """Type-1 blocks A_1..A_n, B_1..B_n of mu's discrete inner product by a
    block Lanczos on the full grid, re-orthogonalized at every step.

    Each of the M nodes is its own l rows c_m p(x_m), with
    c_m* c_m = w(t_m) / M from that node's eigendecomposition, and each
    mass its rank_k rows R_k p(E_k). Each new block is orthogonalized
    twice against all earlier ones and normalized by the Hermitian square
    root of its Gram matrix (the type-1 choice).
    """
    l, m = mu.dim, mu.quad_order
    lam, vec = np.linalg.eigh(mu.weight.values)
    roots = [(np.sqrt(lam / m)[:, :, None] * vec.conj().transpose(0, 2, 1)).reshape(m * l, l)]
    roots += [s.root for s in mu.bound_states]
    x = np.concatenate([np.repeat(2.0 * np.cos(midpoint_nodes(m)), l)]
                       + [np.full(s.root.shape[0], s.energy) for s in mu.bound_states])[:, None]
    q = np.zeros((x.shape[0], (n + 1) * l), dtype=complex)
    q[:, :l] = np.concatenate(roots)
    a, b = np.empty((n, l, l), complex), np.empty((n, l, l), complex)
    for k in range(n):
        cur = q[:, k * l : (k + 1) * l]
        r = x * cur
        g = cur.conj().T @ r
        b[k] = 0.5 * (g + g.conj().T)
        r -= cur @ b[k]
        if k > 0:
            r -= q[:, (k - 1) * l : k * l] @ a[k - 1]
        basis = q[:, : (k + 1) * l]
        for _ in range(2):
            r -= basis @ (r.conj().T @ basis).conj().T
        g = r.conj().T @ r
        lam, vec = np.linalg.eigh(0.5 * (g + g.conj().T))
        a[k] = (vec * np.sqrt(lam)) @ vec.conj().T
        q[:, (k + 1) * l : (k + 2) * l] = r @ ((vec / np.sqrt(lam)) @ vec.conj().T)
    return a, b


def document_grid_values(seq):
    """p_0..p_n at the document's M x-nodes, (n + 1, M, l, l): each degree's
    values on the sequence's M' nodes carried to M by its trigonometric
    interpolant, exact since p_n(2 cos t) has degree n < M'/2."""
    m = seq.measure.quad_order
    out = []
    for v in grid_values(seq):
        n_vals, coeffs = fourier_coefficients(BoundarySampling(v))
        out.append(synthesize_on_grid(n_vals, coeffs, m).values)
    return np.stack(out)


def _gram_reference(seq):
    """max over i <= j of ||<<p_i, p_j>> - delta_ij I|| in the document's
    measure: every degree's values at all M nodes (document_grid_values),
    each weighted by w(t_m) / M (inner_product)."""
    mu, l, n = seq.measure, seq.measure.dim, seq.degree
    cols = (n + 1) * l
    fv = document_grid_values(seq).transpose(1, 2, 0, 3).reshape(mu.quad_order, l, cols)
    fe = seq.mass_values.transpose(1, 2, 0, 3).reshape(len(mu.bound_states), l, cols)
    gram = inner_product(mu, fv, fe, fv, fe) - np.eye(cols)
    blocks = gram.reshape(n + 1, l, n + 1, l).transpose(0, 2, 1, 3)
    i, j = np.triu_indices(n + 1)
    return max_operator_norm(blocks[i, j])


class TestFoldedGrid:
    """The recurrence runs on the M'/2 distinct abscissae of its midpoint grid."""

    def test_buffer_rows_are_the_resolution(self, shipped_measures, deep_shapes):
        # every weight here has band d <= 2, so degree 3 runs on the
        # 16 nodes above 2 x 3 + 2 + d
        for name, mu in dict(shipped_measures, **deep_shapes).items():
            ranks = sum(s.root.shape[0] for s in mu.bound_states)
            seq = stieltjes(mu, 3)
            assert seq.fold.x.size == 8, name
            assert seq._y.shape == (8 * mu.dim + ranks, 4 * mu.dim), name

    def test_buffer_rows_on_the_document_grid(self, shipped_measures, deep_shapes,
                                              document_grid):
        for name, mu in dict(shipped_measures, **deep_shapes).items():
            ranks = sum(s.root.shape[0] for s in mu.bound_states)
            seq = stieltjes(mu, 3)
            assert seq._y.shape == (mu.quad_order // 2 * mu.dim + ranks, 4 * mu.dim), name

    def test_blocks_match_an_unfolded_lanczos(self, residual_cases):
        for name, seq in residual_cases.items():
            if name.endswith("-type2"):
                continue
            a, b = _unfolded_lanczos(seq.measure, seq.degree)
            assert float(np.max(np.abs(seq.jacobi.a - a))) <= 1e-12, name
            assert float(np.max(np.abs(seq.jacobi.b - b))) <= 1e-12, name

    def test_values_are_mirror_equal_bitwise(self, residual_cases):
        for name in ("matrix_semicircle_mass", "deep_measure", "deep_measure-type2",
                     "mass_2_m512-type2"):
            seq = residual_cases[name]
            for n in (0, 1, 37, seq.degree):
                v = seq.grid_at(n)
                assert v.tobytes() == v[::-1].tobytes(), (name, n)

    def test_gram_defect_matches_the_unfolded_formula(self, residual_cases):
        for name, seq in residual_cases.items():
            got, ref = orthonormality_defect(seq), _gram_reference(seq)
            assert got <= 1e-9 and abs(got - ref) <= 1e-12, name

    def test_tied_residual_takes_few_svds(self, shipped_measures, monkeypatch):
        # the degree-0 defect of the free semicircle is at rounding level,
        # and 3,072 of its 4,096 blocks tie at the top Frobenius norm
        seq = stieltjes(shipped_measures["free_semicircle"], 1)
        blocks = []
        svd = np.linalg.svd

        def spy_svd(a, *args, **kwargs):
            blocks.append(int(np.prod(np.shape(a)[:-2])))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy_svd)
        assert recurrence_residual(seq) <= 1e-14
        assert sum(blocks) <= 4


def _document_gap(mu, n, monkeypatch):
    """(M' of the degree-n recurrence on mu, its largest block difference
    from the same recurrence on the document's M nodes)."""
    seq = stieltjes(mu, n)
    with monkeypatch.context() as patch:
        patch.setattr(polynomials, "_recurrence_grid", _document_grid)
        ref = stieltjes(mu, n)
    gap = max(float(np.max(np.abs(seq.jacobi.a - ref.jacobi.a))),
              float(np.max(np.abs(seq.jacobi.b - ref.jacobi.b))))
    return 2 * seq.fold.x.size, gap


def _band_density(weight, edge_zeros):
    """Table density whose Szego weight is the trigonometric polynomial
    weight, times 2 sin^2 t with edge_zeros; the density itself is no
    trigonometric polynomial: weight / (2 pi |sin t|), or |sin t| weight / pi."""
    s = np.abs(np.sin(midpoint_nodes(weight.shape[0])))[:, None, None]
    return TableDensity(s * weight / np.pi if edge_zeros else weight / (2.0 * np.pi * s))


@st.composite
def band_measures(draw):
    """(measure, degree): band weights of l <= 4 on 256 or 512 nodes, band
    up to 8 with or without edge zeros, with up to two masses of any rank,
    at a degree up to 40, so that the recurrence runs on at most 128 nodes."""
    l = draw(st.integers(1, 4))
    m_grid = draw(st.sampled_from([256, 512]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    weight = random_smooth_weight(rng, l, m_grid, harmonics=draw(st.integers(0, 6)))
    masses = []
    for energy in draw(st.lists(st.sampled_from([-3.1, -2.4, 2.2, 2.9]), max_size=2, unique=True)):
        v = rng.standard_normal((l, draw(st.integers(1, l))))
        v = v + 1j * rng.standard_normal(v.shape)
        masses.append((energy, 0.05 * v @ v.conj().T))
    mu = make_measure(_band_density(weight, draw(st.booleans())), masses, quad_order=m_grid)
    return mu, draw(st.integers(1, 40))


class TestDegreeSizedGrid:
    """The recurrence to degree n runs on M' nodes, the smallest power of
    two above 2 n + 2 + d and 2 d for a weight of band d, when that is
    below the document's M and the coefficients beyond d move no node's
    weight by 1e-6 of itself, and gives the blocks of the M-node run."""

    def test_blocks_match_the_document_grid(self, shipped_measures, deep_shapes, monkeypatch):
        # the arcsine weight is constant, band 0, and every other weight
        # here has band 2: M' is 64 or 128 at n = 30, 256 at n = 100
        for name, mu in dict(shipped_measures, **deep_shapes).items():
            band = 0 if name == "arcsine" else 2
            for n in (30, 100):
                got, gap = _document_gap(mu, n, monkeypatch)
                assert got == 1 << (2 * n + 2 + band).bit_length(), (name, n)
                assert gap <= 1e-13, (name, n, gap)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(band_measures())
    def test_blocks_match_on_band_weights(self, case):
        mu, n = case
        with pytest.MonkeyPatch.context() as monkeypatch:
            nodes, gap = _document_gap(mu, n, monkeypatch)
        assert nodes <= 128 < mu.quad_order and gap <= 1e-13

    def test_weight_band_limited_density_not(self, monkeypatch):
        # the covariance table of acceptance criterion 9: f = |sin t| / pi in
        # one channel, so its weight 2 sin^2 t has band 2 but its density is
        # no trigonometric polynomial; sampling the density on M' nodes loses
        # orthogonality (3.3e-3 at n = 20), the weight's coefficients do not
        theta = midpoint_nodes(1024)
        vals = np.zeros((1024, 2, 2), dtype=complex)
        vals[:, 0, 0] = 0.75 * np.abs(np.sin(theta)) / np.pi
        vals[:, 1, 1] = 1.0 / (2.0 * np.pi * np.abs(np.sin(theta)))
        mu = make_measure(TableDensity(vals), [(2.5, np.diag([0.25, 0.0]))], quad_order=1024,
                          normalize="strict")
        nodes, gap = _document_gap(mu, 20, monkeypatch)
        assert nodes == 64 and gap <= 1e-13
        assert orthonormality_defect(stieltjes(mu, 20)) <= 1e-12

    @pytest.mark.parametrize("power, m_grid, floor, nodes", [
        (3, 16384, 0.0, 16384), (5, 4096, 0.0, 4096), (5, 4096, 1e-7, 4096), (5, 4096, 1e-5, 1024),
    ])
    def test_an_algebraic_tail_keeps_the_grid(self, power, m_grid, floor, nodes, monkeypatch):
        # the weight |sin t|^p + floor in one channel has coefficients that
        # decay like k^-(p+1) and pass the 1e-13 cut below M/4 (band 2630 at
        # p = 3, 322 at p = 5), but the tail beyond the cut, 4e-11 and 4e-12
        # of max ||w||, is far above the weight near its zero: with the tail
        # dropped, the blocks at n = 100 moved by 4e-12 (p = 5, M' = 1024),
        # and by 1.6e-13 over a floor of 1e-7. A floor of 1e-5 holds the
        # tail below 1e-6 w, and the grid shrinks
        s = np.abs(np.sin(midpoint_nodes(m_grid)))
        vals = np.zeros((m_grid, 2, 2), dtype=complex)
        vals[:, 0, 0] = (s**power + floor) / (2.0 * np.pi * s)
        vals[:, 1, 1] = 1.0 / (2.0 * np.pi * s)
        mu = make_measure(TableDensity(vals), [(2.5, np.diag([0.25, 0.0]))], quad_order=m_grid)
        assert band_degree(*fourier_coefficients(mu.weight)) < m_grid // 4
        got, gap = _document_gap(mu, 100, monkeypatch)
        assert got == nodes and gap <= 1e-13

    @pytest.mark.parametrize("n, ffts", [(14, 1), (15, 0)])
    def test_no_fft_once_no_band_could_shrink_the_grid(self, n, ffts, monkeypatch):
        # on 64 nodes, degree 15 needs M' above 2 n + 2 = 32, so 64 whatever
        # the band, and the weight's coefficients are never formed
        mu = _random_measure(2, 64, seed=3)
        calls = []

        def spy(f):
            calls.append(f.node_count)
            return fourier_coefficients(f)

        monkeypatch.setattr(polynomials, "fourier_coefficients", spy)
        assert 2 * stieltjes(mu, n).fold.x.size == 64 and len(calls) == ffts

    def test_a_table_without_a_band_keeps_the_grid(self):
        # a table density of a trigonometric polynomial has the weight
        # 2 pi |sin t| f, whose coefficients decay like k^-2
        mu = _random_measure(2, 512, seed=7)
        n_vals, coeffs = fourier_coefficients(mu.weight)
        assert band_degree(n_vals, coeffs) >= 128
        assert stieltjes(mu, 5).fold.x.size == 256

    @pytest.mark.parametrize("band, nodes", [(15, 32), (16, 64)])
    def test_a_band_from_a_quarter_of_the_grid_keeps_it(self, band, nodes):
        # on 64 nodes: band 15 runs degree 1 on the 32 nodes above 2 x 15,
        # band 16 = M/4 needs 64, the whole grid
        rng = np.random.default_rng(band)
        weight = random_smooth_weight(rng, 2, 64, harmonics=band)
        mu = make_measure(_band_density(weight, False), quad_order=64)
        assert band_degree(*fourier_coefficients(mu.weight)) == band
        assert 2 * stieltjes(mu, 1).fold.x.size == nodes

    def test_verify_l2_matches_the_document_grid(self, shipped_measures, deep_shapes,
                                                 monkeypatch):
        # verify_l2 carries p_n from the M' nodes to the factor's M nodes by
        # its trigonometric interpolant. A mass at |z| = 0.99 puts B far from
        # any trigonometric polynomial of degree below M' (taking the norm on
        # the 256 nodes moves it by 9e-3 at n = 60), and a band-66 2x2
        # weight takes the Wilson factor
        rng = np.random.default_rng(5)
        band_66 = random_smooth_weight(rng, 2, 4096, harmonics=66)
        wilson = make_measure(_band_density(band_66, False), [(2.6, 0.05 * np.eye(2))],
                              quad_order=4096)
        near = make_measure(SemicircleDensity(1), [(2.0001, [[0.05]])], quad_order=4096)
        measures = dict(shipped_measures, **deep_shapes, wilson=wilson, near_band_mass=near)
        for name, mu in measures.items():
            lim = build_pipeline(mu)
            assert (lim.outer.path == "wilson") == (name == "wilson")
            got, nodes = _l2_residuals(lim, mu)
            with monkeypatch.context() as patch:
                patch.setattr(polynomials, "_recurrence_grid", _document_grid)
                ref, _ = _l2_residuals(lim, mu)
            assert nodes < mu.quad_order, name
            assert float(np.max(np.abs(got - ref))) <= 1e-12, name


def _l2_residuals(lim, mu):
    """(verify_l2 at n = 5, 20, 60, 100, node count of the recurrence grid)."""
    seq = stieltjes(mu, 100)
    pseq2 = apply_transform(seq, *to_type(seq.jacobi, "type2"))
    return verify_l2(lim, pseq2, [5, 20, 60, 100]), 2 * seq.fold.x.size


def _lazy_measure(l, live):
    """Table weight on 64 nodes with a far mass, frozen by degree 16, and
    with live=True a near-band mass still live at degree 16."""
    rng = np.random.default_rng(200 + l)
    v = rng.standard_normal(l) + 1j * rng.standard_normal(l)
    masses = [(-6.0, 0.05 * np.outer(v, v.conj()))]
    if live:
        masses.append((2.03, 0.05 * np.eye(l, dtype=complex)))
    samples = random_smooth_weight(rng, l, 64)
    return make_measure(TableDensity(samples), masses, quad_order=64)


LAZY_DEGREE = 16

# read plans: (sequence, read) in order; "full" reads every degree upward
# and mass_values, "each" reads grid_at(n) for every degree, downward
READ_PLANS = {
    "degrees_first": [("type1", "each"), ("type2", "each"), ("type3", "each"),
                      ("type2", "full"), ("type1", "full"), ("type3", "full"),
                      ("type3", "each"), ("type1", "each")],
    "base_full_first": [("type1", "full"), ("type2", "each"), ("type3", "full"),
                        ("type2", "full"), ("type3", "each"), ("type1", "each")],
    "transform_full_first": [("type2", "full"), ("type1", "each"), ("type1", "full"),
                             ("type3", "each"), ("type3", "full"), ("type2", "each")],
}


class TestLazyValues:
    @pytest.fixture(scope="class", params=[(l, live) for l in (1, 2, 4, 8) for live in (False, True)],
                    ids=lambda p: f"l{p[0]}-{'live' if p[1] else 'frozen'}")
    def case(self, request):
        """(measure, eager values per type, transforms): every node row
        unwhitened by one full-width node product right after the
        recurrence and mirrored onto the other half of the grid, and each
        transform rotating every degree at once."""
        l, live = request.param
        mu = _lazy_measure(l, live)
        seq = stieltjes(mu, LAZY_DEGREE)
        half = seq.fold.x.size
        rows = seq._y[: half * l].reshape(half, l, -1)
        full = polynomials._node_product(seq.fold.inverse, rows, np.empty(rows.shape, complex))
        full = np.concatenate([full, full[::-1]])
        grid = full.reshape(2 * half, l, LAZY_DEGREE + 1, l).transpose(2, 0, 1, 3)
        mass = seq.mass_values
        assert np.any(mass[-1, -1] != 0) == live and not np.any(mass[-1, 0])
        eager = {"type1": (grid, mass)}
        transforms = {}
        for target in ("type2", "type3"):
            transforms[target] = to_type(seq.jacobi, target)
            sigma = transforms[target][1]
            eager[target] = (np.einsum("kmij,kjl->kmil", grid, sigma),
                             np.einsum("kmij,kjl->kmil", mass, sigma))
        return mu, eager, transforms

    @pytest.mark.parametrize("plan", sorted(READ_PLANS))
    def test_reads_equal_the_eager_values(self, case, plan):
        mu, eager, transforms = case
        base = stieltjes(mu, LAZY_DEGREE)
        seqs = {"type1": base}
        for target, (jac, tr) in transforms.items():
            seqs[target] = apply_transform(base, jac, tr)
        for target, read in READ_PLANS[plan]:
            seq, (grid, mass) = seqs[target], eager[target]
            if read == "full":
                assert np.array_equal(grid_values(seq), grid)
                assert np.array_equal(seq.mass_values, mass)
            else:
                for n in range(LAZY_DEGREE, -1, -1):
                    assert np.array_equal(seq.grid_at(n), grid[n])

    def test_grid_at_rejects_degrees_outside_the_sequence(self, semicircle_seq):
        for n in (-1, N_SMALL + 1):
            with pytest.raises(DimensionMismatch):
                semicircle_seq.grid_at(n)


class TestUnwhitenedOnlyWhenRead:
    @pytest.fixture
    def solves(self, monkeypatch):
        """(degrees read from a whitened buffer, column count of each node product)."""
        degrees, widths = [], []
        unwhiten, grid_at = polynomials._node_product, PolySequence.grid_at

        def spy_unwhiten(f, rows, out):
            widths.append(rows.shape[-1])
            return unwhiten(f, rows, out)

        def spy_grid_at(self, n, nodes=None):
            degrees.append(n)
            return grid_at(self, n, nodes)

        monkeypatch.setattr(polynomials, "_node_product", spy_unwhiten)
        monkeypatch.setattr(PolySequence, "grid_at", spy_grid_at)
        return degrees, widths

    def test_sum_rule_never_unwhitens(self, mass_measure, solves):
        check_sum_rule(mass_measure, [10, 20])
        assert solves == ([], [])

    def test_verify_unwhitens_only_its_degrees(self, mass_measure, solves):
        asymptotics_report(mass_measure, [5, 15, 30])
        assert solves == ([5, 15, 30], [1, 1, 1])

    @pytest.mark.parametrize("n_values", [[15, 5, 30], [0]])
    def test_verify_runs_the_recurrence_to_its_top_degree(self, mass_measure, monkeypatch,
                                                          n_values):
        degrees = []
        run = polynomials.stieltjes

        def spy_stieltjes(mu, n_max, tol):
            degrees.append(n_max)
            return run(mu, n_max, tol)

        monkeypatch.setattr(polynomials, "stieltjes", spy_stieltjes)
        report = asymptotics_report(mass_measure, n_values)
        assert degrees == [max(n_values)]
        assert report.n_values == tuple(sorted(n_values))


@pytest.fixture(scope="module")
def matrix_seq(shipped_measures):
    return stieltjes(shipped_measures["matrix_conjugated"], N_SMALL)


class TestNormalizationTypes:
    def test_stieltjes_output_is_type1(self, matrix_seq):
        assert matrix_seq.jacobi.norm_type == "type1"
        assert type_defect(matrix_seq.jacobi) < 1e-9

    @pytest.mark.parametrize("target", ["type1", "type2", "type3"])
    def test_conversion_reaches_target(self, matrix_seq, target):
        jac, sig = to_type(matrix_seq.jacobi, target)
        assert jac.norm_type == target
        assert type_defect(jac) < 1e-9
        eye = np.eye(jac.dim)
        defect = max(
            float(operator_norm(s.conj().T @ s - eye)) for s in sig
        )
        assert defect < 1e-12
        assert float(operator_norm(sig[0] - eye)) == 0.0

    def test_transforms_preserve_orthonormality(self, matrix_seq):
        jac2, sigma = to_type(matrix_seq.jacobi, "type2")
        seq2 = apply_transform(matrix_seq, jac2, sigma)
        assert orthonormality_defect(seq2) < 1e-9
        assert recurrence_residual(seq2) < 1e-8

    def test_round_trip_returns_same_blocks(self, matrix_seq):
        # type1 -> type3 -> back to type1 must reproduce the blocks:
        # the type-1 representative of an equivalence class is unique
        jac3, _ = to_type(matrix_seq.jacobi, "type3")
        jac1, _ = to_type(jac3, "type1")
        assert float(np.max(operator_norm(jac1.a - matrix_seq.jacobi.a))) < 1e-8
        assert float(np.max(operator_norm(jac1.b - matrix_seq.jacobi.b))) < 1e-8

    def test_pointwise_covariance(self, matrix_seq):
        jac3, sigma = to_type(matrix_seq.jacobi, "type3")
        seq3 = apply_transform(matrix_seq, jac3, sigma)
        for n in (0, 3, 7):
            expected = matrix_seq.grid_at(n) @ sigma[n]
            assert float(np.max(operator_norm(seq3.grid_at(n) - expected))) < 1e-10

    def test_transform_of_a_transform_composes(self, matrix_seq):
        jac2, sigma2 = to_type(matrix_seq.jacobi, "type2")
        seq2 = apply_transform(matrix_seq, jac2, sigma2)
        seq3 = apply_transform(seq2, *to_type(jac2, "type3"))
        direct = apply_transform(matrix_seq, *to_type(matrix_seq.jacobi, "type3"))
        for n in (0, 3, 7, N_SMALL):
            assert float(np.max(operator_norm(seq3.grid_at(n) - direct.grid_at(n)))) < 1e-10
        assert recurrence_residual(seq3) < 1e-8

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


@pytest.fixture(scope="module")
def matrix4_seq():
    samples = random_smooth_weight(np.random.default_rng(44), 4, 256)
    return stieltjes(make_measure(TableDensity(samples), quad_order=256), N_SMALL)


class TestEvaluation:
    def test_leading_coeffs_inverse_products(self, arcsine_seq):
        # arcsine: A_1 = sqrt 2 and A_n = 1 after it, so kappa_n = 2^{-1/2}
        jac = arcsine_seq.jacobi
        kappas = eval_scaled_many(jac, range(6), [0])[:, 0]
        assert kappas[0][0, 0] == pytest.approx(1.0)
        for n in range(1, 6):
            assert complex(kappas[n][0, 0]).real == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-10)
            assert np.allclose(kappas[n], leading_coeff(jac, n), rtol=0, atol=1e-12)

    def test_eval_scaled_closed_form(self, semicircle_seq):
        # z^n U_n(cos) telescopes to (1 - z^{2n+2}) / (1 - z^2)
        z = 0.4 + 0.3j
        for n in (3, 8):
            oracle = (1.0 - z ** (2 * n + 2)) / (1.0 - z * z)
            got = complex(eval_scaled_many(semicircle_seq.jacobi, [n], np.array([z]))[0, 0, 0, 0])
            assert abs(got - oracle) < 1e-12

    def test_eval_scaled_origin_is_leading_coeff(self, arcsine_seq, matrix4_seq):
        for seq in (arcsine_seq, matrix4_seq):
            jac = seq.jacobi
            for n in (0, 1, 6, N_SMALL):
                got = eval_scaled_many(jac, [n], [0])[0, 0]
                assert float(np.max(np.abs(got - leading_coeff(jac, n)))) <= 1e-12

    def test_eval_scaled_many_batches(self, semicircle_seq, matrix4_seq):
        zs = np.array([0.1, 0.5j, -0.3 + 0.2j, 0.7 - 0.6j])
        degrees = (0, 2, 7, N_SMALL)
        for jac in (semicircle_seq.jacobi, matrix4_seq.jacobi):
            batch = eval_scaled_many(jac, degrees, zs)
            assert batch.shape == (4, 4, jac.dim, jac.dim)
            for i, n in enumerate(degrees):
                for j in range(len(zs)):
                    single = eval_scaled_many(jac, [n], zs[j : j + 1])[0, 0]
                    assert float(np.max(np.abs(batch[i, j] - single))) < 1e-13

    def test_eval_scaled_rejects_outside_disk(self, semicircle_seq):
        with pytest.raises(RadiusExceeded):
            eval_scaled_many(semicircle_seq.jacobi, [3], np.array([1.5]))

    def test_eval_scaled_radius_names_its_stage(self, semicircle_seq):
        with pytest.raises(RadiusExceeded, match=r"^polynomials: scaled evaluation at "
                           r"\|z\| = 1\.5 above 1 \+ 1e-9, outside the closed unit disk$"):
            eval_scaled_many(semicircle_seq.jacobi, [3], np.array([0.5, 1.5j]))

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
