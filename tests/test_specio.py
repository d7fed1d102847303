"""JSON measure documents: parsing, canonical serialization, tables."""

import hashlib
import json
import json.encoder
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matszego import specio
from matszego.errors import ParseError
from matszego.measure import DENSITY_FAMILIES
from matszego.specio import (
    RunManifest,
    build_measure,
    format_matrix_table,
    format_real_table,
    parse_measure_spec,
    serialize_measure_spec,
    spec_hash,
)

from conftest import SHIPPED, SPECS_DIR, edge_table_document

MINIMAL = '{"dim": 1, "density": {"family": "semicircle"}}'

FULL = """
{
  "dim": 2,
  "density": {"family": "semicircle"},
  "masses": [
    {"energy": 2.5, "weight": {"re": [[0.1, 0.0], [0.0, 0.0]]}}
  ],
  "quad_order": 512,
  "normalize": "auto"
}
"""


# A table document mixing integer entries, a matrix without "im" and
# signed zeros, plus a mass; its digest below pins the canonical form.
TABLE = """
{"dim": 2, "quad_order": 8, "normalize": "strict",
 "density": {"family": "table", "values": [
  {"re": [[1, 0.25], [0.25, 2]], "im": [[0, 0.5], [-0.5, 0]]},
  {"re": [[1.5, -0.0], [-0.0, 2.0]], "im": [[-0.0, 0.0], [-0.0, 0.0]]},
  {"re": [[1.5, -0.0], [-0.0, 2.0]]},
  {"re": [[1, 0.25], [0.25, 2]], "im": [[0, -0.5], [0.5, 0]]}]},
 "masses": [{"energy": -3,
             "weight": {"re": [[0.5, -0.0], [-0.0, 0]], "im": [[0, -0.0], [0.0, 0]]}}]}
"""

PINNED_DIGESTS = {
    "free_semicircle": "058a1c30b1a344b0a86479ce7bd549d01d3b20810ec4f1e57ea4d747ce269eab",
    "arcsine": "184c3e2a132eaa3e56abc87ac01f30102b457760eae8f0f4bb622e897a79b7b7",
    "semicircle_mass": "c0c68cafb8147d2cc959fb8835b561f6c121237b94106820852ab2d759772ac8",
    "matrix_semicircle_mass": "9b5d00b4b3adc655d4aeaf1cce975c933e38001c59434eb40c202c6f5b9614c8",
    "matrix_conjugated": "fc71bcea80597b93309342d6909d0528216fc02654cb0d03ef8e1cf5631961b5",
}
TABLE_DIGEST = "77bef4aff9bc0b9df6cc291b1c00a0971eba1ed800a076f1a4aa6a8338dff877"


def parse_weight(weight, dim):
    """Canonical form of a matrix read as the weight of a single mass."""
    doc = {"dim": dim, "density": {"family": "semicircle"},
           "masses": [{"energy": 2.5, "weight": weight}]}
    return parse_measure_spec(json.dumps(doc)).masses[0]["weight"]


def table_with(index, part, rows):
    """8-value 2x2 table document whose value index has rows as its part."""
    values = [{"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
              for _ in range(8)]
    values[index][part] = rows
    return json.dumps({"dim": 2, "density": {"family": "table", "values": values}})


class TestMatrixCodec:
    """JSON matrices as read by parse_measure_spec."""

    def test_real_only(self):
        m = parse_weight({"re": [[1, 2.0], [3.0, 4]]}, 2)
        assert m == {"re": [[1.0, 2.0], [3.0, 4.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        assert all(type(v) is float for part in m.values() for row in part for v in row)

    def test_complex_round_trip(self):
        weight = {"re": [[1.0, 0.5], [0.0, 3.0]], "im": [[2.0, 0.0], [-0.5, 0.0]]}
        spec = parse_measure_spec(json.dumps(
            {"dim": 2, "density": {"family": "semicircle"},
             "masses": [{"energy": 2.5, "weight": weight}]}
        ))
        assert spec.masses[0]["weight"] == weight
        assert parse_measure_spec(serialize_measure_spec(spec)) == spec

    def test_shape_mismatch(self):
        with pytest.raises(ParseError, match="im shape"):
            parse_weight({"re": [[1.0]], "im": [[1.0, 2.0]]}, 1)

    def test_shape_must_match_dim(self):
        with pytest.raises(ParseError, match=r"spec\.masses\[0\]\.weight: shape \(1, 1\)"):
            parse_weight({"re": [[1.0]]}, 2)

    def test_ragged_rows(self):
        with pytest.raises(ParseError, match="row length"):
            parse_weight({"re": [[1.0, 2.0], [3.0]]}, 2)

    def test_non_numeric_entry(self):
        with pytest.raises(ParseError, match="expected a number"):
            parse_weight({"re": [["a"]]}, 1)

    @pytest.mark.parametrize(
        "entry, message",
        [(True, "expected a number, got bool"), ("0.5", "expected a number, got str"),
         (float("nan"), "number not finite"), (10**400, "number too large for a float")],
        ids=["bool", "string", "nan", "oversized"],
    )
    def test_bad_entry_deep_in_table_names_its_path(self, entry, message):
        text = table_with(5, "im", [[0.0, 0.0], [entry, 0.0]])
        with pytest.raises(ParseError) as info:
            parse_measure_spec(text)
        assert str(info.value) == f"spec.density.values[5].im[1][0]: {message}"

    def test_ragged_row_deep_in_table_names_its_path(self):
        text = table_with(5, "im", [[0.0, 0.0], [0.0]])
        with pytest.raises(ParseError) as info:
            parse_measure_spec(text)
        assert str(info.value) == "spec.density.values[5].im[1]: row length 1 != 2"


class TestParsing:
    def test_minimal_defaults(self):
        spec = parse_measure_spec(MINIMAL)
        assert spec.dim == 1
        assert spec.quad_order == 4096
        assert spec.normalize == "auto"
        assert spec.masses == ()

    def test_full_document(self):
        spec = parse_measure_spec(FULL)
        assert spec.dim == 2
        assert len(spec.masses) == 1
        assert spec.masses[0]["energy"] == 2.5
        assert spec.masses[0]["weight"]["re"][0][0] == 0.1
        assert spec.masses[0]["weight"]["im"][0][0] == 0.0

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_measure_spec("{bad json")

    def test_unknown_top_key(self):
        with pytest.raises(ParseError, match="unknown key 'extra'"):
            parse_measure_spec('{"dim": 1, "density": {"family": "semicircle"}, "extra": 1}')

    def test_unknown_family(self):
        with pytest.raises(ParseError, match="unknown family"):
            parse_measure_spec('{"dim": 1, "density": {"family": "gaussian"}}')

    def test_family_key_mismatch(self):
        with pytest.raises(ParseError, match="not valid for family"):
            parse_measure_spec(
                '{"dim": 1, "density": {"family": "semicircle", "coefficients": [1]}}'
            )

    def test_missing_required_key(self):
        with pytest.raises(ParseError, match="missing key 'density'"):
            parse_measure_spec('{"dim": 1}')

    def test_bool_is_not_a_number(self):
        with pytest.raises(ParseError, match="expected a number"):
            parse_measure_spec(
                '{"dim": 1, "density": {"family": "semicircle"}, '
                '"masses": [{"energy": true, "weight": {"re": [[0.1]]}}]}'
            )

    def test_channel_count_must_match_dim(self):
        with pytest.raises(ParseError, match="channels"):
            parse_measure_spec(
                '{"dim": 2, "density": {"family": "conjugated_diagonal", '
                '"channels": [{"family": "semicircle"}]}}'
            )

    @pytest.mark.parametrize("order", [1000, 2, 0])
    def test_quad_order_must_be_grid_size(self, order):
        with pytest.raises(ParseError, match=r"spec\.quad_order: .*power of two"):
            parse_measure_spec(
                json.dumps({"dim": 1, "density": {"family": "semicircle"}, "quad_order": order})
            )

    def test_table_length_must_be_grid_size(self):
        doc = {"dim": 1, "density": {"family": "table", "values": [{"re": [[0.3]]}] * 3}}
        with pytest.raises(ParseError, match=r"spec\.density\.values: .*power of two"):
            parse_measure_spec(json.dumps(doc))


class TestCanonicalForm:
    def test_serialize_parse_round_trip(self):
        spec = parse_measure_spec(FULL)
        again = parse_measure_spec(serialize_measure_spec(spec))
        assert again == spec

    def test_hash_ignores_whitespace(self):
        compact = json.dumps(json.loads(FULL), separators=(",", ":"))
        assert spec_hash(parse_measure_spec(FULL)) == spec_hash(
            parse_measure_spec(compact)
        )

    def test_hash_sensitive_to_content(self):
        a = parse_measure_spec(MINIMAL)
        b = parse_measure_spec('{"dim": 1, "density": {"family": "arcsine"}}')
        assert spec_hash(a) != spec_hash(b)

    def test_shipped_documents_parse_and_build(self):
        for name in SHIPPED:
            spec = parse_measure_spec((SPECS_DIR / f"{name}.json").read_text())
            mu = build_measure(spec)
            assert mu.dim == spec.dim
            assert mu.normalization_defect < 1e-8

    def test_build_uses_declared_order(self):
        mu = build_measure(parse_measure_spec(FULL))
        assert mu.quad_order == 512

    def test_table_builds_from_canonical_values(self):
        cs = (0.1, 0.4, 0.7, 0.9, 0.9, 0.7, 0.4, 0.1)
        values = [
            {"re": [[1.0, 0.0], [0.0, 1.5]], "im": [[0.0, 0.2 * c], [-0.2 * c, 0.0]]}
            for c in cs
        ]
        doc = {"dim": 2, "density": {"family": "table", "values": values}, "quad_order": 8}
        spec = parse_measure_spec(json.dumps(doc))
        samples = build_measure(spec).density.samples
        expected = np.array([[[1.0, 0.2j * c], [-0.2j * c, 1.5]] for c in cs])
        assert np.array_equal(samples, expected)

    def test_shipped_digests_are_pinned(self):
        for name, digest in PINNED_DIGESTS.items():
            spec = parse_measure_spec((SPECS_DIR / f"{name}.json").read_text())
            assert spec_hash(spec) == digest, name

    def test_table_digest_is_pinned(self):
        spec = parse_measure_spec(TABLE)
        assert spec_hash(spec) == TABLE_DIGEST
        re, im = spec.density["values"].stack.tolist()
        with_im, without_im = ({"re": re[k], "im": im[k]} for k in (1, 2))
        # complex arithmetic re + 1j * (im + 0.0) decides the sign of a zero
        assert repr(with_im["re"][1][0]) == "0.0" and repr(with_im["re"][0][1]) == "0.0"
        assert repr(without_im["re"][1][0]) == "0.0"
        zeros = [[0.0, 0.0], [0.0, 0.0]]
        assert [repr(v) for row in with_im["im"] for v in row] == ["0.0"] * 4
        assert with_im["im"] == without_im["im"] == zeros


def table_lists(table) -> list:
    """A parsed table's values as {"re", "im"} float rows, from its stack."""
    re, im = table.stack.tolist()
    return [{"re": r, "im": m} for r, m in zip(re, im)]


def reference_text(obj) -> str:
    """The canonical text as json writes it, through its pure-Python
    encoder; a table is written as the nested lists of its stack."""
    return json.dumps(obj, sort_keys=True, indent=2, default=table_lists) + "\n"


# Entries that stress float formatting and the signed-zero rule: the
# smallest subnormal, repr's switch to exponent form (1e-05, 1e16), the
# largest exact power of ten (1e22) and a row [1e308, 1e308] whose sum
# overflows although every entry is valid.
SPECIAL_ENTRIES = [0, -0.0, 0.0, 3, -2**70, 2**64 + 1, 5e-324, -5e-324, 1e-05, 1e16,
                   1e22, 1e308, -1e308, 0.1]
entries = st.one_of(
    st.sampled_from(SPECIAL_ENTRIES),
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def matrices(draw, dim):
    def rows():
        return draw(st.lists(st.lists(entries, min_size=dim, max_size=dim),
                             min_size=dim, max_size=dim))
    matrix = {"re": rows()}
    if draw(st.booleans()):
        matrix["im"] = rows()
    return matrix


polys = st.fixed_dictionaries({"family": st.just("poly_semicircle"),
                               "coefficients": st.lists(entries, min_size=1, max_size=3)})
scalar_densities = st.one_of(st.sampled_from([{"family": "semicircle"}, {"family": "arcsine"}]),
                             polys)


@st.composite
def documents(draw):
    """Valid measure documents of every family, dim <= 4."""
    dim = draw(st.integers(1, 4))
    family = draw(st.sampled_from(sorted(DENSITY_FAMILIES)))
    density = {"family": family}
    if family == "poly_semicircle":
        density = draw(polys)
    elif family == "conjugated_diagonal":
        density["channels"] = [draw(scalar_densities) for _ in range(dim)]
        if draw(st.booleans()):
            density["unitary"] = draw(matrices(dim))
    elif family == "table":
        # whole stacks, a value without "im" among complete ones, or neither
        values = [draw(matrices(dim)) for _ in range(draw(st.sampled_from([4, 8])))]
        if draw(st.booleans()):
            values = [dict(v, im=v.get("im", v["re"])) for v in values]
        density["values"] = values
    masses = [{"energy": draw(entries), "weight": draw(matrices(dim))}
              for _ in range(draw(st.integers(0, 2)))]
    return {"dim": dim, "density": density, "masses": masses,
            "quad_order": draw(st.sampled_from([4, 512, 4096])),
            "normalize": draw(st.sampled_from(["auto", "strict"]))}


# every sign combination of a zero real part with a zero, negative or
# positive imaginary part in a table read as whole stacks; a mass with
# the overflowing row and no "im"
SIGNED_ZEROS = {"dim": 2, "density": {"family": "table", "values": [
    {"re": [[0.0, -0.0], [0.0, -0.0]], "im": [[0.0, 0.0], [-0.0, -0.0]]},
    {"re": [[0.0, -0.0], [0.0, -0.0]], "im": [[-1.0, -1.0], [1.0, 1.0]]},
    {"re": [[-0.0, 0], [1e308, 1e308]], "im": [[-0.0, -0.0], [-0.0, 0]]},
    {"re": [[-0.0, -0.0], [0.0, -0.0]], "im": [[-2.0, 2.0], [-2.0, 2.0]]}]},
    "masses": [{"energy": -0.0, "weight": {"re": [[-0.0, 0.0], [1e308, 1e308]]}}]}

float_rows = st.lists(st.lists(st.one_of(st.floats(), st.integers(-5, 5)), max_size=3),
                      max_size=3)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
              float_rows),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12,
)


zero_entries = st.sampled_from([-0.0, 0.0, 0, -1.5, 1.5])


@st.composite
def zero_documents(draw):
    """Documents whose matrices (table values, a unitary, mass weights)
    hold mostly signed zeros, with and without "im"."""
    dim = draw(st.integers(1, 2))

    def matrix():
        def rows():
            return draw(st.lists(st.lists(zero_entries, min_size=dim, max_size=dim),
                                 min_size=dim, max_size=dim))
        return {"re": rows(), "im": rows()} if draw(st.booleans()) else {"re": rows()}

    if draw(st.booleans()):
        density = {"family": "table", "values": [matrix() for _ in range(4)]}
    else:
        density = {"family": "conjugated_diagonal", "channels": [{"family": "arcsine"}] * dim,
                   "unitary": matrix()}
    masses = [{"energy": 3.0 + k, "weight": matrix()} for k in range(draw(st.integers(0, 2)))]
    return {"dim": dim, "density": density, "masses": masses}


# the one-mass document whose hash a re-parse used to change
NEGATIVE_ZERO_MASS = {"dim": 1, "density": {"family": "semicircle"}, "masses": [
    {"energy": 3.0, "weight": {"re": [[-0.0]], "im": [[-0.0]]}}]}


class TestCanonicalWriter:
    """The one writer is json.dumps(sort_keys=True, indent=2) byte for byte."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(zero_documents())
    @example(NEGATIVE_ZERO_MASS)
    @example(SIGNED_ZEROS)
    def test_canonical_form_is_idempotent(self, doc):
        spec = parse_measure_spec(json.dumps(doc))
        again = parse_measure_spec(serialize_measure_spec(spec))
        assert spec_hash(again) == spec_hash(spec)
        assert serialize_measure_spec(again) == serialize_measure_spec(spec)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(documents())
    @example(SIGNED_ZEROS)
    def test_spec_text_equals_json(self, doc):
        spec = parse_measure_spec(json.dumps(doc))
        assert serialize_measure_spec(spec) == reference_text(vars(spec))
        assert parse_measure_spec(serialize_measure_spec(spec)) == spec

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(json_values)
    def test_report_text_equals_json(self, obj):
        assert specio._dumps(obj) == reference_text(obj)

    @pytest.mark.parametrize("obj", [
        {}, [], [[]], [[], []], {"a": {}, "b": [], "c": [[]]},
        {"flags": [True, False, None], "n": 3, "nested": {"z": [1.5, {"y": [[2.0]]}]}},
        [[float("nan"), 1.0], [float("inf"), -float("inf")]],
        [[1, 2.0], [3.0, 4]], [[1.0, 2.0], [3.0]], [[1e308, 1e308]], [(0.5, -0.0)],
        ({"t": (1.0, 2.0)}, [[0.25]]),
        {"Szegő": "Σ m_k (1 - |z_k|) \u2028 😀", "ascii": "tab\tquote\"slash\\"},
        [{"re": [[1.0, -0.0], [5e-324, 1e22]], "im": [[0.0, 1e-05], [1e16, -1e308]]}],
    ], ids=lambda obj: type(obj).__name__)
    def test_report_like_objects_equal_json(self, obj):
        assert specio._dumps(obj) == reference_text(obj)

    def test_manifest_equals_json(self):
        m = RunManifest(command="sumrule --n 100", spec_sha256="ab" * 32,
                        tolerance_overrides={"herm": 1e-9}, tool_version="0.1.0")
        assert m.to_json() == reference_text(vars(m))


# Floats where repr changes notation (1e-05 / 0.0001, 1e16 / 9999999999999998.0),
# both zeros and the smallest subnormals
ARRAY_ENTRIES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-4, 9.999999999999999e-05,
                 1e-05, 1e16, 9999999999999998.0, 1.0000000000000002e16, -1e22, 1e308, 0.1]
array_entries = st.one_of(st.sampled_from(ARRAY_ENTRIES),
                          st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def float_arrays(draw):
    """Float arrays of 1 to 4 dimensions, some large enough for the array
    writer, with few distinct values or many."""
    shape = (draw(st.integers(1, 40)),) + tuple(draw(st.lists(st.integers(1, 5), max_size=3)))
    pool = draw(st.lists(array_entries, min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    values = np.array(pool)[rng.integers(0, len(pool), size=shape)]
    if draw(st.booleans()):
        values = values * rng.uniform(-1.0, 1.0, size=shape)
    return values


def as_lists(obj):
    """What json writes for the writer's arrays: a real array's lists, a
    complex array's {"im", "re"} lists and a table's {"im", "re"} matrices."""
    if isinstance(obj, specio._TableValues):
        return [{"im": im, "re": re} for re, im in zip(*obj.stack.tolist())]
    if np.iscomplexobj(obj):
        return {"im": obj.imag.tolist(), "re": obj.real.tolist()}
    return obj.tolist()


class TestArrayWriter:
    """A float array is written as json writes its nested lists."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(float_arrays(), st.integers(0, 3), st.sampled_from(["real", "complex", "table"]))
    # size-1 axes, the keyed axis of two entries beside them
    @example(np.full((8, 1, 1), -0.0), 1, "real")
    @example(np.full((8, 1, 1), -0.0), 1, "complex")
    @example(np.full((1, 1), -2.5), 0, "table")
    @example(np.array([[0.0, -0.0, 1.5]] * 8), 3, "table")
    def test_text_equals_json(self, values, depth, layout):
        # axis 0 of a complex array, and axis 1 of a table's (N, 2, ., .)
        # stack, are written as {"im", "re"} objects
        obj = values
        if layout == "complex":
            obj = np.empty(values.shape, dtype=complex)
            obj.real, obj.imag = values, values[::-1]
        elif layout == "table":
            shape = (2, len(values), values.shape[1] if values.ndim > 1 else 1, -1)
            obj = specio._TableValues(np.stack((values, values[::-1])).reshape(shape))
        for _ in range(depth):
            obj = {"x": [obj, 1]}
        expected = json.dumps(obj, sort_keys=True, indent=2, default=as_lists) + "\n"
        assert specio._dumps(obj) == expected

    @pytest.mark.parametrize("shape", [(24,), (8, 1, 1), (100, 4, 4), (3, 5, 2, 4)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_take_the_list_path(self, monkeypatch, shape, bad):
        values = np.linspace(-1.0, 1.0, int(np.prod(shape))).reshape(shape)
        assert specio._dumps(values) == specio._dumps(values.tolist())
        values.flat[-1] = bad

        def unexpected(*args, **kwargs):
            raise AssertionError("array path taken")

        monkeypatch.setattr(specio, "_float_join", unexpected)
        assert specio._dumps(values) == json.dumps(values.tolist(), indent=2) + "\n"

    def test_report_arrays_equal_their_lists(self):
        # the stack of a recurrence report, a lone matrix, a short vector,
        # an integer array and an empty one
        rng = np.random.default_rng(7)
        obj = {"a": rng.standard_normal((30, 1, 1)), "g": rng.standard_normal((8, 8)),
               "v": rng.standard_normal(5), "k": np.arange(40), "e": np.zeros((0, 2))}
        assert specio._dumps(obj) == reference_text({k: v.tolist() for k, v in obj.items()})

    @pytest.mark.parametrize("count", [1, 7, 8, 30])
    @pytest.mark.parametrize("finite", [True, False])
    def test_matrix_stack_writes_as_its_complex_array(self, count, finite):
        # signed zeros and repeats, on both sides of _ARRAY_WRITES
        rng = np.random.default_rng(count)
        stack = np.empty((count, 3, 3), dtype=complex)
        stack.real, stack.imag = rng.choice([0.0, -0.0, 1.5, -1.5, 0.1, 1e-300], (2, count, 3, 3))
        if not finite:
            stack.real[-1, 2, 0] = np.nan
        blocks = specio.MatrixStack(stack)
        plain = {"re": stack.real.tolist(), "im": stack.imag.tolist()}
        assert specio._dumps({"a": blocks, "n": 1}) == reference_text({"a": plain, "n": 1})
        text = format_matrix_table("j", range(1, count + 1), blocks)
        cells = [[repr(float(getattr(v, part))) for v in mat.ravel() for part in ("real", "imag")]
                 for mat in stack]
        rows = [",".join([repr(float(j))] + row) for j, row in enumerate(cells, 1)]
        assert text.splitlines()[1:] == rows


class TestTableFastPath:
    """Guards without timing: a table document is read as whole stacks and
    hashed without json's pure-Python encoder."""

    def test_table_document_stays_on_the_fast_paths(self, monkeypatch):
        text = json.dumps(edge_table_document(1024))
        reads = []
        matrix = specio._matrix
        monkeypatch.setattr(specio, "_matrix",
                            lambda *args: reads.append(args[1]) or matrix(*args))
        spec = parse_measure_spec(text)
        assert len(reads) <= 4
        expected = hashlib.sha256(reference_text(vars(spec)).encode()).hexdigest()

        def refuse(*args, **kwargs):
            raise AssertionError("json's pure-Python encoder was entered")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        with pytest.raises(AssertionError):
            reference_text(vars(spec))  # the guard is live
        assert spec_hash(spec) == expected

    def test_table_hash_streams(self):
        spec = parse_measure_spec(json.dumps(edge_table_document(1024)))
        size = len(serialize_measure_spec(spec).encode())
        tracemalloc.start()
        try:
            spec_hash(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < size

    def test_table_hash_formats_no_matrix_alone(self, monkeypatch):
        spec = parse_measure_spec(json.dumps(edge_table_document(1024)))
        expected = hashlib.sha256(reference_text(vars(spec)).encode()).hexdigest()
        calls = []
        float_rows = specio._float_rows
        monkeypatch.setattr(specio, "_float_rows",
                            lambda *args: calls.append(args) or float_rows(*args))
        assert spec_hash(spec) == expected
        assert calls == []

    def test_fast_path_equals_per_value_reader(self):
        doc = json.loads(TABLE)
        doc["density"]["values"][2]["im"] = [[0, -0.0], [-0.0, -0.0]]
        spec = parse_measure_spec(json.dumps(doc))
        dim = doc["dim"]
        per_value = [specio._matrix(v, "v", dim) for v in doc["density"]["values"]]
        stack = np.array([[m[k] for m in per_value] for k in ("re", "im")])
        assert specio._table(doc["density"]["values"], "v", dim) == specio._TableValues(stack)
        assert reference_text(spec.density["values"]) == reference_text(per_value)

    def test_parsed_table_keeps_only_its_stack(self):
        spec = parse_measure_spec(json.dumps(edge_table_document(256)))
        table = spec.density["values"]
        assert list(vars(table)) == ["stack"] and not table.stack.flags.writeable
        assert table.stack.shape[:2] == (2, 256) and table.stack.dtype == float
        # equal entry by entry, as the document's other floats compare
        changed = table.stack.copy()
        changed[0, 7, 0, 0] = np.nextafter(changed[0, 7, 0, 0], np.inf)
        assert table == specio._TableValues(table.stack.copy())
        assert table != specio._TableValues(changed)
        assert table != specio._TableValues(table.stack[:, :128].copy())


# Entries for table hashing: the signed zeros, the smallest subnormal,
# repr's switch points on both sides (1e16 and the float below it, 1e-05
# and 0.0001), an integer beyond int64 and small integers.
TABLE_ENTRIES = [-0.0, 0.0, 5e-324, 1e16, 9999999999999998.0, 1e-05, 0.0001,
                 2**64 + 1, 0, 3, -7]
TABLE_SIZES = [4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048]


@st.composite
def hashed_tables(draw):
    """Table documents with dim 1-4 and N = 4 ... 2048 matrices, on both
    sides of the hashing chunk, filled from a small pool of entries with
    random signs, so values repeat and x / -x pairs are common. Every
    value has "im", none has, or some have: the whole-stack reader and the
    per-value reader."""
    dim = draw(st.integers(1, 4))
    count = draw(st.sampled_from([n for n in TABLE_SIZES if n * dim * dim <= 2**13]))
    pool = TABLE_ENTRIES + draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def rows():
        picks = rng.integers(len(pool), size=(dim, dim)).tolist()
        signs = rng.integers(2, size=(dim, dim)).tolist()
        return [[-pool[k] if s else pool[k] for k, s in zip(kr, sr)]
                for kr, sr in zip(picks, signs)]

    im = draw(st.sampled_from(["all", "none", "some"]))
    values = []
    for i in range(count):
        value = {"re": rows()}
        if im == "all" or (im == "some" and i % 3):
            value["im"] = rows()
        values.append(value)
    return {"dim": dim, "density": {"family": "table", "values": values},
            "quad_order": count}


class TestTableHashing:
    """The table's text and hash equal json's, whatever the table holds."""

    def test_chunk_sides_are_covered(self):
        assert min(TABLE_SIZES) < specio._TABLE_CHUNK < max(TABLE_SIZES)
        assert specio._TABLE_CHUNK in TABLE_SIZES

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(hashed_tables())
    def test_hash_and_text_equal_json(self, doc):
        spec = parse_measure_spec(json.dumps(doc))
        text = reference_text(vars(spec))
        assert spec_hash(spec) == hashlib.sha256(text.encode()).hexdigest()
        assert serialize_measure_spec(spec) == text


def table_document(values):
    return json.dumps({"dim": 2, "density": {"family": "table", "values": values}})


def identity_values(count):
    return [{"re": [[1.0, 0.25], [0.25, 1.0]], "im": [[0.0, 0.5], [-0.5, 0.0]]}
            for _ in range(count)]


# Entries the whole-stack reader must hand to the per-value reader or
# convert alike: bools, strings and null, integers beyond int64 and
# beyond a float, signed zeros and a list one level too deep
TRAP_ENTRIES = [True, False, "0.5", None, 2**64 + 1, -2**70, 10**400, -0.0, 0.0, 0, [1.0]]
CLEAN_ENTRIES = [-0.0, 0.0, 0, 3, -1.5, 0.1, 2**64 + 1, -2**70]
TRAPS = ["entry", "deep row", "deep matrix", "short row", "long row", "no im"]


def lay_trap(value: dict, kind: str, part: str, i: int, j: int, entry) -> None:
    """Lay one trap in a value whose parts are dim x dim rows."""
    if kind == "no im":
        del value["im"]
    elif kind == "deep matrix":
        value[part] = [value[part]]
    elif kind == "deep row":
        value[part][i] = [value[part][i]]
    elif kind == "short row":
        value[part][i] = value[part][i][:-1]
    elif kind == "long row":
        value[part][i] = value[part][i] + [0.5]
    else:
        value[part][i][j] = entry


@st.composite
def trapped_tables(draw):
    """(values, dim): a table of dim 1-3 and 4 ... 2048 complete values
    filled from numbers the whole-stack reader takes, with up to three
    values trapped (lay_trap)."""
    dim = draw(st.integers(1, 3))
    count = draw(st.sampled_from([n for n in (4, 8, 128, 1024, 2048) if n * dim * dim <= 2**13]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = [{part: [[CLEAN_ENTRIES[k] for k in row]
                      for row in rng.integers(len(CLEAN_ENTRIES), size=(dim, dim)).tolist()]
               for part in ("re", "im")} for _ in range(count)]
    for index in draw(st.lists(st.integers(0, count - 1), max_size=3, unique=True)):
        lay_trap(values[index], draw(st.sampled_from(TRAPS)), draw(st.sampled_from(["re", "im"])),
                 draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1)),
                 draw(st.sampled_from(TRAP_ENTRIES)))
    return values, dim


def rows_past_1000(*kinds):
    """An identity table with a row trap per kind at values 1500, 1501, ..."""
    values = identity_values(2048)
    for k, kind in enumerate(kinds):
        lay_trap(values[1500 + k], kind, "im", 1, 0, None)
    return values, 2


def read_table(reader):
    """A reader's table, or the text of its ParseError."""
    try:
        return reader()
    except ParseError as exc:
        return str(exc)



class TestTableTraps:
    """Documents the whole-stack check must not accept or mangle: each gives
    the canonical bytes or the ParseError of the per-value reader (_matrix),
    bit for bit or word for word."""

    def test_integer_beyond_int64_in_a_float_row(self):
        values = identity_values(8)
        values[3]["re"] = [[1.5, 2**64 + 1], [2**64 + 1, 2.5]]
        spec = parse_measure_spec(table_document(values))
        row = spec.density["values"].stack[0, 3, 0].tolist()
        assert row == [1.5, float(2**64 + 1)] and type(row[1]) is float
        assert serialize_measure_spec(spec).count("1.8446744073709552e+19") == 2

    def test_oversized_integer_deep_in_table(self):
        values = identity_values(1024)
        values[700]["re"] = [[1.0, 10**400], [0.25, 1.0]]
        with pytest.raises(ParseError) as info:
            parse_measure_spec(table_document(values))
        assert str(info.value) == "spec.density.values[700].re[0][1]: number too large for a float"

    def test_one_value_without_im_is_zero_filled(self):
        values = identity_values(8)
        del values[5]["im"]
        spec = parse_measure_spec(table_document(values))
        im = spec.density["values"].stack[1]
        assert im[5].tolist() == [[0.0, 0.0], [0.0, 0.0]]
        assert im[4].tolist() == [[0.0, 0.5], [-0.5, 0.0]]

    def test_extra_key_names_its_value(self):
        values = identity_values(8)
        values[6]["extra"] = 1
        with pytest.raises(ParseError) as info:
            parse_measure_spec(table_document(values))
        assert str(info.value) == "spec.density.values[6]: unknown key 'extra'"

    def test_wrong_shape_after_index_1000(self):
        values = identity_values(2048)
        values[1500] = {"re": [[1.0, 0.0, 0.0]] * 3, "im": [[0.0, 0.0, 0.0]] * 3}
        with pytest.raises(ParseError) as info:
            parse_measure_spec(table_document(values))
        assert str(info.value) == "spec.density.values[1500]: shape (3, 3) != (2, 2)"

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(trapped_tables())
    @example(rows_past_1000("short row"))
    @example(rows_past_1000("short row", "long row"))  # the entry count still fits
    def test_table_equals_per_value_reader(self, table):
        values, dim = table
        path = "spec.density.values"

        def per_value():
            matrices = [specio._matrix(v, f"{path}[{i}]", dim) for i, v in enumerate(values)]
            return np.array([[m[k] for m in matrices] for k in ("re", "im")])

        expected = read_table(per_value)
        got = read_table(lambda: specio._table(values, path, dim))
        if isinstance(expected, str):
            assert got == expected
        else:
            assert isinstance(got, specio._TableValues) and got.stack.dtype == float
            assert got.stack.shape == expected.shape
            assert got.stack.tobytes() == expected.tobytes()


class TestManifestAndTables:
    def test_manifest_serialization_is_stable(self):
        m = RunManifest(
            command="limit --n 5",
            spec_sha256="ab" * 32,
            tolerance_overrides={},
            tool_version="0.1.0",
        )
        assert m.to_json() == m.to_json()
        data = json.loads(m.to_json())
        assert data["command"] == "limit --n 5"
        assert sorted(data) == [
            "command", "spec_sha256", "tolerance_overrides", "tool_version"
        ]

    def test_real_table_layout(self):
        text = format_real_table([("n", [1, 2]), ("value", [0.5, 0.25])])
        lines = text.strip().splitlines()
        assert lines[0] == "n,value"
        assert len(lines) == 3
        # shortest round-trip floats: parsing them back is lossless
        assert float(lines[1].split(",")[1]) == 0.5

    def test_real_table_rejects_ragged_columns(self):
        with pytest.raises(ValueError):
            format_real_table([("a", [1.0]), ("b", [1.0, 2.0])])

    def test_matrix_table_entry_columns(self):
        stack = np.array([[[1.0 + 0.5j, 0.0], [0.0, 2.0]]])
        text = format_matrix_table("n", [7], stack)
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "n"
        assert "e00_re" in header and "e11_im" in header
        row = lines[1].split(",")
        assert float(row[0]) == 7.0
        assert float(row[header.index("e00_im")]) == 0.5
        assert format_matrix_table("n", [], stack[:0]) == lines[0] + "\n"

    def test_tables_format_each_value_as_its_repr(self):
        # one float.__repr__ per distinct magnitude gives the bytes of one
        # per cell: signed zeros, repeats, non-finite values and integer
        # indices; a NaN with its sign bit set is written "nan", unsigned
        values = [0.0, -0.0, 1.0, 1.0, 0.1 + 0.2, float("inf"), float("nan"), 3, -2.5e-300,
                  -float("inf"), np.copysign(np.nan, -1)]
        text = format_real_table([("a", values), ("b", values[::-1])])
        rows = [f"{repr(float(a))},{repr(float(b))}" for a, b in zip(values, values[::-1])]
        assert text == "a,b\n" + "\n".join(rows) + "\n"
        stack = np.empty((2, 2, 2), dtype=complex)
        stack.real, stack.imag = np.reshape(values[:8], (2, 2, 2)), np.reshape(values[3:], (2, 2, 2))
        index = [np.int64(4), 2.5]
        text = format_matrix_table("k", index, stack)
        expected = ["k,e00_re,e00_im,e01_re,e01_im,e10_re,e10_im,e11_re,e11_im"]
        for idx, mat in zip(["4", "2.5"], stack):
            expected.append(",".join([idx] + [repr(float(getattr(v, part)))
                                              for v in mat.ravel() for part in ("real", "imag")]))
        assert text == "\n".join(expected) + "\n"

