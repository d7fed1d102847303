"""JSON measure documents: parsing, canonical serialization, tables."""

import json

import numpy as np
import pytest

from matszego.errors import ParseError
from matszego.specio import (
    RunManifest,
    build_measure,
    format_matrix_table,
    format_real_table,
    parse_measure_spec,
    serialize_measure_spec,
    spec_hash,
)

from conftest import SHIPPED, SPECS_DIR

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
TABLE_DIGEST = "8f6181487df04694f269062fabdac2d41da1c4bedab44aace647110a746bf2dc"


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
        with_im, without_im = spec.density["values"][1:3]
        # complex arithmetic re + 1j * im decides the sign of a zero
        assert repr(with_im["re"][1][0]) == "-0.0" and repr(with_im["re"][0][1]) == "0.0"
        assert repr(without_im["re"][1][0]) == "0.0"
        zeros = [[0.0, 0.0], [0.0, 0.0]]
        assert [repr(v) for row in with_im["im"] for v in row] == ["0.0"] * 4
        assert with_im["im"] == without_im["im"] == zeros


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
