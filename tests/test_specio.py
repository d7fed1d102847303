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
    matrix_from_json,
    matrix_to_json,
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


class TestMatrixCodec:
    def test_real_only(self):
        m = matrix_from_json({"re": [[1.0, 2.0], [3.0, 4.0]]}, "x")
        assert m.dtype == complex
        assert np.allclose(m, [[1, 2], [3, 4]])

    def test_complex_round_trip(self):
        m = np.array([[1.0 + 2.0j, 0.5], [-0.5j, 3.0]])
        back = matrix_from_json(matrix_to_json(m), "x")
        assert np.allclose(back, m)

    def test_shape_mismatch(self):
        with pytest.raises(ParseError, match="im shape"):
            matrix_from_json({"re": [[1.0]], "im": [[1.0, 2.0]]}, "x")

    def test_ragged_rows(self):
        with pytest.raises(ParseError, match="row length"):
            matrix_from_json({"re": [[1.0, 2.0], [3.0]]}, "x")

    def test_non_numeric_entry(self):
        with pytest.raises(ParseError, match="expected a number"):
            matrix_from_json({"re": [["a"]]}, "x")


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
        assert spec.masses[0].energy == 2.5
        assert spec.masses[0].weight()[0, 0] == 0.1 + 0.0j

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
