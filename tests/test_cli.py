"""Command-line surface: exit codes, stdout content, artifact determinism."""

import json

import numpy as np
import pytest

from matszego import blaschke
from matszego.cli import main

from conftest import SPECS_DIR

FREE = str(SPECS_DIR / "free_semicircle.json")
MASS = str(SPECS_DIR / "semicircle_mass.json")
MATRIX_MASS = str(SPECS_DIR / "matrix_semicircle_mass.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def small_spec(tmp_path):
    """Low-order variants keep command tests fast."""

    def write(name: str, **extra) -> str:
        doc = {"dim": 1, "density": {"family": "semicircle"},
               "quad_order": 512, "normalize": "auto"}
        doc.update(extra)
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        return str(p)

    return write


class TestExitCodes:
    def test_malformed_json_is_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "check-measure", str(bad))
        assert code == 2
        assert "parse error" in err

    def test_missing_file_is_parse_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "check-measure", str(tmp_path / "none.json"))
        assert code == 2
        assert "cannot read" in err

    def test_mass_on_band_is_validation_error(self, capsys, tmp_path):
        doc = {"dim": 1, "density": {"family": "semicircle"},
               "masses": [{"energy": 1.0, "weight": {"re": [[0.1]]}}]}
        p = tmp_path / "band.json"
        p.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check-measure", str(p))
        assert code == 3
        assert "validation error" in err

    def test_unnormalized_strict_is_validation_error(self, capsys, tmp_path):
        doc = {"dim": 1, "density": {"family": "semicircle"},
               "normalize": "strict", "quad_order": 256,
               "masses": [{"energy": 2.5, "weight": {"re": [[0.2]]}}]}
        p = tmp_path / "strict.json"
        p.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check-measure", str(p))
        assert code == 3

    def test_near_band_mass_is_numerical_error(self, capsys, tmp_path):
        doc = {"dim": 1, "density": {"family": "semicircle"},
               "quad_order": 256, "normalize": "auto",
               "masses": [{"energy": 2.00005, "weight": {"re": [[0.05]]}}]}
        p = tmp_path / "edge.json"
        p.write_text(json.dumps(doc))
        code, _, err = run(capsys, "limit", str(p))
        assert code == 4
        assert "numerical error" in err

    def test_bad_tolerance_override_is_parse_error(self, capsys, monkeypatch):
        for key in ("nope", "lin_rel", "pole_proximity"):
            monkeypatch.setenv("MATSZEGO_TOLERANCES", json.dumps({key: 1e-6}))
            code, _, err = run(capsys, "check-measure", FREE)
            assert code == 2
            assert "MATSZEGO_TOLERANCES" in err
            assert key in err

    def test_tolerance_override_applies(self, capsys, monkeypatch):
        monkeypatch.setenv("MATSZEGO_TOLERANCES", '{"norm": 1e-6}')
        code, _, _ = run(capsys, "check-measure", FREE)
        assert code == 0


class TestCommands:
    def test_check_measure_reports_invariants(self, capsys):
        code, out, _ = run(capsys, "check-measure", MASS)
        assert code == 0
        assert "valid" in out
        assert "2.5" in out  # the mass site appears in the state table

    def test_recurrence_prints_blocks(self, capsys, small_spec):
        spec = small_spec("free")
        code, out, _ = run(capsys, "recurrence", spec, "--n", "6")
        assert code == 0
        # free case: off-diagonal blocks 1, diagonal blocks 0
        assert "type1" in out

    def test_recurrence_type_choice_rejected_by_argparse(self, small_spec):
        spec = small_spec("free")
        with pytest.raises(SystemExit):
            main(["recurrence", spec, "--n", "4", "--type", "type9"])

    def test_factorize_reports_residual(self, capsys, small_spec):
        spec = small_spec("free")
        code, out, _ = run(capsys, "factorize", spec)
        assert code == 0
        assert "residual" in out

    def test_blaschke_reports_kernel_angles(self, capsys):
        code, out, _ = run(capsys, "blaschke", MATRIX_MASS)
        assert code == 0
        assert "unitarity" in out

    def test_blaschke_extracts_each_residue_kernel_once(self, capsys, monkeypatch):
        # the report reuses the angles build_pipeline certified
        calls = []
        original = blaschke.residue_kernel

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(blaschke, "residue_kernel", counting)
        code, _, _ = run(capsys, "blaschke", MATRIX_MASS)
        assert code == 0
        with open(MATRIX_MASS) as fh:
            masses = json.load(fh)["masses"]
        assert len(calls) == len(masses) == 1

    def test_limit_evaluates_grid(self, capsys, small_spec):
        spec = small_spec("free")
        code, out, _ = run(capsys, "limit", spec, "--radius", "0.5")
        assert code == 0

    def test_verify_convergence_column(self, capsys, small_spec):
        spec = small_spec(
            "mass", masses=[{"energy": 2.5, "weight": {"re": [[0.2]]}}]
        )
        code, out, _ = run(capsys, "verify", spec, "--n-list", "5,15")
        assert code == 0

    def test_sumrule_balance_line(self, capsys, small_spec):
        spec = small_spec("free")
        code, out, _ = run(capsys, "sumrule", spec, "--n", "20")
        assert code == 0
        assert "agree" in out.lower()


class TestArtifacts:
    def test_outputs_are_deterministic(self, capsys, tmp_path, small_spec):
        spec = small_spec(
            "mass", masses=[{"energy": 2.5, "weight": {"re": [[0.2]]}}]
        )
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            code, _, _ = run(capsys, "verify", spec, "--n-list", "5,10", "--out", str(d))
            assert code == 0
        names1 = sorted(p.name for p in d1.iterdir())
        names2 = sorted(p.name for p in d2.iterdir())
        assert names1 == names2
        assert "manifest.json" in names1
        assert "report.json" in names1
        for name in names1:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    def test_manifest_contents(self, capsys, tmp_path, small_spec):
        spec = small_spec("free")
        out_dir = tmp_path / "art"
        code, _, _ = run(capsys, "sumrule", spec, "--n", "10", "--out", str(out_dir))
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "sumrule --n 10"
        assert len(manifest["spec_sha256"]) == 64
        assert "seed" not in manifest
        assert manifest["tolerance_overrides"] == {}

    def test_report_json_is_plain_data(self, capsys, tmp_path, small_spec):
        spec = small_spec("free")
        out_dir = tmp_path / "art"
        code, _, _ = run(capsys, "factorize", spec, "--out", str(out_dir))
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert isinstance(report, dict)
        assert np.isfinite(report["residual"])

    def test_csv_tables_parse(self, capsys, tmp_path, small_spec):
        spec = small_spec("free")
        out_dir = tmp_path / "art"
        code, _, _ = run(capsys, "recurrence", spec, "--n", "5", "--out", str(out_dir))
        assert code == 0
        csvs = list(out_dir.glob("*.csv"))
        assert csvs
        for f in csvs:
            lines = f.read_text().strip().splitlines()
            width = len(lines[0].split(","))
            assert all(len(line.split(",")) == width for line in lines[1:])
