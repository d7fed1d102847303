"""Command-line surface: exit codes, stdout content, artifact determinism."""

import dataclasses
import json
import re
import warnings

import numpy as np
import pytest

from matszego import blaschke, cli, limits, specio, tolerances
from matszego import polynomials as poly
from matszego.cli import main

from conftest import (
    SPECS_DIR,
    edge_pair_document,
    many_mass_document,
    noncommuting_document,
    semicircle_document,
)

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

    def test_indefinite_table_is_validation_error(self, capsys, small_spec):
        identity = {"re": [[1.0, 0.0], [0.0, 1.0]]}
        values = [identity] * 8
        values[2] = values[5] = {"re": [[0.5, 0.6], [0.6, 0.5]]}  # eigenvalues 1.1, -0.1
        spec = small_spec("indefinite", dim=2, density={"family": "table", "values": values})
        code, out, err = run(capsys, "check-measure", spec)
        assert code == 3 and out == ""
        assert err == "validation error: table: samples not positive semi-definite\n"

    def test_unnormalized_strict_is_validation_error(self, capsys, tmp_path):
        doc = {"dim": 1, "density": {"family": "semicircle"},
               "normalize": "strict", "quad_order": 256,
               "masses": [{"energy": 2.5, "weight": {"re": [[0.2]]}}]}
        p = tmp_path / "strict.json"
        p.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check-measure", str(p))
        assert code == 3

    @pytest.mark.parametrize("normalize", ["strict", "auto"])
    @pytest.mark.parametrize("size", [1e300, 1e306, 1e307, 1e308])
    def test_overflowing_table_is_validation_error(self, capsys, small_spec, size, normalize):
        # the weight's sum over the 64 nodes overflows from about 7e305, the
        # table's FFT from 1e307, its symmetrization at 1e308: the table
        # stage refuses all three, and numpy warns of none; 1e300 is
        # normalized by the automatic rescale
        if size == 1e300:
            message = "measure not normalized: " if normalize == "strict" else None
        else:
            message = (f"table: largest sample magnitude {size:.3e} overflows the sum of "
                       "the weight over 64 nodes")
        spec = small_spec("huge", quad_order=64, normalize=normalize,
                          density={"family": "table", "values": [{"re": [[size]]}] * 64})
        for command in ("check-measure", "factorize"):
            # numpy's warnings reach a CLI user's stderr, but not capsys
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, _, err = run(capsys, command, spec)
            assert [str(w.message) for w in caught] == []
            if message is None:
                assert (code, err) == (0, "")
            else:
                assert code == 3 and err.startswith("validation error: " + message), command
                assert err.count("\n") == 1, err

    def test_overflowing_total_mass_is_one_line(self, capsys, small_spec):
        # the table's own 64 nodes sum to 2.6e307, the 4096-node grid's to inf
        spec = small_spec("huge", quad_order=4096,
                          density={"family": "table", "values": [{"re": [[1e305]]}] * 64})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, "check-measure", spec)
        assert [str(w.message) for w in caught] == []
        assert (code, err) == (3, "validation error: normalization: total mass mu(R) not "
                                  "finite: entry (0, 0) is (inf+nanj)\n")

    def test_singular_total_mass_is_validation_error(self, capsys, tmp_path):
        # auto-normalization needs mu(R)^(-1/2), and diag(1, 0) has none
        doc = {"dim": 2, "quad_order": 8,
               "density": {"family": "table", "values": [{"re": [[1.0, 0.0], [0.0, 0.0]]}] * 8}}
        p = tmp_path / "singular.json"
        p.write_text(json.dumps(doc))
        code, _, err = run(capsys, "factorize", str(p))
        assert code == 3
        assert err.startswith("validation error: auto-normalization: total mass mu(R) is "
                              "singular: smallest eigenvalue 0.000e+00 at or below ")

    def test_near_band_mass_exits_zero(self, capsys, tmp_path):
        # |z| = 0.9929: masses may lie anywhere off the band, and an exit
        # of 0 means the pipeline certified the mass kernel
        doc = {"dim": 1, "density": {"family": "semicircle"},
               "quad_order": 256, "normalize": "auto",
               "masses": [{"energy": 2.00005, "weight": {"re": [[0.05]]}}]}
        p = tmp_path / "edge.json"
        p.write_text(json.dumps(doc))
        code, _, err = run(capsys, "limit", str(p), "--out", str(tmp_path / "out"))
        assert code == 0 and err == ""
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(report["poles"]) == 1 and min(report["value_at_zero_eigenvalues"]) > 0.0

    def test_far_mass_exits_zero(self, capsys, tmp_path):
        # a mass at E = 1e9 has z = 1e-9, which cancelled to 0 when z was
        # formed as (E - sqrt(E^2 - 4)) / 2
        doc = {"dim": 1, "density": {"family": "semicircle"},
               "quad_order": 256, "normalize": "auto",
               "masses": [{"energy": 1e9, "weight": {"re": [[0.2]]}}]}
        p = tmp_path / "far.json"
        p.write_text(json.dumps(doc))
        code, _, err = run(capsys, "blaschke", str(p), "--out", str(tmp_path / "out"))
        assert code == 0 and err == ""
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["factors"][0]["z"] == {"re": 1e-9, "im": 0.0}

    @pytest.mark.parametrize("dim, energy, weight", [
        (1, 1e155, [[0.1]]),
        (1, 1e200, [[0.1]]),
        (1, -1e300, [[0.1]]),
        (2, 1e200, [[0.1, 0.0], [0.0, 0.0]]),
        (2, -1e250, [[0.1, 0.0], [0.0, 0.2]]),
    ])
    @pytest.mark.parametrize("argv", [
        ["recurrence", "--n", "20"], ["sumrule", "--n", "20"], ["verify", "--n-list", "5,20"],
    ])
    def test_overflowing_recurrence_is_numerical_error(self, capsys, tmp_path, dim, energy,
                                                       weight, argv):
        # |E| above about 4e154 overflows the Gram matrix of the mass rows,
        # x^2 |R p|^2; the recurrence refuses its first non-finite step
        doc = {"dim": dim, "density": {"family": "semicircle"},
               "quad_order": 1024, "normalize": "auto",
               "masses": [{"energy": energy, "weight": {"re": weight}}]}
        p = tmp_path / "far.json"
        p.write_text(json.dumps(doc))
        code, _, err = run(capsys, argv[0], str(p), *argv[1:])
        assert code == 4
        if argv[0] == "verify" and dim == 2 and np.linalg.matrix_rank(weight) < dim:
            # the limit's frame refuses first: L(0) has a singular value |z_k|
            assert err.startswith("numerical error: limits: frame from G(0)^-1 B(0) / sqrt 2: ")
        else:
            assert err.startswith(
                "numerical error: stieltjes: step 1: Gram matrix not finite at "
                f"max |x| = {abs(energy):.3e}; "
            ), err

    @pytest.mark.parametrize("energy", [1.7e308, -np.finfo(float).max])
    @pytest.mark.parametrize("command", ["check-measure", "blaschke", "limit"])
    def test_mass_at_the_largest_floats_exits_zero(self, capsys, tmp_path, energy, command):
        # z = 1 / E is subnormal there; forming E + sqrt(E^2 - 4) overflowed
        # to inf and made z = 0, a pole outside the punctured disk
        doc = {"dim": 1, "density": {"family": "semicircle"},
               "quad_order": 1024, "normalize": "auto",
               "masses": [{"energy": energy, "weight": {"re": [[0.1]]}}]}
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(doc))
        code, _, err = run(capsys, command, str(p), "--out", str(tmp_path / "out"))
        assert code == 0 and err == ""

    @pytest.mark.parametrize(
        "extra, path",
        [
            ({"quad_order": 1000}, "spec.quad_order"),
            ({"quad_order": 2}, "spec.quad_order"),
            ({"density": {"family": "table", "values": [{"re": [[0.3]]}] * 3}},
             "spec.density.values"),
        ],
    )
    def test_bad_grid_size_is_parse_error(self, capsys, small_spec, extra, path):
        code, _, err = run(capsys, "check-measure", small_spec("grid", **extra))
        assert code == 2
        assert "parse error" in err
        assert path in err

    @pytest.mark.parametrize(
        "extra, path",
        [
            ({"masses": [{"energy": 10**400, "weight": {"re": [[0.1]]}}]},
             "spec.masses[0].energy"),
            ({"density": {"family": "poly_semicircle", "coefficients": [1.0, -(10**400)]}},
             "spec.density.coefficients[1]"),
            ({"density": {"family": "table", "values": [{"re": [[0.3]]}] * 3
                          + [{"re": [[0.3]], "im": [[10**400]]}]}},
             "spec.density.values[3].im[0][0]"),
        ],
    )
    def test_oversized_number_is_parse_error(self, capsys, small_spec, extra, path):
        code, _, err = run(capsys, "check-measure", small_spec("huge", **extra))
        assert code == 2
        assert f"{path}: number too large" in err

    def test_overlong_integer_literal_is_parse_error(self, capsys, tmp_path):
        p = tmp_path / "long.json"
        p.write_text('{"dim": 1, "density": {"family": "semicircle"}, "quad_order": '
                     + "1" * 5000 + "}")
        code, _, err = run(capsys, "check-measure", str(p))
        assert code == 2
        assert "parse error: integer literal longer than" in err

    def test_bad_tolerance_override_is_parse_error(self, capsys, monkeypatch):
        for key in ("nope", "lin_rel", "pole_proximity", "pd_floor"):
            monkeypatch.setenv("MATSZEGO_TOLERANCES", json.dumps({key: 1e-6}))
            code, _, err = run(capsys, "check-measure", FREE)
            assert code == 2
            assert "MATSZEGO_TOLERANCES" in err
            assert key in err

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400])
    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(tolerances.Tolerances)])
    def test_non_finite_tolerance_override_is_parse_error(self, capsys, monkeypatch, key, value):
        # a certificate compared against NaN or inf never fires, a NaN
        # would reach manifest.json as a bare NaN, which is not JSON, and
        # an integer beyond every float fails its first conversion
        monkeypatch.setenv("MATSZEGO_TOLERANCES", f'{{"{key}": {value}}}')
        code, _, err = run(capsys, "check-measure", FREE)
        assert (code, err) == (2, f"parse error: MATSZEGO_TOLERANCES: {key} must be a "
                                  "finite number\n")

    @pytest.mark.parametrize("where", ["file", "under_file"])
    def test_unwritable_out_is_parse_error(self, capsys, tmp_path, where):
        # an existing regular file where --out or one of its parents
        # should be a directory: exit 2 naming the path, no traceback
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker if where == "file" else blocker / "out"
        code, outp, err = run(capsys, "check-measure", MASS, "--out", str(out))
        assert (code, outp) == (2, "")
        assert err.startswith(f"parse error: cannot write {out}: ")
        assert "Traceback" not in err and err.count("\n") == 1

    def test_finite_overrides_of_either_sign_are_kept(self, monkeypatch):
        monkeypatch.setenv("MATSZEGO_TOLERANCES", '{"pos": -1e-12, "orth": 0}')
        tol, overrides = tolerances.from_environment()
        assert (tol.pos, tol.orth) == (-1e-12, 0) and overrides == {"pos": -1e-12, "orth": 0}

    def test_tolerance_override_applies(self, capsys, monkeypatch):
        monkeypatch.setenv("MATSZEGO_TOLERANCES", '{"norm": 1e-6}')
        code, _, _ = run(capsys, "check-measure", FREE)
        assert code == 0

    def test_factor_failure_names_its_stage(self, capsys, monkeypatch, tmp_path):
        spec = tmp_path / "noncommuting.json"
        spec.write_text(json.dumps(noncommuting_document(2, 256)))
        monkeypatch.setenv("MATSZEGO_TOLERANCES", '{"fact_rel": 1e-18}')
        code, _, err = run(capsys, "factorize", str(spec))
        assert code == 4
        assert err.startswith("numerical error: factorize: residual ")
        assert "above target" in err and "sweeps" in err

    def test_singular_boundary_names_its_stage(self, capsys, monkeypatch, small_spec):
        # the semicircle factor vanishes at t = 0 and pi, so its smallest
        # boundary singular value is far below half the largest
        monkeypatch.setenv("MATSZEGO_TOLERANCES", '{"sing_rel": 0.5}')
        code, _, err = run(capsys, "factorize", small_spec("semicircle"))
        assert code == 4
        assert err.startswith("numerical error: s_function: G(e^{-it}) numerically singular ")
        assert "smallest singular value" in err and "at or below 5.0e-01 x largest" in err

    def test_kernel_mismatch_names_its_stage(self, capsys, monkeypatch):
        # a cutoff above the top singular value takes the whole space as
        # the kernel of the rank-one residue, against a one-dimensional
        # mass kernel
        monkeypatch.setenv("MATSZEGO_TOLERANCES", '{"residue_rank_rel": 2.0}')
        code, _, err = run(capsys, "blaschke", MATRIX_MASS)
        assert code == 4
        assert err.startswith("numerical error: blaschke: residue kernel at E = 2.5 misses ")
        assert "against kernel_angle 1.0e-06, dims 2 vs 1" in err


class TestRecurrenceCertificates:
    """Degrees the measure cannot resolve are refused before the loop, and
    no command exits 0 with a certificate above tol.orth."""

    # M = 64 and one rank-one mass: 32 + 1 dimensions, degrees 0..32
    MASS = {"masses": [{"energy": 2.5, "weight": {"re": [[0.2]]}}], "quad_order": 64}
    REFUSED = ("numerical error: stieltjes: degree 33 needs (n + 1) l = 34 dimensions; the "
               "discrete measure has (M/2) l + sum rank_k = 32 x 1 + 1 = 33, so degrees 0..32\n")

    @pytest.mark.parametrize("command, allowed, refused", [
        ("recurrence", ["--n", "32"], ["--n", "33"]),
        ("verify", ["--n-list", "5,32"], ["--n-list", "5,33"]),
        ("sumrule", ["--n", "32"], ["--n", "33"]),
    ])
    def test_refused_above_the_resolution(self, capsys, small_spec, command, allowed, refused):
        spec = small_spec("mass", **self.MASS)
        code, _, err = run(capsys, command, spec, *allowed)
        assert code == 0, err
        code, _, err = run(capsys, command, spec, *refused)
        assert code == 4
        assert err == self.REFUSED

    @pytest.mark.parametrize("name, message", [
        ("orthonormality_defect", "orthonormality defect"),
        ("recurrence_residual", "recurrence residual"),
    ])
    def test_broken_certificate_exits_4(self, capsys, monkeypatch, small_spec, name, message):
        monkeypatch.setattr(poly, name, lambda seq: 2.0e-7)
        code, out, err = run(capsys, "recurrence", small_spec("free"), "--n", "6")
        assert code == 4 and out == ""
        assert err == (f"numerical error: stieltjes: {message} 2.000e-07 over degrees 0..6 "
                       "above tol.orth 1.0e-07\n")

    def test_free_semicircle_at_degree_400(self, capsys, tmp_path):
        code, _, err = run(capsys, "recurrence", FREE, "--n", "400", "--out", str(tmp_path))
        assert code == 0, err
        r = json.loads((tmp_path / "report.json").read_text())
        a = np.array(r["a_blocks"]["re"]) + 1j * np.array(r["a_blocks"]["im"])
        assert float(np.max(np.abs(a - 1.0))) <= 1e-12
        assert r["orthonormality_window"] == 400
        assert r["orthonormality_defect"] <= 1e-12 and r["recurrence_residual"] <= 1e-10
        assert isinstance(r["reorthogonalization_passes"], int)
        assert 0 < r["reorthogonalization_passes"] < 100


# Report bounds of the benchmark's checks: the factor residual target is
# fact_rel times max |w|, below 10 on a normalized measure.
FACTOR_RESIDUAL = 10.0 * 1e-8
UNITARITY_DEFECT = 1e-10
KERNEL_ANGLE = 1e-6


class TestNonCommutingEndToEnd:
    @pytest.fixture(scope="class")
    def reports(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("noncommuting")
        spec = root / "noncommuting_2_m1024.json"
        spec.write_text(json.dumps(noncommuting_document(2, 1024)))
        out = {}
        for command, *args in (("factorize",), ("blaschke",),
                               ("limit", "--radius", "0.8", "--angles", "24")):
            target = root / command
            code = main([command, str(spec), *args, "--out", str(target)])
            report = target / "report.json"
            out[command] = (code, json.loads(report.read_text()) if code == 0 else None)
        return out

    def test_factorize(self, reports):
        code, r = reports["factorize"]
        assert code == 0
        assert r["residual"] <= FACTOR_RESIDUAL
        assert r["det_szego_residual"] <= max(2.0 * r["det_szego_estimate"], 1e-8)
        assert min(r["value_at_zero_eigenvalues"]) > 0.0

    def test_blaschke(self, reports):
        code, r = reports["blaschke"]
        assert code == 0
        assert r["boundary_unitarity_defect"] <= UNITARITY_DEFECT
        assert max(r["kernel_angles"], default=0.0) <= KERNEL_ANGLE
        assert r["det_at_zero"] == pytest.approx(r["det_at_zero_expected"], rel=1e-10)

    def test_limit(self, reports):
        code, r = reports["limit"]
        assert code == 0
        assert r["factor_residual"] <= FACTOR_RESIDUAL
        assert min(r["value_at_zero_eigenvalues"]) > 0.0


class TestManyMasses:
    """140 and 200 scalar masses (|z| up to 0.9899 and 0.9930), and 20
    rank-one masses on a 2x2 weight, crowding the band edges: one factor
    and one certified kernel per mass."""

    @pytest.mark.parametrize("dim, pairs", [(1, 70), (1, 100), (2, 10)])
    def test_blaschke_and_limit(self, tmp_path, monkeypatch, dim, pairs):
        spec = tmp_path / "many.json"
        spec.write_text(json.dumps(many_mass_document(dim, pairs)))
        calls = []
        original = blaschke.residue_kernel

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(blaschke, "residue_kernel", counting)
        reports = {}
        for command in ("blaschke", "limit"):
            target = tmp_path / command
            assert main([command, str(spec), "--out", str(target)]) == 0
            reports[command] = json.loads((target / "report.json").read_text())
        masses = 2 * pairs
        assert len(calls) == 2 * masses
        r = reports["blaschke"]
        assert r["factor_count"] == len(r["kernel_angles"]) == masses
        assert max(r["kernel_angles"]) <= tolerances.DEFAULT.kernel_angle
        assert r["boundary_unitarity_defect"] <= UNITARITY_DEFECT
        assert len(reports["limit"]["poles"]) == masses

    def test_pair_at_radius_0999_runs_every_command(self, tmp_path):
        spec = tmp_path / "pair.json"
        spec.write_text(json.dumps(edge_pair_document(0.999)))
        for command, extra in (("blaschke", []), ("limit", []),
                               ("verify", ["--n-list", "5,20,60"]), ("sumrule", [])):
            assert main([command, str(spec), "--out", str(tmp_path / command)] + extra) == 0
        r = json.loads((tmp_path / "blaschke" / "report.json").read_text())
        assert max(r["kernel_angles"]) <= tolerances.DEFAULT.kernel_angle
        assert r["boundary_unitarity_defect"] <= UNITARITY_DEFECT


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

    def test_factorize_reports_the_wilson_grid(self, capsys, tmp_path):
        # a table of |2 sin t|^(3/2) / (2 pi |sin t|), whose weight is no
        # trigonometric polynomial: the only kind Wilson's iteration factors
        theta = -np.pi + (2 * np.arange(2048) + 1) * np.pi / 2048
        f = np.abs(2.0 * np.sin(theta)) ** 1.5 / (2.0 * np.pi * np.abs(np.sin(theta)))
        doc = {"dim": 1, "quad_order": 2048, "normalize": "auto",
               "density": {"family": "table", "values": [{"re": [[v]]} for v in f]}}
        spec = tmp_path / "fractional.json"
        spec.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "factorize", str(spec))
        assert code == 0
        assert re.match(r"factor of order 256 by Wilson iteration in \d+ sweep\(s\) "
                        r"on 2048 nodes; boundary residual ", out)

    @pytest.mark.parametrize("doc, line", [
        (semicircle_document(2, 512), "factor of order 2 by cyclic reduction in 1 step(s); "),
        (noncommuting_document(2, 1024), "factor of order 2 by cyclic reduction in 2 step(s); "),
    ])
    def test_factorize_names_its_path(self, capsys, tmp_path, doc, line):
        spec = tmp_path / "doc.json"
        spec.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "factorize", str(spec))
        assert code == 0
        assert out.startswith(line)

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

    def test_blaschke_factors_do_not_depend_on_the_complement_basis(
        self, tmp_path, monkeypatch, shipped_measures
    ):
        # a factor's b-block rows are any orthonormal basis of the complement
        # of its kept range frame; the report prints what does not depend on it
        mu = shipped_measures["matrix_semicircle_mass"]

        def blaschke_run(name):
            target = tmp_path / name
            assert main(["blaschke", MATRIX_MASS, "--out", str(target)]) == 0
            factors = json.loads((target / "report.json").read_text())["factors"]
            return factors, limits.build_pipeline(mu).product.unitaries

        factors, unitaries = blaschke_run("given")
        original = blaschke.unitary_completion

        def rotated(vectors, tol):
            # turn the trailing (b-block) columns of the complete QR
            q = original(vectors, tol)
            d = np.shape(vectors)[1]
            rng = np.random.default_rng(3)
            shape = (q.shape[1] - d, q.shape[1] - d)
            turn = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            q[:, d:] = q[:, d:] @ np.linalg.qr(turn)[0]
            return q

        monkeypatch.setattr(blaschke, "unitary_completion", rotated)
        turned_factors, turned_unitaries = blaschke_run("rotated")
        assert np.max(np.abs(turned_unitaries - unitaries)) > 0.1
        assert [json.dumps(f) for f in turned_factors] == [json.dumps(f) for f in factors]
        for f in factors:
            p = np.array(f["projector"]["re"]) + 1j * np.array(f["projector"]["im"])
            assert np.max(np.abs(p @ p - p)) < 1e-15
            assert np.trace(p).real == pytest.approx(f["rank"])

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

    def test_verify_degree_zero_alone(self, capsys, small_spec):
        spec = small_spec(
            "mass", masses=[{"energy": 2.5, "weight": {"re": [[0.2]]}}]
        )
        code, _, err = run(capsys, "verify", spec, "--n-list", "0")
        assert code == 0, err

    def test_sumrule_balance_line(self, capsys, small_spec):
        spec = small_spec("free")
        code, out, _ = run(capsys, "sumrule", spec, "--n", "20")
        assert code == 0
        assert "agree" in out.lower()


    def test_sumrule_runs_on_a_tiny_determinant(self, capsys, tmp_path):
        # det w reaches 7e-15 at the edge nodes of the semicircle times I_3
        spec = tmp_path / "semicircle3.json"
        spec.write_text(json.dumps(semicircle_document(3, 1024)))
        out_dir = tmp_path / "art"
        code, _, err = run(capsys, "sumrule", str(spec), "--n", "20", "--out", str(out_dir))
        assert code == 0, err
        assert json.loads((out_dir / "report.json").read_text())["agreement"] is True


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

    def test_legacy_order_flag_has_no_effect(self, capsys, tmp_path, small_spec):
        spec = small_spec("noncommuting", density={
            "family": "table",
            "values": [{"re": [[2.0, c], [c, 1.0]], "im": [[0.0, c], [-c, 0.0]]}
                       for c in (0.1, 0.3, 0.5, 0.6, 0.6, 0.5, 0.3, 0.1)],
        }, dim=2)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        code, _, _ = run(capsys, "factorize", spec, "--out", str(d1))
        assert code == 0
        code, _, err = run(capsys, "factorize", spec, "--order", "0", "--out", str(d2))
        assert code == 0
        assert "--order is ignored" in err
        for name in sorted(p.name for p in d1.iterdir()):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
        assert json.loads((d2 / "manifest.json").read_text())["command"] == "factorize"

    def test_report_json_is_plain_data(self, capsys, tmp_path, small_spec):
        spec = small_spec("free")
        out_dir = tmp_path / "art"
        code, _, _ = run(capsys, "factorize", spec, "--out", str(out_dir))
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert isinstance(report, dict)
        assert np.isfinite(report["residual"])

    def test_recurrence_formats_each_block_stack_once(self, capsys, monkeypatch, tmp_path):
        # one set of magnitude texts per stack of a/b blocks serves
        # report.json and its CSV: every join of the report and the CSVs
        # writes a stack's view with its texts, and no other float array
        # of the report reaches the engine
        shared, joins = [], []
        shared_texts, float_join = specio._shared_texts, specio._float_join
        monkeypatch.setattr(specio, "_shared_texts",
                            lambda values: shared.append(values.shape) or shared_texts(values))

        def join(a, first, seps, texts=None, *rows):
            joins.append((a.shape, texts is not None))
            return float_join(a, first, seps, texts, *rows)

        monkeypatch.setattr(specio, "_float_join", join)
        code, _, _ = run(capsys, "recurrence", MATRIX_MASS, "--n", "12", "--out", str(tmp_path))
        assert code == 0
        assert shared == [(12, 2, 4)] * 2
        assert sorted(joins) == [((2, 12, 2, 2), True)] * 2 + [((12, 8), True)] * 2

    def test_tables_are_formatted_only_when_written(self, capsys, monkeypatch, tmp_path,
                                                    small_spec):
        calls = []
        for name in ("format_real_table", "format_matrix_table", "_magnitude_texts"):
            monkeypatch.setattr(specio, name, lambda *args, _f=getattr(specio, name), _n=name:
                                calls.append(_n) or _f(*args))
        spec = small_spec("mass", masses=[{"energy": 2.5, "weight": {"re": [[0.2]]}}])
        jobs = [("check-measure",), ("recurrence", "--n", "5"), ("factorize",), ("blaschke",),
                ("limit",), ("verify", "--n-list", "2,5"), ("sumrule", "--n", "10")]
        for command, *args in jobs:
            assert run(capsys, command, spec, *args)[0] == 0
        assert calls == []
        for command, *args in jobs:
            assert run(capsys, command, spec, *args, "--out", str(tmp_path / command))[0] == 0
        assert calls.count("format_real_table") == 6 and calls.count("format_matrix_table") == 3

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


class TestFlagValues:
    REFUSED = [
        (["recurrence", "--n", "0"], "--n must be positive, got 0"),
        (["sumrule", "--n", "0"], "--n must be positive, got 0"),
        (["limit", "--radius", "0"], "--radius must lie in (0, 0.99], got 0.0"),
        (["limit", "--radius", "1.5"], "--radius must lie in (0, 0.99], got 1.5"),
        (["verify", "--n-list", "5", "--radius", "0"], "--radius must lie in (0, 0.99], got 0.0"),
        (["verify", "--n-list", "5", "--radius", "1.5"], "--radius must lie in (0, 0.99], got 1.5"),
        (["limit", "--angles", "0"], "--angles must be positive, got 0"),
        (["verify", "--n-list", "5,-1"], "--n-list: degrees must be nonnegative, got -1"),
        (["verify", "--n-list", " , "], "--n-list: no degrees given"),
        (["verify", "--n-list", "x"], "--n-list: 'x' is not an integer"),
    ]

    @pytest.mark.parametrize("admissible", [True, False])
    @pytest.mark.parametrize("argv, message", REFUSED, ids=[" ".join(a) for a, _ in REFUSED])
    def test_bad_value_is_refused_before_the_measure_is_built(
            self, capsys, tmp_path, small_spec, argv, message, admissible):
        # a document with a mass at E = 1 is refused with exit 3 once built;
        # a bad flag value is refused first
        masses = [] if admissible else [{"energy": 1.0, "weight": {"re": [[0.1]]}}]
        spec = small_spec("doc", masses=masses)
        out = tmp_path / "art"
        code, stdout, err = run(capsys, argv[0], spec, *argv[1:], "--out", str(out))
        assert (code, stdout, err) == (2, "", f"parse error: {message}\n")
        assert not out.exists()

    # every subcommand with its defaults: the manifest writes each option
    # but the legacy --order, and the degrees sorted and distinct
    DEFAULTS = [
        (["check-measure"], "check-measure"),
        (["recurrence", "--n", "5"], "recurrence --n 5 --type type1"),
        (["factorize"], "factorize"),
        (["blaschke"], "blaschke"),
        (["limit"], "limit --radius 0.8 --angles 24"),
        (["verify", "--n-list", "60,5,5"], "verify --n-list 5,60 --radius 0.8"),
        (["sumrule"], "sumrule --n 100"),
    ]

    @pytest.mark.parametrize("argv, command", DEFAULTS, ids=[c for _, c in DEFAULTS])
    def test_manifest_command_of_the_defaults(self, capsys, tmp_path, small_spec, argv,
                                              command):
        out = tmp_path / "art"
        assert run(capsys, argv[0], small_spec("free"), *argv[1:], "--out", str(out))[0] == 0
        assert json.loads((out / "manifest.json").read_text())["command"] == command


def parser_outcome(capsys, parse, argv):
    """(exit code, stdout, stderr) of an argparse run that exits."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestParser:
    BAD_FLAGS = [
        ["check-measure"],
        ["check-measure", "spec.json", "--bogus"],
        ["recurrence", "spec.json"],
        ["recurrence", "spec.json", "--n", "x"],
        ["recurrence", "spec.json", "--n", "3", "--type", "type9"],
        ["factorize", "spec.json", "--order"],
        ["factorize", "spec.json", "--version"],
        ["blaschke", "spec.json", "extra"],
        ["limit", "spec.json", "--radius", "abc"],
        ["limit", "spec.json", "--angles", "1.5"],
        ["verify", "spec.json"],
        ["verify", "spec.json", "--n-list", "5", "--radius"],
        ["sumrule", "spec.json", "--n", "x"],
    ]

    @pytest.mark.parametrize("command", sorted(cli._SUBCOMMANDS))
    def test_help_is_the_full_parsers(self, capsys, monkeypatch, command):
        full = parser_outcome(capsys, cli._build_parser().parse_args, [command, "--help"])
        assert full[0] == 0 and full[1].startswith(f"usage: matszego {command} ")
        built = []
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda *args: built.append(args) or build(*args))
        assert parser_outcome(capsys, main, [command, "--help"]) == full
        assert built == [(command,)]

    @pytest.mark.parametrize("argv", BAD_FLAGS, ids=" ".join)
    def test_bad_flags_are_the_full_parsers(self, capsys, argv):
        full = parser_outcome(capsys, cli._build_parser().parse_args, argv)
        assert full[0] == 2 and "error: " in full[2]
        assert parser_outcome(capsys, main, argv) == full

    @pytest.mark.parametrize("argv", [[], ["--help"], ["--version"], ["factorise", "x"]])
    def test_other_first_words_get_the_full_parser(self, capsys, monkeypatch, argv):
        built = []
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda *args: built.append(args) or build(*args))
        full = parser_outcome(capsys, build().parse_args, argv)
        assert parser_outcome(capsys, main, argv) == full
        assert built == [(None,)]
