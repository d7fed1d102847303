"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

Run from the checkout root; they import the package from src/.
"""

from __future__ import annotations

import importlib
import json
import pathlib
import signal
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import checks  # noqa: E402
import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from matszego import cli, specio  # noqa: E402

GENERATED = [w for w in workloads.WORKLOADS if w != "catalog"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    docs1, jobs1 = workloads.build(workload, 7)
    docs2, jobs2 = workloads.build(workload, 7)
    assert json.dumps(docs1) == json.dumps(docs2)
    assert jobs1 == jobs2


@pytest.mark.parametrize("workload", GENERATED)
def test_seed_changes_the_documents(workload):
    docs1, _ = workloads.build(workload, 7)
    docs2, _ = workloads.build(workload, 8)
    assert docs1.keys() == docs2.keys()
    assert all(json.dumps(docs1[k]) != json.dumps(docs2[k]) for k in docs1)


@pytest.mark.parametrize("workload", GENERATED)
def test_generated_documents_are_admissible(workload):
    docs, jobs = workloads.build(workload, 3)
    assert {job.doc for job in jobs} == set(docs)
    for name, doc in docs.items():
        mu = specio.build_measure(specio.parse_measure_spec(json.dumps(doc)))
        assert mu.dim == doc["dim"], name


def _module_attributes():
    return {
        (mod, fn): getattr(importlib.import_module(f"matszego.{mod}"), fn)
        for mod, fns in layers.LAYERS.items()
        for fn in fns
    }


def test_wrappers_leave_module_attributes_as_found():
    before = _module_attributes()
    tracer = layers.Tracer()
    with tracer.installed():
        during = _module_attributes()
        assert all(during[key] is not before[key] for key in before)
        tracer.start_job(0)
        code, _, _ = bench.run_job(cli, ["check-measure", str(ROOT / "specs" / "arcsine.json")])
    assert code == 0
    assert _module_attributes() == before
    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("stop")
    after = _module_attributes()
    assert all(after[key] is before[key] for key in before)
    names = {span[1] for span in tracer.spans}
    assert {"cli.main", "specio.parse_measure_spec", "measure.make_measure"} <= names


def test_self_time_subtracts_direct_children():
    spans = [
        (0, "cli.main", -1, 0.0, 10.0),
        (0, "limits.build_pipeline", 0, 1.0, 7.0),
        (0, "outer.spectral_factorize", 1, 2.0, 5.0),
        (1, "cli.main", -1, 20.0, 21.0),
    ]
    self_s, calls = layers.self_times(spans)
    assert self_s == {"cli.main": 5.0, "limits.build_pipeline": 3.0,
                      "outer.spectral_factorize": 3.0}
    assert calls["cli.main"] == 2


def test_tracer_counts_duplicate_factorizations():
    tracer = layers.Tracer()
    spec = str(ROOT / "specs" / "semicircle_mass.json")
    with tracer.installed():
        tracer.start_job(0)
        assert bench.run_job(cli, ["sumrule", spec, "--n", "10"])[0] == 0
        tracer.start_job(1)
        assert bench.run_job(cli, ["factorize", spec])[0] == 0
    # check_sum_rule factors the weight once; a new job starts afresh
    assert tracer.counts["outer.spectral_factorize.dup"] == 0
    assert tracer.counts["measure.szego_weight.refine2_calls"] == 2
    metrics = layers.layer_metrics(tracer, 1)
    assert metrics["outer.spectral_factorize.calls"] == 2
    assert metrics["polynomials.stieltjes.blocks"] == 10


def _sumrule_session(tmp_path, main):
    class FakeCli:
        pass

    fake = FakeCli()
    fake.main = main
    job = workloads.Job("sumrule", "semicircle_mass", ("--n", "10"))
    paths = {"semicircle_mass": ROOT / "specs" / "semicircle_mass.json"}
    return bench.Session(fake, checks.check_job, [job], paths, tmp_path)


def _out_dir(argv):
    return pathlib.Path(argv[argv.index("--out") + 1])


def test_broken_report_counts_as_failure(tmp_path):
    def broken_main(argv):
        code = cli.main(argv)
        report_path = _out_dir(argv) / "report.json"
        report = json.loads(report_path.read_text())
        report["agreement"] = False
        report_path.write_text(json.dumps(report))
        return code

    session = _sumrule_session(tmp_path, broken_main)
    session.run_pass(0)
    session.run_pass(1)
    assert (session.attempted, session.failed, session.wrong) == (2, 2, 2)
    assert "factor route disagrees" in session.failures[0]


def test_changed_report_and_exit_code_count_as_failures(tmp_path):
    runs = []

    def drifting_main(argv):
        runs.append(argv)
        code = cli.main(argv)
        if len(runs) == 2:
            report_path = _out_dir(argv) / "report.json"
            report_path.write_text(report_path.read_text() + " ")
        return code if len(runs) < 3 else 4

    session = _sumrule_session(tmp_path, drifting_main)
    for index in range(3):
        session.run_pass(index)
    assert (session.attempted, session.failed, session.wrong) == (3, 2, 1)
    assert "differs from the first run" in session.failures[0]
    assert "exit code 4" in session.failures[1]


def test_intact_report_passes(tmp_path):
    session = _sumrule_session(tmp_path, cli.main)
    session.run_pass(0)
    session.run_pass(1)
    assert (session.attempted, session.failed) == (2, 0)


def test_tail_needs_ten_samples_above_the_median():
    assert bench.tail([1.0] * 19) is None
    pct, value = bench.tail([float(i) for i in range(100)])
    assert (pct, value) == (90.0, 89.0)


def test_speed_probe_samples_while_active_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe()
    with probe:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert len(probe.samples) >= 3
    assert probe.cost == pytest.approx(sum(probe.samples))
    assert probe.factor_since(0) == pytest.approx(speed.NOMINAL_S / (probe.cost / len(probe.samples)))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
