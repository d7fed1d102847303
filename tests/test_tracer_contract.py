"""The Blaschke-Potapov and recurrence stages under the benchmark's layer tracer.

bench/layers.py wraps construct_product and residue_kernel by name and
keys residue_kernel calls on (func.__self__, complex(pole)) to count
duplicate kernel extractions. It counts stieltjes blocks from the n_max
argument and keys a repeated stieltjes on its measure. A change of any of
these signatures would break the traced benchmark while every untraced
test still passed; these jobs run the commands that reach the stages with
the tracer installed.
"""

import contextlib
import io
import pathlib
import sys

import pytest

from matszego import cli

from conftest import SPECS_DIR

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
import layers  # noqa: E402

JOBS = [
    (name, command)
    for name in ("semicircle_mass", "matrix_semicircle_mass")
    for command in ("blaschke", "limit")
]


@pytest.fixture(scope="module")
def metrics(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    tracer = layers.Tracer()
    with tracer.installed():
        for job, (name, command) in enumerate(JOBS):
            tracer.start_job(job)
            argv = [command, str(SPECS_DIR / f"{name}.json"), "--out", str(out / str(job))]
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, f"{command} {name} under the tracer"
    return layers.layer_metrics(tracer, 1)


def test_every_job_builds_one_product(metrics):
    assert metrics["limits.build_pipeline.calls"] == len(JOBS)
    assert metrics["blaschke.construct_product.calls"] == len(JOBS)
    assert metrics["blaschke.errors"] == 0


def test_each_mass_kernel_is_extracted_once(metrics):
    # each shipped document has one mass; the tracer keys a call on its pole
    assert metrics["blaschke.residue_kernel.calls"] == len(JOBS)
    assert metrics["blaschke.residue_kernel.dup"] == 0


RECURRENCE_JOBS = [
    (name, command, args, blocks, refine2)
    for name in ("semicircle_mass", "matrix_semicircle_mass")
    for command, args, blocks, refine2 in (
        ("recurrence", ("--n", "30"), 30, 0),
        ("verify", ("--n-list", "5,20,60"), 60, 0),
        ("sumrule", ("--n", "100"), 100, 2),
    )
]


@pytest.fixture(scope="module")
def recurrence_metrics(tmp_path_factory):
    """Per-job layer metrics of the commands that run the recurrence."""
    out = tmp_path_factory.mktemp("traced_recurrence")
    per_job = []
    for job, (name, command, args, _, _) in enumerate(RECURRENCE_JOBS):
        tracer = layers.Tracer()
        with tracer.installed():
            tracer.start_job(job)
            argv = [command, str(SPECS_DIR / f"{name}.json"), *args, "--out", str(out / str(job))]
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, f"{command} {name} under the tracer"
        per_job.append(layers.layer_metrics(tracer, 1))
    return per_job


def test_recurrence_grid_adds_nothing_to_the_traced_counters(recurrence_metrics):
    # the degree-sized grid is resampled from the measure's own weight: one
    # measure build, one recurrence of n blocks, and the sum rule's two
    # refine-2 weight samplings, as before the grid was sized to the degree
    for (name, command, _, blocks, refine2), m in zip(RECURRENCE_JOBS, recurrence_metrics):
        job = f"{command} {name}"
        assert m["measure.make_measure.calls"] == 1, job
        assert m["polynomials.stieltjes.calls"] == 1, job
        assert m["polynomials.stieltjes.dup"] == 0, job
        assert m["polynomials.stieltjes.blocks"] == blocks, job
        assert m["measure.szego_weight.refine2_calls"] == refine2, job
        assert m["polynomials.errors"] == 0, job
