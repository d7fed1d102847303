"""The Blaschke-Potapov and recurrence stages under the benchmark's layer tracer.

bench/layers.py wraps construct_product and residue_kernel by name and
keys residue_kernel calls on (func.__self__, complex(pole)) to count
duplicate kernel extractions. It counts stieltjes blocks from the n_max
argument and keys a repeated stieltjes on its measure. A change of any of
these signatures would break the traced benchmark while every untraced
test still passed; these jobs run the commands that reach the stages with
the tracer installed. A verify job evaluates q_n once, on the disk grid and
the origin, whose row is the kappa_n that h_diagnostic reads.
"""

import contextlib
import io
import pathlib
import sys

import numpy as np
import pytest

from matszego import cli, limits, polynomials

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


def test_verify_evaluates_the_scaled_polynomials_once(recurrence_metrics):
    # the disk grid and the origin row, where q_n(0) = kappa_n, in one pass
    for (name, command, _, _, _), m in zip(RECURRENCE_JOBS, recurrence_metrics):
        if command == "verify":
            assert m["polynomials.eval_scaled_many.calls"] == 1, name


def test_polar_diagnostic_reads_the_leading_coefficients(monkeypatch, tmp_path):
    seen, jacobis = [], []
    verify_pointwise, h_diagnostic = limits.verify_pointwise, limits.h_diagnostic

    def pointwise_spy(lim, jacobi2, *args):
        jacobis.append(jacobi2)
        return verify_pointwise(lim, jacobi2, *args)

    def polar_spy(lim, kappas, n_values, tol):
        seen.append((kappas, n_values))
        return h_diagnostic(lim, kappas, n_values, tol)

    monkeypatch.setattr(limits, "verify_pointwise", pointwise_spy)
    monkeypatch.setattr(limits, "h_diagnostic", polar_spy)
    for name in ("semicircle_mass", "matrix_semicircle_mass"):
        argv = ["verify", str(SPECS_DIR / f"{name}.json"), "--n-list", "5,20,60",
                "--out", str(tmp_path / name)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, name
    assert len(seen) == len(jacobis) == 2
    for jac2, (kappas, n_values) in zip(jacobis, seen):
        assert kappas.shape == (len(n_values), jac2.dim, jac2.dim)
        for n, kappa in zip(n_values, kappas):
            want = polynomials.eval_scaled_many(jac2, [n], [0])[0, 0]
            assert np.abs(kappa - want).max() <= 1e-13 * max(1.0, np.abs(want).max()), n
