"""The Blaschke-Potapov stage under the benchmark's layer tracer.

bench/layers.py wraps construct_product and residue_kernel by name and
keys residue_kernel calls on (func.__self__, complex(pole)) to count
duplicate kernel extractions. A change of either signature would break
the traced benchmark while every untraced test still passed; these jobs
run the two commands that reach the stage with the tracer installed.
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
