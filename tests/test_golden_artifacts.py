"""Golden digests of the artifacts of the shipped documents.

Runs the catalog of CLI jobs (every subcommand on the scalar shipped
documents, the four fast ones on the 2x2 documents, with the README's
arguments) with --out and compares the sha256 of every manifest.json,
report.json and CSV table with golden_digests.json. Digests are exact: they hold for one
numpy/BLAS build. After a change that is meant to alter results,
regenerate the file with

    PYTHONPATH=src python tests/test_golden_artifacts.py

which prints each digest it rewrites, old and new.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import tempfile

import numpy as np
import pytest

from matszego.cli import main

from conftest import NUMPY_LOADED_EARLY, SPECS_DIR

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_digests.json"

SCALAR_JOBS = (
    ("check-measure",),
    ("recurrence", "--n", "30", "--type", "type1"),
    ("factorize",),
    ("blaschke",),
    ("limit", "--radius", "0.8", "--angles", "24"),
    ("verify", "--n-list", "5,20,60", "--radius", "0.8"),
    ("sumrule", "--n", "100"),
)
MATRIX_JOBS = (
    ("check-measure",),
    ("factorize",),
    ("blaschke",),
    ("limit", "--radius", "0.8", "--angles", "24"),
)
CATALOG = [
    (name, job)
    for names, jobs in (
        (("free_semicircle", "arcsine", "semicircle_mass"), SCALAR_JOBS),
        (("matrix_semicircle_mass", "matrix_conjugated"), MATRIX_JOBS),
    )
    for name in names
    for job in jobs
]


def catalog_digests(out: pathlib.Path) -> dict[str, str]:
    """sha256 of each manifest, report.json and CSV, keyed by document/command/file."""
    digests = {}
    for name, (command, *args) in CATALOG:
        target = out / name / command
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([command, str(SPECS_DIR / f"{name}.json"), *args, "--out", str(target)])
        assert code == 0, f"{command} {name} exited {code}"
        for path in sorted(target.iterdir()):
            if path.name in ("manifest.json", "report.json") or path.suffix == ".csv":
                key = path.relative_to(out).as_posix()
                digests[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


# sha256 of report.json's a_blocks and b_blocks (json.dumps with sorted
# keys) from `recurrence --n 100` on the 2x2 documents, which the catalog
# does not run: every bit of the Stieltjes step's blocks is pinned.
RECURRENCE_BLOCKS = {
    "matrix_semicircle_mass": "8ccd9dc0e652e75c814894f4e8d75a1c8e06b0aed5d84e3ce2da3baee2c5dd2b",
    "matrix_conjugated": "f3d157d01d6a26af312a187e47d0c4dce15dabe97f66633ede7db1e1221e3684",
}

# The same digests for `recurrence --n 100 --type type2`: every bit of the
# type-2 unitaries, the polar factors of the prefix products A_1 ... A_k,
# is pinned as the per-degree loop gave them.
RECURRENCE_TYPE2_BLOCKS = {
    "matrix_semicircle_mass": "0ad14366e17e119836431c6ab73d9b0df56428b8a1da90397a51ad6fdaeb8eaa",
    "matrix_conjugated": "db5a5c3c37b9fe0392ac86c5d50360883a230acefc6ddeaaf411a94922d2bb39",
}

# sha256 of report.json from `verify --n-list 0`, whose type-2 transform
# runs on zero blocks.
DEGREE_ZERO_REPORTS = {
    "semicircle_mass": "b0efd0658a5f0bc3d88decde7263fab32a3e3ea4aa71d7ee1f0a6e53cdba9a4f",
    "matrix_semicircle_mass": "ab0a4dda4cb2efbdabbd9c489ed0dcc37e14cf21b651d0ed0083950ecaa50db4",
}


def test_blas_threads_are_pinned_before_numpy_loads():
    # the digests here are exact for one BLAS thread; with two, the 2x2
    # recurrence's GEMMs round differently and RECURRENCE_BLOCKS moves
    assert not NUMPY_LOADED_EARLY, "numpy was imported before conftest pinned one BLAS thread"


def test_complex_to_real_cast_is_an_error():
    # ComplexWarning subclasses RuntimeWarning, which pyproject.toml's
    # filterwarnings turns into an error
    with pytest.raises(np.exceptions.ComplexWarning):
        np.full(2, 1 + 1j).astype(float)


def test_recurrence_blocks_of_the_matrix_documents(tmp_path):
    for name, digest in RECURRENCE_BLOCKS.items():
        target = tmp_path / name
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["recurrence", str(SPECS_DIR / f"{name}.json"), "--n", "100",
                         "--out", str(target)])
        assert code == 0, name
        report = json.loads((target / "report.json").read_text())
        blocks = json.dumps({k: report[k] for k in ("a_blocks", "b_blocks")}, sort_keys=True)
        assert hashlib.sha256(blocks.encode()).hexdigest() == digest, name


def test_type2_recurrence_blocks_of_the_matrix_documents(tmp_path):
    for name, digest in RECURRENCE_TYPE2_BLOCKS.items():
        target = tmp_path / name
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["recurrence", str(SPECS_DIR / f"{name}.json"), "--n", "100",
                         "--type", "type2", "--out", str(target)])
        assert code == 0, name
        report = json.loads((target / "report.json").read_text())
        blocks = json.dumps({k: report[k] for k in ("a_blocks", "b_blocks")}, sort_keys=True)
        assert hashlib.sha256(blocks.encode()).hexdigest() == digest, name


def test_verify_at_degree_zero_alone(tmp_path):
    for name, digest in DEGREE_ZERO_REPORTS.items():
        target = tmp_path / name
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["verify", str(SPECS_DIR / f"{name}.json"), "--n-list", "0",
                         "--out", str(target)])
        assert code == 0, name
        assert hashlib.sha256((target / "report.json").read_bytes()).hexdigest() == digest, name


def test_catalog_artifacts_match_golden_digests(tmp_path):
    assert len(CATALOG) == 29
    golden = json.loads(GOLDEN.read_text())
    got = catalog_digests(tmp_path)
    changed = sorted(k for k in golden.keys() | got.keys() if golden.get(k) != got.get(k))
    assert not changed, "artifacts differ from golden_digests.json: " + ", ".join(changed)


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        digests = catalog_digests(pathlib.Path(tmp))
    for key in sorted(old.keys() | digests.keys()):
        if old.get(key) != digests.get(key):
            print(f"rewrote {key}: {old.get(key)} -> {digests.get(key)}")
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
