"""Golden digests of the artifacts of the shipped documents.

Runs the catalog of CLI jobs (every subcommand on the scalar shipped
documents, the four fast ones on the 2x2 documents, with the README's
arguments) with --out and compares the sha256 of every report.json and
CSV table with golden_digests.json. Digests are exact: they hold for one
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

from matszego.cli import main

from conftest import SPECS_DIR

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
    """sha256 of each report.json and CSV, keyed by document/command/file."""
    digests = {}
    for name, (command, *args) in CATALOG:
        target = out / name / command
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([command, str(SPECS_DIR / f"{name}.json"), *args, "--out", str(target)])
        assert code == 0, f"{command} {name} exited {code}"
        for path in sorted(target.iterdir()):
            if path.name == "report.json" or path.suffix == ".csv":
                key = path.relative_to(out).as_posix()
                digests[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


# sha256 of report.json's a_blocks and b_blocks (json.dumps with sorted
# keys) from `recurrence --n 100` on the 2x2 documents, which the catalog
# does not run: every bit of the Stieltjes step's blocks is pinned.
RECURRENCE_BLOCKS = {
    "matrix_semicircle_mass": "d98c96d629f09a18ecb00c88168cee5019c2f8d8e4181129ffb29c65f9916adc",
    "matrix_conjugated": "0b147570d0de8e8914f974b0df1efc4805cbfb1d8f37c0b4cfb7c04037948e8b",
}


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
