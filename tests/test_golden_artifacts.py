"""Golden digests of the artifacts of the shipped documents.

Runs the catalog of CLI jobs (every subcommand on the scalar shipped
documents, the four fast ones on the 2x2 documents, with the README's
arguments) with --out and compares the sha256 of every report.json and
CSV table with golden_digests.json. Digests are exact: they hold for one
numpy/BLAS build. After a change that is meant to alter results,
regenerate the file with

    PYTHONPATH=src python tests/test_golden_artifacts.py
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


def test_catalog_artifacts_match_golden_digests(tmp_path):
    assert len(CATALOG) == 29
    golden = json.loads(GOLDEN.read_text())
    got = catalog_digests(tmp_path)
    changed = sorted(k for k in golden.keys() | got.keys() if golden.get(k) != got.get(k))
    assert not changed, "artifacts differ from golden_digests.json: " + ", ".join(changed)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = catalog_digests(pathlib.Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
