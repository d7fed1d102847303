"""Benchmark of the matszego command-line tool.

    python3 bench/bench.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in bench/workloads.py, or `all` to run each
of them in turn, each in its own process.

Run from a checkout root (the directory holding src/ and specs/). One
process per workload, one caller, closed loop: the jobs of a workload
(CLI invocations through matszego.cli.main with --out) run one after
another, in whole passes, until the next pass would end after S
seconds; at least two passes run, so every job's report.json can be
compared with its first one byte for byte. Each job's exit code and
report invariants are checked (bench/checks.py); a failed job is counted
and the run goes on.

--trace 0 prints the end-to-end metrics:
  setup_s      median time of a cold `import matszego.cli` (numpy and
               scipy included) in a fresh interpreter, which every CLI
               call pays; several imports per run;
  wall_s       median over passes of one pass's job time;
  peak_rss_mb  the workload process's high-water resident set.
Both times are seconds at the reference speed of bench/speed.py, which
takes out the drift of a shared host's CPU speed; raw wall-clock
medians, tails and sample counts are printed and recorded beside them.
--trace 1 alternates untraced and traced passes and prints the
per-layer metrics of bench/layers.py, per pass, including the tracing
overhead (traced minus untraced raw pass time).

Human-readable lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
`failed` counts jobs with a nonzero exit or a failed check; `correct`
is false when a job that exited 0 failed a check. Documents, the full
result record (environment included) and, with --trace 1, the spans are
written under .bench_out/ in the checkout.

BLAS and OpenMP pools are pinned to one thread before numpy loads, so a
single caller is measured on one core of any machine.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MIN_PASSES = 2


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup() -> list[tuple[float, float]]:
    """(seconds, reference seconds) of cold `import matszego.cli` runs.

    Each import runs in a fresh interpreter under the speed probe
    (bench/speed.py). The first one writes the bytecode cache and is
    not kept.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(ROOT / "bench" / "speed.py"), "matszego.cli"]
    runs = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True,
                              text=True, timeout=120)
        runs.append(tuple(json.loads(done.stdout)))
    return runs[1:]


def run_job(cli, argv: list[str]) -> tuple[int, float, str]:
    """(exit code, seconds, captured output) of one in-process CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.perf_counter() - start
    return code, elapsed, buf.getvalue()


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with ten samples above it.

    None when that percentile would not lie above the median.
    """
    if len(samples) < 20:
        return None
    ordered = sorted(samples)
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


class Session:
    """Runs passes over one workload's jobs and tallies their outcomes."""

    def __init__(self, cli, check_job, jobs, paths: dict, job_root: pathlib.Path) -> None:
        self.cli, self.check_job, self.jobs, self.paths = cli, check_job, jobs, paths
        self.job_root = job_root
        self.first_report: dict[int, bytes] = {}
        self.failures: list[str] = []
        self.attempted = self.failed = self.wrong = 0

    def run_pass(self, index: int, tracer=None, probe=None) -> list[float]:
        """Run every job once; returns each job's time, probe handlers excluded.

        A job fails on a nonzero exit or a failed check; `wrong` counts
        the failed checks of jobs that exited 0, that is, outputs that
        are not correct.
        """
        times = []
        for i, job in enumerate(self.jobs):
            job_dir = self.job_root / f"{i:02d}"
            argv = [job.command, str(self.paths[job.doc]), *job.args, "--out", str(job_dir)]
            if tracer is not None:
                tracer.start_job(index * len(self.jobs) + i)
            cost = probe.cost if probe is not None else 0.0
            code, elapsed, text = run_job(self.cli, argv)
            if probe is not None:
                elapsed -= probe.cost - cost
            times.append(elapsed)
            problems = self.check_job(job.command, code, job_dir, self.first_report.get(i))
            if code == 0 and i not in self.first_report and not problems:
                self.first_report[i] = (job_dir / "report.json").read_bytes()
            self.attempted += 1
            if problems:
                self.failed += 1
                self.wrong += int(code == 0)
                last = (text.strip().splitlines() or [""])[-1]
                self.failures.append(f"pass {index}: {job.label}: {'; '.join(problems)} {last}")
            shutil.rmtree(job_dir, ignore_errors=True)
        return times


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True, timeout=30,
            ).stdout.strip()
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    mem_gb = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    return {
        "commit": commit,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "mem_total_gb": round(mem_gb, 1),
    }


def _timing_line(name: str, samples: list[float], scale: float, unit: str) -> str:
    t = tail(samples)
    return (f"  {name:<16} median {statistics.median(samples) * scale:10.4f} {unit}"
            + (f", p{t[0]:.0f} {t[1] * scale:.4f} {unit}" if t else "")
            + f", {len(samples)} samples")


def main(argv=None) -> int:
    args = _parse_args(argv)
    missing = [p for p in ("src/matszego/cli.py", "specs") if not (ROOT / p).exists()]
    if missing:
        print(f"bench: {', '.join(missing)} not found under {ROOT}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("MATSZEGO_TOLERANCES", None)
    sys.path.insert(0, str(ROOT / "src"))

    import checks
    import layers
    import speed
    import workloads

    if args.workload == "all":
        code = 0
        for name in workloads.WORKLOADS:
            argv_one = ["--workload", name, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(args.trace)]
            returncode = subprocess.run([sys.executable, __file__, *argv_one]).returncode
            code = code or returncode
        return code
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    setup = measure_setup()

    from matszego import cli

    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    (out / "docs").mkdir(parents=True)
    docs, jobs = workloads.build(args.workload, args.seed)
    paths = {}
    for name, doc in docs.items():
        paths[name] = out / "docs" / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    for job in jobs:
        paths.setdefault(job.doc, ROOT / "specs" / f"{job.doc}.json")

    # Loads the lazily imported parts of numpy and scipy before timing.
    warm = str(ROOT / "specs" / "semicircle_mass.json")
    for argv_warm in (["blaschke", warm], ["verify", warm, "--n-list", "5"]):
        run_job(cli, argv_warm)

    session = Session(cli, checks.check_job, jobs, paths, out / "jobs")
    tracer = layers.Tracer()
    probe = speed.SpeedProbe()
    raw: dict[int, list[float]] = {i: [] for i in range(len(jobs))}
    norm: dict[int, list[float]] = {i: [] for i in range(len(jobs))}
    pass_raw: list[float] = []
    pass_norm: list[float] = []
    pass_traced: list[float] = []
    start = time.perf_counter()
    passes = 0
    while True:
        if args.trace and passes % 2 == 1:
            with tracer.installed():
                pass_traced.append(sum(session.run_pass(passes, tracer=tracer)))
        else:
            first = len(probe.samples)
            probe.sample()
            with probe:
                times = session.run_pass(passes, probe=probe)
            factor = probe.factor_since(first)
            for i, t in enumerate(times):
                raw[i].append(t)
                norm[i].append(t * factor)
            pass_raw.append(sum(times))
            pass_norm.append(sum(times) * factor)
        passes += 1
        elapsed = time.perf_counter() - start
        if passes >= MIN_PASSES and elapsed * (passes + 1) / passes > args.seconds:
            break

    cmd_s: dict[str, float] = {}
    for i, job in enumerate(jobs):
        key = job.command.replace("-", "_") + "_s"
        cmd_s[key] = cmd_s.get(key, 0.0) + statistics.median(norm[i])
    job_raw = [t for s in raw.values() for t in s]
    e2e = {
        "setup_s": (statistics.median(t for _, t in setup), "s"),
        "wall_s": (statistics.median(pass_norm), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    speed_ratio = probe.factor_since(0)
    record = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "seconds": args.seconds,
        "passes": passes,
        "jobs": [job.label for job in jobs],
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "command_s": cmd_s,
        "fail_frac": session.failed / session.attempted,
        "failures": session.failures,
        "speed_vs_reference": speed_ratio,
        "samples": {
            "setup_s": [t for _, t in setup],
            "setup_raw_s": [t for t, _ in setup],
            "pass_s": pass_norm,
            "pass_raw_s": pass_raw,
            "pass_traced_raw_s": pass_traced,
            "job_raw_s": {jobs[i].label: s for i, s in raw.items()},
            "probe_s": probe.samples,
        },
    }

    print(f"env: {json.dumps(record['environment'])}")
    print(f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs, {passes} passes "
          f"({len(pass_traced)} traced), closed loop, 1 caller")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<16} {value:12.4f} {unit}")
    print(f"  speed            {speed_ratio:.3f} of reference "
          f"({len(probe.samples)} probe samples); raw wall-clock times:")
    print(_timing_line("setup", [t for t, _ in setup], 1.0, "s"))
    print(_timing_line("pass", pass_raw, 1.0, "s"))
    print(_timing_line("job", job_raw, 1e3, "ms"))
    for name, value in sorted(cmd_s.items()):
        print(f"  {name:<16} {value:12.4f} s per pass at reference speed")
    print(f"  fail_frac        {session.failed}/{session.attempted} = "
          f"{session.failed / session.attempted:.4f}")
    for line in session.failures[:10]:
        print(f"  failed: {line}")

    if args.trace:
        per_layer = layers.layer_metrics(tracer, len(pass_traced))
        per_layer["trace.overhead_s"] = (
            statistics.median(pass_traced) - statistics.median(pass_raw)
        )
        total = sum(per_layer[f"{mod}.self_s"] for mod in layers.LAYERS)
        shares = sorted(((per_layer[f"{mod}.self_s"] / total, mod) for mod in layers.LAYERS),
                        reverse=True)
        print("  self-time shares: " + ", ".join(f"{mod} {s:.1%}" for s, mod in shares))
        record["per_layer"] = per_layer
        (out / "spans.json").write_text(json.dumps(
            [{"job": j, "name": n, "parent": p, "start": s, "end": e}
             for j, n, p, s, e in tracer.spans]))
        metrics = {name: {"value": v, "unit": "s" if name.endswith("_s") else "count"}
                   for name, v in per_layer.items()}
    else:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in e2e.items()}
    (out / "result.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": session.wrong == 0, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
