"""Summarize the runs recorded under .bench_out/ in the checkout.

    python3 bench/summarize.py [OUTPUT.json]

Groups the result.json records by workload. For each end-to-end metric
it prints the median over runs, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread: the
distance between the quartiles as a share of the median. For traced
runs it gives the median of each per-layer metric. With an argument,
the summary and the environment of the first run (seed left out) are
also written there as JSON.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent


def summarize(records: list[dict]) -> dict:
    by_workload: dict[str, list[dict]] = defaultdict(list)
    for rec in records:
        by_workload[rec["workload"]].append(rec)
    out = {}
    for workload, recs in sorted(by_workload.items()):
        plain = [r for r in recs if "per_layer" not in r]
        traced = [r for r in recs if "per_layer" in r]
        entry: dict = {"runs": len(plain), "traced_runs": len(traced),
                       "seeds": sorted(r["environment"]["seed"] for r in plain),
                       "end_to_end": {}, "command_s": {}, "per_layer": {}}
        for key, target in (("end_to_end", entry["end_to_end"]),
                            ("command_s", entry["command_s"])):
            names = sorted({n for r in plain for n in r[key]})
            for name in names:
                values = [r[key][name] for r in plain if name in r[key]]
                med = statistics.median(values)
                q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                             else (med, med, med))
                target[name] = {"median": med, "q1": q1, "q3": q3,
                                "spread": (q3 - q1) / med if med else None}
        entry["fail_frac"] = statistics.median(r["fail_frac"] for r in plain) if plain else None
        for name in sorted({n for r in traced for n in r["per_layer"]}):
            entry["per_layer"][name] = statistics.median(r["per_layer"][name] for r in traced)
        out[workload] = entry
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    paths = sorted((ROOT / ".bench_out").glob("*/result.json"))
    if not paths:
        print("summarize: no results under .bench_out/", file=sys.stderr)
        return 1
    records = [json.loads(p.read_text()) for p in paths]
    summary = summarize(records)
    for workload, entry in summary.items():
        print(f"{workload}: {entry['runs']} runs, {entry['traced_runs']} traced, "
              f"fail_frac {entry['fail_frac']}")
        for name, s in {**entry["end_to_end"], **entry["command_s"]}.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:<16} median {s['median']:10.4f}  "
                  f"q1 {s['q1']:10.4f}  q3 {s['q3']:10.4f}  spread {spread}")
    if argv:
        env = {k: v for k, v in records[0]["environment"].items() if k != "seed"}
        pathlib.Path(argv[0]).write_text(
            json.dumps({"environment": env, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
