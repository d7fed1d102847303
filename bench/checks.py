"""Per-job output checks: exit code, report invariants, reproducibility.

Each check compares a report.json field with a tolerance the package
itself uses (matszego.tolerances.DEFAULT, or a gate in its acceptance
tests where the package has no field for it). check_job returns the
list of problems; an empty list means the job passed.
"""

from __future__ import annotations

import json
import math
import pathlib

from matszego.tolerances import DEFAULT as TOL

# Factor residuals are absolute; the package's target is fact_rel times
# max |w|, and every benchmark measure is normalized (total mass I), so
# its circle weight stays below 10 in norm.
FACTOR_RESIDUAL = 10.0 * TOL.fact_rel
# Periodic re-orthogonalization sweeps are not part of the three-term
# relation, so at n = 100 the residual sits at 1e-5 to 1e-4 on every 2x2
# family without masses (shipped matrix_conjugated at M = 4096 included).
# The bound catches a broken recurrence, not that drift.
RECURRENCE_RESIDUAL = 1e-3
# Acceptance gate, criteria 5 and 6.
ETA_GAP = 1e-3
SUMRULE_RESIDUAL = 1e-2
FLOOR_JITTER = 1e-12


def _report_problems(command: str, r: dict) -> list[str]:
    p = []

    def need(ok: bool, message: str) -> None:
        if not ok:
            p.append(message)

    if command == "check-measure":
        need(r["normalization_defect"] <= TOL.norm,
             f"normalization defect {r['normalization_defect']:.3e} > {TOL.norm:.0e}")
        need(r["weight_min_det"] > 0.0, "weight not positive definite at a node")
    elif command == "recurrence":
        need(r["orthonormality_defect"] <= TOL.orth,
             f"orthonormality defect {r['orthonormality_defect']:.3e} > {TOL.orth:.0e}")
        need(r["recurrence_residual"] <= RECURRENCE_RESIDUAL,
             f"recurrence residual {r['recurrence_residual']:.3e} > {RECURRENCE_RESIDUAL:.0e}")
        need(r["type_defect"] <= TOL.herm,
             f"type defect {r['type_defect']:.3e} > {TOL.herm:.0e}")
    elif command == "factorize":
        need(r["residual"] <= FACTOR_RESIDUAL,
             f"factor residual {r['residual']:.3e} > {FACTOR_RESIDUAL:.0e}")
        # the package's own rule for a quantity with a coarse/fine estimate
        bound = max(2.0 * r["det_szego_estimate"], 1e-8)
        need(r["det_szego_residual"] <= bound,
             f"det-Szego residual {r['det_szego_residual']:.3e} > {bound:.3e}")
        need(min(r["value_at_zero_eigenvalues"]) > 0.0, "G(0) not positive definite")
    elif command == "blaschke":
        need(r["boundary_unitarity_defect"] <= TOL.herm,
             f"boundary unitarity defect {r['boundary_unitarity_defect']:.3e} > {TOL.herm:.0e}")
        worst = max(r["kernel_angles"], default=0.0)
        need(worst <= TOL.kernel_angle,
             f"kernel angle {worst:.3e} > {TOL.kernel_angle:.0e}")
        need(math.isclose(r["det_at_zero"], r["det_at_zero_expected"], rel_tol=1e-10),
             "|det B(0)| differs from prod |z_k|^s_k")
    elif command == "limit":
        need(r["factor_residual"] <= FACTOR_RESIDUAL,
             f"factor residual {r['factor_residual']:.3e} > {FACTOR_RESIDUAL:.0e}")
        need(min(r["value_at_zero_eigenvalues"]) > 0.0, "L(0) not positive definite")
    elif command == "verify":
        for key in ("eta_min", "eta_max"):
            gaps = [abs(v - 1.0) for v in r[key]]
            need(gaps[-1] <= ETA_GAP, f"{key} at n = {r['n_values'][-1]} is {r[key][-1]:.6f}")
            need(gaps[-1] <= gaps[0] + FLOOR_JITTER, f"{key} moves away from 1")
        need(r["logdet_abs"][-1] <= ETA_GAP,
             f"|log det H| {r['logdet_abs'][-1]:.3e} > {ETA_GAP:.0e}")
    elif command == "sumrule":
        res = r["residuals"]
        need(all(b - a < FLOOR_JITTER for a, b in zip(res, res[1:])),
             "sum-rule residuals do not decrease")
        need(res[-1] < SUMRULE_RESIDUAL,
             f"sum-rule residual {res[-1]:.3e} >= {SUMRULE_RESIDUAL:.0e}")
        need(r["agreement"] is True, "factor route disagrees with weight route")
    return p


def check_job(command: str, code: int, out_dir: pathlib.Path,
              first_report: bytes | None) -> list[str]:
    """Problems with one finished job; first_report is an earlier run's report.json."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        raw = (out_dir / "report.json").read_bytes()
        report = json.loads(raw)
        problems = _report_problems(command, report)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {type(exc).__name__}: {exc}"]
    if first_report is not None and raw != first_report:
        problems.append("report.json differs from the first run of this job")
    return problems
