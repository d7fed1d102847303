"""Command-line driver: one measure document in, reports and tables out.

Every subcommand reads a JSON measure spec, prints a human summary to
standard output, and (with --out DIR) writes machine artifacts there:
report.json, flat CSV tables, and manifest.json. Outputs carry no
timestamps and use a fixed evaluation order, so equal manifests mean
bitwise-equal files.

Exit codes: 0 success, 2 malformed input (document syntax, bad flag
values, tolerance profile), 3 invalid measure data, 4 numerical failure
(lost positivity, no convergence, singularities), 5 internal error.

The MATSZEGO_TOLERANCES environment variable may hold a JSON object
overriding tolerance fields; overrides are echoed into the manifest.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import traceback

import numpy as np

from . import __version__
from . import limits, specio, sumrule
from . import measure as ms
from . import outer as sf
from . import polynomials as poly
from . import tolerances
from .errors import LostOrthogonality, NumericalError, ParseError, ValidationError
from .linalg import det, eigvalsh, hermitian_defect, max_operator_norm, operator_norm


def _plain(value):
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):  # written by specio._dumps, without lists when large
        return value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return value


def _parse_n_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            n = int(part)
        except ValueError:
            raise ParseError(f"--n-list: {part!r} is not an integer") from None
        if n < 0:
            raise ParseError(f"--n-list: degrees must be nonnegative, got {n}")
        out.append(n)
    if not out:
        raise ParseError("--n-list: no degrees given")
    return sorted(set(out))


def _sumrule_ladder(top: int) -> list[int]:
    if top < 1:
        raise ParseError(f"--n must be positive, got {top}")
    ns = {top}
    step = 5
    while step < top:
        ns.add(step)
        step *= 2
    return sorted(ns)


# ---------------------------------------------------------------------------
# subcommand bodies: each returns (report, tables, summary_lines), with
# tables[name] = (format, *args): format(*args) is the CSV text, made only
# when the tables are written


def _run_check_measure(args, mu, tol):
    w = ms.szego_weight(mu)
    eigs = eigvalsh(w.values)
    dets = det(w.values).real
    reflect_defect = float(
        np.max(np.abs(w.values - w.values[::-1].conj().transpose(0, 2, 1)))
    )
    herm_defect = hermitian_defect(w.values)
    tail_sum, edge_sum = ms.mass_condition_sums(mu)
    states = [
        {
            "energy": s.energy,
            "z": complex(s.z),
            "multiplicity": s.multiplicity,
            "weight_norm": float(operator_norm(s.weight)),
        }
        for s in mu.bound_states
    ]
    report = {
        "dim": mu.dim,
        "quad_order": mu.quad_order,
        "normalization_defect": mu.normalization_defect,
        "weight_min_eigenvalue": float(eigs.min()),
        "weight_min_det": float(dets.min()),
        "weight_hermiticity_defect": herm_defect,
        "weight_reflection_defect": reflect_defect,
        "mass_count": len(states),
        "masses": states,
        "mass_tail_sum": tail_sum,
        "mass_edge_sum": edge_sum,
    }
    tables = {
        "weight_eigenvalues": (
            specio.format_real_table,
            [
                ("theta", w.theta),
                ("lambda_min", eigs[:, 0]),
                ("lambda_max", eigs[:, -1]),
            ]
        )
    }
    lines = [
        f"measure valid: dim {mu.dim}, quadrature order {mu.quad_order}, "
        f"{len(states)} mass point(s)",
        f"weight: min eigenvalue {eigs.min():.6e}, min det {dets.min():.6e}, "
        f"reflection defect {reflect_defect:.3e}",
        f"normalization defect {mu.normalization_defect:.3e}",
    ]
    for s in states:
        lines.append(
            f"mass at E = {s['energy']:.6g}: z = {s['z'].real:.6f}, "
            f"multiplicity {s['multiplicity']}, weight norm {s['weight_norm']:.6e}"
        )
    return report, tables, lines


def _run_recurrence(args, mu, tol):
    if args.n < 1:
        raise ParseError(f"--n must be positive, got {args.n}")
    seq = poly.stieltjes(mu, args.n, tol)
    jac = seq.jacobi
    if args.norm_type != "type1":
        jac, _ = poly.to_type(jac, args.norm_type, tol)
    orth = poly.orthonormality_defect(seq)
    rec_res = poly.recurrence_residual(seq)
    for name, value in (("orthonormality defect", orth), ("recurrence residual", rec_res)):
        if not value <= tol.orth:
            raise LostOrthogonality(
                f"stieltjes: {name} {value:.3e} over degrees 0..{args.n} "
                f"above tol.orth {tol.orth:.1e}"
            )
    report = {
        "n": args.n,
        "norm_type": args.norm_type,
        "type_defect": poly.type_defect(jac),
        "orthonormality_defect": orth,
        "orthonormality_window": args.n,
        "recurrence_residual": rec_res,
        "reorthogonalization_passes": seq.reorthogonalization_passes,
        "a_blocks": specio.MatrixStack(jac.a),
        "b_blocks": specio.MatrixStack(jac.b),
    }
    idx = np.arange(1, args.n + 1)
    tables = {
        "jacobi_a": (specio.format_matrix_table, "j", idx, report["a_blocks"]),
        "jacobi_b": (specio.format_matrix_table, "j", idx, report["b_blocks"]),
    }
    lines = [
        f"computed {args.n} recurrence blocks ({args.norm_type}), "
        f"{seq.reorthogonalization_passes} re-orthogonalization pass(es)",
        f"orthonormality defect {orth:.3e} (degrees 0..{args.n}), "
        f"recurrence residual {rec_res:.3e}",
        f"|A_{args.n} - I| = {float(operator_norm(jac.a[-1] - np.eye(mu.dim))):.3e}, "
        f"|B_{args.n}| = {float(operator_norm(jac.b[-1])):.3e}",
    ]
    return report, tables, lines


def _run_factorize(args, mu, tol):
    if args.order is not None:
        print("note: --order is ignored; the factor sets its series length", file=sys.stderr)
    w = ms.szego_weight(mu)
    g = sf.spectral_factorize(w, tol=tol)
    det_res, det_est = sf.det_szego_check(g)
    s_vals = sf.s_function(g, tol).values
    s_defect = max_operator_norm(s_vals @ s_vals.conj().transpose(0, 2, 1) - np.eye(mu.dim))
    report = {
        "order": g.order,
        "sweeps": g.sweeps,
        "residual": g.residual,
        "neg_leakage": g.neg_leakage,
        "truncation_defect": g.truncation_defect,
        "det_szego_residual": det_res,
        "det_szego_estimate": det_est,
        "value_at_zero": g.value_at_zero(),
        "value_at_zero_eigenvalues": eigvalsh(g.value_at_zero()),
        "phase_unitarity_defect": s_defect,
    }
    tables = {
        "factor_coefficients": (
            specio.format_matrix_table, "k", np.arange(g.order + 1), g.coeffs
        )
    }
    factor = {
        "reduction": f"factor of order {g.order} by cyclic reduction in {g.sweeps} step(s)",
        "wilson": f"factor of order {g.order} by Wilson iteration in {g.sweeps} sweep(s) "
                  f"on {w.node_count} nodes",
    }[g.path]
    lines = [
        f"{factor}; "
        f"boundary residual {g.residual:.3e}, negative leakage {g.neg_leakage:.3e}",
        f"det mean-value residual {det_res:.3e} (estimate {det_est:.3e}), "
        f"phase unitarity defect {s_defect:.3e}",
        "G(0) eigenvalues: "
        + ", ".join(f"{v:.8f}" for v in eigvalsh(g.value_at_zero())),
    ]
    return report, tables, lines


def _run_blaschke(args, mu, tol):
    lim = limits.build_pipeline(mu, tol=tol)
    product = lim.product
    ring = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 257)[:-1])
    b_ring = product.eval(ring)
    unitarity = max_operator_norm(b_ring.conj().transpose(0, 2, 1) @ b_ring - np.eye(mu.dim))
    det0 = abs(det(product.value_at_zero()))
    angles = lim.kernel_angles
    # each b-block projector as I - W W*, W the kept range frame (the rows
    # past the b-block): the b-block rows are one arbitrary basis of its range
    factors = [
        {"z": z, "rank": rank, "projector": np.eye(mu.dim) - u[rank:].conj().T @ u[rank:]}
        for z, rank, u in zip(product.poles.tolist(), product.ranks.tolist(), product.unitaries)
    ]
    report = {
        "factor_count": len(factors),
        "factors": factors,
        "boundary_unitarity_defect": unitarity,
        "det_at_zero": det0,
        "det_at_zero_expected": product.det_at_zero(),
        "kernel_angles": angles,
    }
    tables = {
        "blaschke_factors": (
            specio.format_real_table,
            [
                ("z_re", product.poles.real),
                ("z_im", product.poles.imag),
                ("rank", product.ranks),
            ]
        ),
        "kernel_angles": (
            specio.format_real_table,
            [
                ("energy", [s.energy for s in mu.bound_states]),
                ("angle", angles),
            ]
        ),
    }
    lines = [
        f"{len(factors)} elementary factor(s); boundary unitarity defect {unitarity:.3e}",
        f"|det B(0)| = {det0:.12e} vs prod |z_k|^(s_k) = {product.det_at_zero():.12e}",
    ]
    if angles.size:
        lines.append(f"worst certified kernel angle {angles.max():.3e}")
    return report, tables, lines


def _run_limit(args, mu, tol):
    if not 0.0 < args.radius <= 0.99:
        raise ParseError(f"--radius must lie in (0, 0.99], got {args.radius}")
    if args.angles < 1:
        raise ParseError(f"--angles must be positive, got {args.angles}")
    lim = limits.build_pipeline(mu, tol=tol)
    pts = lim.disk_points(args.radius, args.angles)
    vals = lim.eval(pts)
    columns = [("z_re", pts.real), ("z_im", pts.imag)]
    for i in range(mu.dim):
        for j in range(mu.dim):
            columns.append((f"e{i}{j}_re", vals[:, i, j].real))
            columns.append((f"e{i}{j}_im", vals[:, i, j].imag))
    report = {
        "radius": args.radius,
        "angle_count": args.angles,
        "value_at_zero": lim.value0,
        "value_at_zero_eigenvalues": eigvalsh(lim.value0),
        "frame": lim.frame,
        "poles": lim.product.poles.tolist(),
        "factor_residual": lim.outer.residual,
    }
    tables = {"limit_grid": (specio.format_real_table, columns)}
    lines = [
        f"limit evaluated at {pts.size} point(s), radius {args.radius}",
        "L(0) eigenvalues: "
        + ", ".join(f"{v:.8f}" for v in eigvalsh(lim.value0)),
        f"{len(lim.product.poles)} Blaschke factor(s) in the product",
    ]
    return report, tables, lines


def _run_verify(args, mu, tol):
    n_list = _parse_n_list(args.n_list)
    if not 0.0 < args.radius <= 0.99:
        raise ParseError(f"--radius must lie in (0, 0.99], got {args.radius}")
    rep = limits.asymptotics_report(mu, n_list, radius=args.radius, tol=tol)
    report = {
        "n_values": list(rep.n_values),
        "radius": rep.radius,
        "pointwise_sup": rep.pointwise_sup,
        "origin_gap": rep.origin_gap,
        "l2_residual": rep.l2_residual,
        "mass_norm": rep.mass_norm,
        "mass_worst": rep.mass_worst,
        "eta_min": rep.polar.eta_min,
        "eta_max": rep.polar.eta_max,
        "logdet_abs": rep.polar.logdet_abs,
        "frame_defect": rep.polar.frame_defect,
    }
    tables = {
        "convergence": (
            specio.format_real_table,
            [
                ("n", [float(n) for n in rep.n_values]),
                ("pointwise_sup", rep.pointwise_sup),
                ("origin_gap", rep.origin_gap),
                ("l2_residual", rep.l2_residual),
                ("mass_norm", rep.mass_norm),
                ("eta_min", rep.polar.eta_min),
                ("eta_max", rep.polar.eta_max),
                ("logdet_abs", rep.polar.logdet_abs),
                ("frame_defect", rep.polar.frame_defect),
            ]
        )
    }
    lines = [f"convergence at radius {rep.radius}:"]
    for i, n in enumerate(rep.n_values):
        lines.append(
            f"  n = {n}: sup {rep.pointwise_sup[i]:.3e}, "
            f"L2 {rep.l2_residual[i]:.3e}, mass {rep.mass_norm[i]:.3e}, "
            f"eta in [{rep.polar.eta_min[i]:.8f}, {rep.polar.eta_max[i]:.8f}]"
        )
    return report, tables, lines


def _run_sumrule(args, mu, tol):
    n_list = _sumrule_ladder(args.n)
    ledger = sumrule.check_sum_rule(mu, n_list, tol)
    report = {
        "n_values": list(ledger.n_values),
        "z_value": ledger.z_value,
        "z_estimate": ledger.z_estimate,
        "e0_value": ledger.e0_value,
        "a0_values": ledger.a0_values,
        "a0_oscillation": ledger.a0_oscillation,
        "residuals": ledger.residuals,
        "bridge_value": ledger.bridge_value,
        "bridge_estimate": ledger.bridge_estimate,
        "bridge_values": ledger.bridge_values,
        "bridge_gap": ledger.bridge_gap,
        "agreement": ledger.agreement,
    }
    tables = {
        "sumrule": (
            specio.format_real_table,
            [
                ("n", [float(n) for n in ledger.n_values]),
                ("a0_partial", ledger.a0_values),
                ("residual", ledger.residuals),
                ("bridge_residual", ledger.bridge_values),
            ]
        )
    }
    lines = [
        f"Z = {ledger.z_value:.12f} (estimate {ledger.z_estimate:.2e}), "
        f"E0 = {ledger.e0_value:.12f}",
        f"A0 partial at n = {ledger.n_values[-1]}: {ledger.a0_values[-1]:.12f}, "
        f"balance residual {ledger.residuals[-1]:.3e}",
        f"factor bridge gap {ledger.bridge_gap:.3e} "
        f"(estimate {ledger.bridge_estimate:.2e}), paths agree: {ledger.agreement}",
    ]
    return report, tables, lines


_COMMANDS = {
    "check-measure": _run_check_measure,
    "recurrence": _run_recurrence,
    "factorize": _run_factorize,
    "blaschke": _run_blaschke,
    "limit": _run_limit,
    "verify": _run_verify,
    "sumrule": _run_sumrule,
}


def _canonical_command(args) -> str:
    parts = [args.command]
    if args.command == "recurrence":
        parts += ["--n", str(args.n), "--type", args.norm_type]
    elif args.command == "limit":
        parts += ["--radius", repr(args.radius), "--angles", str(args.angles)]
    elif args.command == "verify":
        parts += ["--n-list", ",".join(str(n) for n in _parse_n_list(args.n_list))]
        parts += ["--radius", repr(args.radius)]
    elif args.command == "sumrule":
        parts += ["--n", str(args.n)]
    return " ".join(parts)


# subcommand name, help line, and its options beyond spec and --out
_SUBCOMMANDS = (
    ("check-measure", "validate a measure document and report its invariants", ()),
    ("recurrence", "compute block Jacobi recurrence coefficients", (
        (("--n",), dict(type=int, required=True, help="number of blocks")),
        (("--type",), dict(dest="norm_type", default="type1",
                           choices=("type1", "type2", "type3"), help="normalization type")),
    )),
    ("factorize", "outer spectral factor of the boundary weight", (
        (("--order",), dict(help=argparse.SUPPRESS)),  # legacy, ignored
    )),
    ("blaschke", "mass-pinned product with kernel certification", ()),
    ("limit", "evaluate the limit function on a disk grid", (
        (("--radius",), dict(type=float, default=0.8, help="outer grid radius")),
        (("--angles",), dict(type=int, default=24, help="angles per circle")),
    )),
    ("verify", "convergence of scaled polynomials to the limit", (
        (("--n-list",), dict(required=True, help="comma-separated degrees")),
        (("--radius",), dict(type=float, default=0.8, help="disk grid radius")),
    )),
    ("sumrule", "entropy balance of weight, masses, and recurrence", (
        (("--n",), dict(type=int, default=100, help="deepest partial sum")),
    )),
)


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser, or with a command name the same parser
    holding only that subcommand.

    A subcommand's help and its errors come from its own parser, and an
    unrecognized argument is reported with the top-level usage, which
    names no subcommand; so for arguments that start with the command's
    name both parsers print the same bytes and exit with the same code.
    """
    parser = argparse.ArgumentParser(
        prog="matszego",
        description=(
            "Matrix orthogonal polynomials on [-2, 2] with point masses: "
            "recurrence data, spectral factorization, limit functions, "
            "and sum-rule diagnostics."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, help_text, options in _SUBCOMMANDS:
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=help_text)
        p.add_argument("spec", help="path to a measure document (JSON)")
        p.add_argument("--out", metavar="DIR", default=None,
                       help="directory for report.json, tables, manifest.json")
        for flags, kwargs in options:
            p.add_argument(*flags, **kwargs)
    return parser


def _write_artifacts(out_dir: str, manifest: specio.RunManifest, report, tables) -> None:
    path = pathlib.Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    (path / "manifest.json").write_text(manifest.to_json())
    (path / "report.json").write_text(specio._dumps(_plain(report)))
    for name, (fmt, *args) in tables.items():
        (path / f"{name}.csv").write_text(fmt(*args))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse's message lookups cost about 1 ms per parser, so only the
    # named subcommand's parser is built; --help, --version, no argument
    # and an unknown command get the full one
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    try:
        tol, overrides = tolerances.from_environment()
        try:
            text = pathlib.Path(args.spec).read_text()
        except OSError as exc:
            raise ParseError(f"cannot read {args.spec}: {exc}") from None
        spec = specio.parse_measure_spec(text)
        command = _canonical_command(args)
        mu = specio.build_measure(spec, tol)
        report, tables, lines = _COMMANDS[args.command](args, mu, tol)
        if args.out is not None:
            manifest = specio.RunManifest(
                command=command,
                spec_sha256=specio.spec_hash(spec),
                tolerance_overrides=overrides,
                tool_version=__version__,
            )
            _write_artifacts(args.out, manifest, report, tables)
            lines.append(f"artifacts written to {args.out}")
        print("\n".join(lines))
        return 0
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # pragma: no cover - defensive
        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
