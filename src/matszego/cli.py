"""Command-line driver: one measure document in, reports and tables out.

Every subcommand reads a JSON measure spec, prints a human summary to
standard output, and (with --out DIR) writes machine artifacts there:
report.json, flat CSV tables, and manifest.json. Outputs carry no
timestamps and use a fixed evaluation order, so equal manifests mean
bitwise-equal files.

Exit codes: 0 success, 2 malformed input (document syntax, bad flag
values, tolerance profile, an --out that cannot be written), 3 invalid
measure data, 4 numerical failure (lost positivity, no convergence,
singularities), 5 internal error.

The MATSZEGO_TOLERANCES environment variable may hold a JSON object
overriding tolerance fields; overrides are echoed into the manifest.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import traceback
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from . import limits, specio, sumrule
from . import measure as ms
from . import outer as sf
from . import polynomials as poly
from . import tolerances
from .errors import LostOrthogonality, NumericalError, ParseError, ValidationError
from .linalg import det, eigvalsh, hermitian_defect, max_operator_norm, operator_norm


def _positive(flag: str, value: int) -> int:
    if value < 1:
        raise ParseError(f"{flag} must be positive, got {value}")
    return value


def _radius(flag: str, value: float) -> float:
    if not 0.0 < value <= 0.99:
        raise ParseError(f"{flag} must lie in (0, 0.99], got {value}")
    return value


def _degrees(flag: str, text: str) -> list[int]:
    out = set()
    for part in filter(None, map(str.strip, text.split(","))):
        try:
            n = int(part)
        except ValueError:
            raise ParseError(f"{flag}: {part!r} is not an integer") from None
        if n < 0:
            raise ParseError(f"{flag}: degrees must be nonnegative, got {n}")
        out.add(n)
    if not out:
        raise ParseError(f"{flag}: no degrees given")
    return sorted(out)


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
        "recurrence_nodes": 2 * seq.fold.x.shape[0],
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
        f"computed {args.n} recurrence blocks ({args.norm_type}) on {report['recurrence_nodes']} "
        f"of {mu.quad_order} nodes, {seq.reorthogonalization_passes} re-orthogonalization pass(es)",
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
    rep = limits.asymptotics_report(mu, args.n_list, radius=args.radius, tol=tol)
    report = {**vars(rep.polar), **vars(rep)}
    del report["polar"], report["limit"]
    columns = ("pointwise_sup", "origin_gap", "l2_residual", "mass_norm",
               "eta_min", "eta_max", "logdet_abs", "frame_defect")
    tables = {
        "convergence": (
            specio.format_real_table,
            [("n", [float(n) for n in rep.n_values])] + [(c, report[c]) for c in columns],
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
    # the partial sums at n and at 5, 10, 20, ... below it
    n_list = [args.n] + [5 << k for k in range(args.n.bit_length()) if 5 << k < args.n]
    ledger = sumrule.check_sum_rule(mu, n_list, tol)
    report = vars(ledger)
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


class _Command(NamedTuple):
    """A subcommand: its body, its help line, and its options beyond spec
    and --out as (flag, check, argparse keywords). check(flag, value)
    returns the value the body reads, or raises ParseError; the manifest
    names each option but a suppressed one, with its checked value."""

    run: Callable
    help: str
    options: tuple = ()


_SUBCOMMANDS = {
    "check-measure": _Command(
        _run_check_measure, "validate a measure document and report its invariants"),
    "recurrence": _Command(_run_recurrence, "compute block Jacobi recurrence coefficients", (
        ("--n", _positive, dict(type=int, required=True, help="number of blocks")),
        ("--type", None, dict(dest="norm_type", default="type1",
                              choices=("type1", "type2", "type3"), help="normalization type")),
    )),
    "factorize": _Command(_run_factorize, "outer spectral factor of the boundary weight", (
        ("--order", None, dict(help=argparse.SUPPRESS)),  # legacy, ignored
    )),
    "blaschke": _Command(_run_blaschke, "mass-pinned product with kernel certification"),
    "limit": _Command(_run_limit, "evaluate the limit function on a disk grid", (
        ("--radius", _radius, dict(type=float, default=0.8, help="outer grid radius")),
        ("--angles", _positive, dict(type=int, default=24, help="angles per circle")),
    )),
    "verify": _Command(_run_verify, "convergence of scaled polynomials to the limit", (
        ("--n-list", _degrees, dict(required=True, help="comma-separated degrees")),
        ("--radius", _radius, dict(type=float, default=0.8, help="disk grid radius")),
    )),
    "sumrule": _Command(_run_sumrule, "entropy balance of weight, masses, and recurrence", (
        ("--n", _positive, dict(type=int, default=100, help="deepest partial sum")),
    )),
}


def _check_options(args) -> str:
    """Check every option of the subcommand, storing each checked value in
    args; the canonical command text of the manifest."""
    parts = [args.command]
    for flag, check, kwargs in _SUBCOMMANDS[args.command].options:
        dest = kwargs.get("dest", flag[2:].replace("-", "_"))
        value = getattr(args, dest)
        if check is not None:
            value = check(flag, value)
            setattr(args, dest, value)
        if kwargs.get("help") is not argparse.SUPPRESS:  # str(float) is its repr
            parts += [flag, ",".join(map(str, value)) if isinstance(value, list) else str(value)]
    return " ".join(parts)


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
    for name, entry in _SUBCOMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=entry.help)
        p.add_argument("spec", help="path to a measure document (JSON)")
        p.add_argument("--out", metavar="DIR", default=None,
                       help="directory for report.json, tables, manifest.json")
        for flag, _, kwargs in entry.options:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse's message lookups cost about 1 ms per parser, so only the
    # named subcommand's parser is built; --help, --version, no argument
    # and an unknown command get the full one
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    args = _build_parser(command).parse_args(argv)
    try:
        tol, overrides = tolerances.from_environment()
        try:
            text = pathlib.Path(args.spec).read_text()
        except OSError as exc:
            raise ParseError(f"cannot read {args.spec}: {exc}") from None
        spec = specio.parse_measure_spec(text)
        command = _check_options(args)
        mu = specio.build_measure(spec, tol)
        report, tables, lines = _SUBCOMMANDS[args.command].run(args, mu, tol)
        if args.out is not None:
            out = pathlib.Path(args.out)
            manifest = specio.RunManifest(command=command, spec_sha256=specio.spec_hash(spec),
                                          tolerance_overrides=overrides, tool_version=__version__)
            try:
                out.mkdir(parents=True, exist_ok=True)
                (out / "manifest.json").write_text(manifest.to_json())
                (out / "report.json").write_text(specio._dumps(report))
                for name, (fmt, *fmt_args) in tables.items():
                    (out / f"{name}.csv").write_text(fmt(*fmt_args))
            except OSError as exc:
                raise ParseError(f"cannot write {args.out}: {exc}") from None
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
