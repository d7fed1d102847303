"""Hand-editable JSON measure documents, manifests, and flat tables.

A measure document looks like

    {
      "dim": 2,
      "density": {"family": "semicircle"},
      "masses": [
        {"energy": 2.5, "weight": {"re": [[0.2, 0.0], [0.0, 0.0]]}}
      ],
      "quad_order": 4096,
      "normalize": "auto"
    }

Matrices are {"re": rows, "im": rows} with "im" optional; density
families are semicircle, arcsine, poly_semicircle (adds
"coefficients"), conjugated_diagonal (adds "channels", a list of scalar
density specs, and "unitary"), and table (adds "values", one matrix per
midpoint node). Unknown keys anywhere are rejected so that typos fail
loudly, with the offending path in the message.

Serialization is canonical (sorted keys, fixed indentation, shortest
round-trip floats), so equal specs serialize identically and the
document hash is stable; parse and serialize are mutually inverse.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Sequence

import numpy as np

from . import measure as ms
from .errors import ParseError
from .tolerances import DEFAULT, Tolerances

SPEC_VERSION = 1


def _fail(path: str, message: str) -> ParseError:
    return ParseError(f"{path}: {message}")


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(path, f"expected a number, got {type(value).__name__}")
    out = float(value)
    if not np.isfinite(out):
        raise _fail(path, "number not finite")
    return out


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(path, f"expected an integer, got {type(value).__name__}")
    return value


def _check_keys(obj: dict, path: str, required: set, optional: set = frozenset()) -> None:
    if not isinstance(obj, dict):
        raise _fail(path, f"expected an object, got {type(obj).__name__}")
    missing = required - obj.keys()
    if missing:
        raise _fail(path, f"missing key {sorted(missing)[0]!r}")
    unknown = obj.keys() - required - optional
    if unknown:
        raise _fail(path, f"unknown key {sorted(unknown)[0]!r}")


def _rows_from_json(rows, path: str) -> tuple[tuple[float, ...], ...]:
    if not isinstance(rows, list) or not rows:
        raise _fail(path, "expected a non-empty list of rows")
    out = []
    width = None
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise _fail(f"{path}[{i}]", "expected a non-empty row")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise _fail(f"{path}[{i}]", f"row length {len(row)} != {width}")
        out.append(tuple(_as_number(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)))
    return tuple(out)


def matrix_from_json(obj, path: str) -> np.ndarray:
    """Complex matrix from {"re": rows, "im": rows}; "im" may be absent."""
    _check_keys(obj, path, {"re"}, {"im"})
    re = np.array(_rows_from_json(obj["re"], f"{path}.re"))
    if "im" in obj:
        im = np.array(_rows_from_json(obj["im"], f"{path}.im"))
        if im.shape != re.shape:
            raise _fail(path, f"im shape {im.shape} != re shape {re.shape}")
    else:
        im = np.zeros_like(re)
    return re + 1j * im


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "re": [[float(v.real) for v in row] for row in m],
        "im": [[float(v.imag) for v in row] for row in m],
    }


_SCALAR_FAMILIES = {"semicircle", "arcsine", "poly_semicircle"}


def _density_canonical(obj, dim: int, path: str) -> dict:
    """Validate a density object and return its canonical plain form."""
    _check_keys(obj, path, {"family"}, {"coefficients", "channels", "unitary", "values"})
    family = obj["family"]
    if family not in ms.DENSITY_FAMILIES:
        raise _fail(
            f"{path}.family",
            f"unknown family {family!r}; choose from {sorted(ms.DENSITY_FAMILIES)}",
        )
    out: dict = {"family": family}
    allowed = {"family"}
    if family == "poly_semicircle":
        allowed.add("coefficients")
        coeffs = obj.get("coefficients")
        if not isinstance(coeffs, list) or not coeffs:
            raise _fail(f"{path}.coefficients", "expected a non-empty list of numbers")
        out["coefficients"] = [
            _as_number(c, f"{path}.coefficients[{i}]") for i, c in enumerate(coeffs)
        ]
    elif family == "conjugated_diagonal":
        allowed |= {"channels", "unitary"}
        channels = obj.get("channels")
        if not isinstance(channels, list) or not channels:
            raise _fail(f"{path}.channels", "expected a non-empty list of density objects")
        if len(channels) != dim:
            raise _fail(f"{path}.channels", f"{len(channels)} channels for dim {dim}")
        parsed = []
        for i, ch in enumerate(channels):
            sub = _density_canonical(ch, 1, f"{path}.channels[{i}]")
            if sub["family"] not in _SCALAR_FAMILIES:
                raise _fail(f"{path}.channels[{i}].family", "channels must be scalar families")
            parsed.append(sub)
        out["channels"] = parsed
        if "unitary" in obj:
            u = matrix_from_json(obj["unitary"], f"{path}.unitary")
            if u.shape != (dim, dim):
                raise _fail(f"{path}.unitary", f"shape {u.shape} != ({dim}, {dim})")
            out["unitary"] = matrix_to_json(u)
    elif family == "table":
        allowed.add("values")
        values = obj.get("values")
        if not isinstance(values, list) or not values:
            raise _fail(f"{path}.values", "expected a non-empty list of matrices")
        parsed_vals = []
        for i, v in enumerate(values):
            m = matrix_from_json(v, f"{path}.values[{i}]")
            if m.shape != (dim, dim):
                raise _fail(f"{path}.values[{i}]", f"shape {m.shape} != ({dim}, {dim})")
            parsed_vals.append(matrix_to_json(m))
        out["values"] = parsed_vals
    extra = obj.keys() - allowed
    if extra:
        raise _fail(path, f"key {sorted(extra)[0]!r} not valid for family {family!r}")
    return out


def _density_build(spec: dict, dim: int) -> ms.Density:
    family = spec["family"]
    if family == "semicircle":
        return ms.SemicircleDensity(dim)
    if family == "arcsine":
        return ms.ArcsineDensity(dim)
    if family == "poly_semicircle":
        return ms.PolySemicircleDensity(spec["coefficients"], dim)
    if family == "conjugated_diagonal":
        entries = [_density_build(ch, 1) for ch in spec["channels"]]
        unitary = None
        if "unitary" in spec:
            unitary = matrix_from_json(spec["unitary"], "density.unitary")
        return ms.ConjugatedDiagonalDensity(entries, unitary)
    samples = np.stack(
        [matrix_from_json(v, "density.values") for v in spec["values"]]
    )
    return ms.TableDensity(samples)


@dataclasses.dataclass(frozen=True)
class MassSpec:
    energy: float
    weight_re: tuple[tuple[float, ...], ...]
    weight_im: tuple[tuple[float, ...], ...]

    def weight(self) -> np.ndarray:
        return np.array(self.weight_re) + 1j * np.array(self.weight_im)


@dataclasses.dataclass(frozen=True)
class MeasureSpec:
    """Validated, canonicalized measure document."""

    dim: int
    density: dict
    masses: tuple[MassSpec, ...]
    quad_order: int
    normalize: str


def measure_spec_from_data(obj) -> MeasureSpec:
    _check_keys(obj, "spec", {"dim", "density"}, {"masses", "quad_order", "normalize"})
    dim = _as_int(obj["dim"], "spec.dim")
    if dim < 1:
        raise _fail("spec.dim", f"dim must be positive, got {dim}")
    quad_order = _as_int(obj.get("quad_order", 4096), "spec.quad_order")
    normalize = obj.get("normalize", "auto")
    if normalize not in ("auto", "strict"):
        raise _fail("spec.normalize", f"expected 'auto' or 'strict', got {normalize!r}")
    density = _density_canonical(obj["density"], dim, "spec.density")
    masses = []
    raw_masses = obj.get("masses", [])
    if not isinstance(raw_masses, list):
        raise _fail("spec.masses", "expected a list")
    for i, entry in enumerate(raw_masses):
        path = f"spec.masses[{i}]"
        _check_keys(entry, path, {"energy", "weight"})
        energy = _as_number(entry["energy"], f"{path}.energy")
        w = matrix_from_json(entry["weight"], f"{path}.weight")
        if w.shape != (dim, dim):
            raise _fail(f"{path}.weight", f"shape {w.shape} != ({dim}, {dim})")
        masses.append(
            MassSpec(
                energy=energy,
                weight_re=tuple(tuple(float(v) for v in row) for row in w.real),
                weight_im=tuple(tuple(float(v) for v in row) for row in w.imag),
            )
        )
    return MeasureSpec(
        dim=dim,
        density=density,
        masses=tuple(masses),
        quad_order=quad_order,
        normalize=normalize,
    )


def parse_measure_spec(text: str) -> MeasureSpec:
    """Parse a JSON document; malformed input fails with line and column."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    return measure_spec_from_data(obj)


def spec_to_data(spec: MeasureSpec) -> dict:
    return {
        "dim": spec.dim,
        "density": spec.density,
        "masses": [
            {
                "energy": m.energy,
                "weight": {
                    "re": [list(row) for row in m.weight_re],
                    "im": [list(row) for row in m.weight_im],
                },
            }
            for m in spec.masses
        ],
        "quad_order": spec.quad_order,
        "normalize": spec.normalize,
    }


def serialize_measure_spec(spec: MeasureSpec) -> str:
    return json.dumps(spec_to_data(spec), sort_keys=True, indent=2) + "\n"


def spec_hash(spec: MeasureSpec) -> str:
    """SHA-256 of the canonical serialization; whitespace-insensitive."""
    return hashlib.sha256(serialize_measure_spec(spec).encode()).hexdigest()


def build_measure(spec: MeasureSpec, tol: Tolerances = DEFAULT) -> ms.MatrixMeasure:
    density = _density_build(spec.density, spec.dim)
    masses = [(m.energy, m.weight()) for m in spec.masses]
    return ms.make_measure(
        density,
        masses,
        quad_order=spec.quad_order,
        normalize=spec.normalize,
        tol=tol,
    )


@dataclasses.dataclass(frozen=True)
class RunManifest:
    """Reproducibility record written next to every artifact set.

    No timestamps and no seed: every command is deterministic, so the
    command line, the document hash, the tolerance overrides and the
    tool version fix the outputs, and equal manifests mean
    bitwise-equal artifacts.
    """

    command: str
    spec_sha256: str
    tolerance_overrides: dict
    tool_version: str

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# flat tables


def _fmt(value: float) -> str:
    return repr(float(value))


def format_real_table(columns: Sequence[tuple[str, Sequence[float]]]) -> str:
    """CSV text from (name, values) columns of equal length."""
    names = [name for name, _ in columns]
    series = [list(vals) for _, vals in columns]
    length = len(series[0]) if series else 0
    for name, vals in zip(names, series):
        if len(vals) != length:
            raise ValueError(f"column {name!r} length {len(vals)} != {length}")
    lines = [",".join(names)]
    for row in range(length):
        lines.append(",".join(_fmt(vals[row]) for vals in series))
    return "\n".join(lines) + "\n"


def format_matrix_table(
    index_name: str, index_values: Sequence, stack: np.ndarray
) -> str:
    """CSV text for a stack of matrices, row-major re/im column pairs.

    Columns: the index, then e{i}{j}_re, e{i}{j}_im for each entry in
    row-major order.
    """
    stack = np.asarray(stack, dtype=complex)
    rows, cols = stack.shape[1], stack.shape[2]
    names = [index_name]
    for i in range(rows):
        for j in range(cols):
            names.extend([f"e{i}{j}_re", f"e{i}{j}_im"])
    lines = [",".join(names)]
    for idx, mat in zip(index_values, stack):
        cells = [_fmt(idx) if isinstance(idx, (int, float)) else str(idx)]
        for i in range(rows):
            for j in range(cols):
                cells.extend([_fmt(mat[i, j].real), _fmt(mat[i, j].imag)])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
