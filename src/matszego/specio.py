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
node of a midpoint grid). Both grid sizes, quad_order and the number of
table values, must be powers of two >= 4. Energies, coefficients and
matrix entries must be finite numbers that fit a float. Unknown keys
anywhere are rejected so that typos fail loudly, with the offending
path in the message.

A document has one representation after parsing, its canonical plain
form (MeasureSpec): numbers become floats and every matrix becomes
{"re", "im"} float rows with "im" filled in, read in a single pass. A
table's parts are checked as flat lists of matrices, rows and entries
and become floats in one conversion (_flat_stack); any other table is
read value by value, so an error names its entry. The parsed table
keeps only its (2, N, dim, dim) re/im float stack, no matrix of Python
floats. build_measure and the hash both read that stack, so no table
becomes an array twice.
Serialization is canonical (sorted keys, fixed indentation,
shortest round-trip floats), so equal specs serialize identically and
the document hash is stable; parse and serialize are mutually inverse.
One writer, _dumps, writes documents, manifests and reports; its text is
json.dumps(obj, sort_keys=True, indent=2) + "\\n" byte for byte, with
each float matrix formatted in one join. A table is formatted from its
stack with one float.__repr__ per distinct magnitude, in pieces gathered
from object arrays of prefixes and texts. A report's float array, such
as a stack of Jacobi blocks, is written with one float.__repr__ per
distinct value; a small array (_ARRAY_WRITES), or one with a non-finite
entry, goes through its lists. A MatrixStack shares its texts between
its report arrays and its CSV table.
spec_hash feeds the text to sha256 piece by piece, at most 128 matrices
at a time, so the whole text is never held; the bytes it hashes are the
ones serialize_measure_spec returns.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
from itertools import chain, cycle, islice
from operator import itemgetter
from typing import Sequence

import numpy as np

from . import measure as ms
from .errors import ParseError
from .linalg import is_node_count
from .tolerances import DEFAULT, Tolerances


def _fail(path: str, message: str) -> ParseError:
    return ParseError(f"{path}: {message}")


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(path, f"expected a number, got {type(value).__name__}")
    try:
        out = float(value)
    except OverflowError:
        raise _fail(path, "number too large for a float") from None
    if not math.isfinite(out):
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


_NUMBER_TYPES = {int, float}


def _rows(rows, path: str) -> list[list[float]]:
    """Finite float rows of a non-empty rectangular list of number lists.

    A row of plain ints and floats with a finite sum is converted as a
    whole; any other row is checked entry by entry, which names the
    offending entry.
    """
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
        if set(map(type, row)) <= _NUMBER_TYPES:
            try:
                floats = list(map(float, row))
                if math.isfinite(sum(floats)):
                    out.append(floats)
                    continue
            except OverflowError:
                pass
        out.append([_as_number(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)])
    return out


def _matrix(obj, path: str, dim: int) -> dict:
    """Canonical {"re", "im"} float rows of a dim x dim matrix.

    "im" defaults to zeros. Signed zeros follow complex arithmetic
    re + 1j * (im + 0.0), one idempotent step: an imaginary -0.0 becomes
    0.0, and so does a real -0.0 unless its imaginary part is negative.
    """
    _check_keys(obj, path, {"re"}, {"im"})
    re = _rows(obj["re"], f"{path}.re")
    shape = (len(re), len(re[0]))
    if "im" in obj:
        im = _rows(obj["im"], f"{path}.im")
        if (len(im), len(im[0])) != shape:
            raise _fail(path, f"im shape {(len(im), len(im[0]))} != re shape {shape}")
    else:
        im = [[0.0] * shape[1] for _ in re]
    if shape != (dim, dim):
        raise _fail(path, f"shape {shape} != ({dim}, {dim})")
    for re_row, im_row in zip(re, im):
        if 0.0 in im_row:
            im_row[:] = [m + 0.0 for m in im_row]
        if 0.0 in re_row:
            re_row[:] = [r + 0.0 * m for r, m in zip(re_row, im_row)]
    return {"re": re, "im": im}


class _TableValues:
    """A table's canonical values as one read-only float stack: stack[0]
    the real parts and stack[1] the imaginary parts, shape
    (2, N, dim, dim). The writer formats it and build_measure reads it.
    Two tables are equal when their stacks have equal shapes and entries,
    compared as floats like the document's other numbers (0.0 == -0.0)."""

    def __init__(self, stack: np.ndarray):
        stack.flags.writeable = False
        self.stack = stack

    def __eq__(self, other) -> bool:
        return isinstance(other, _TableValues) and np.array_equal(self.stack, other.stack)


def _flat_stack(values: list, dim: int) -> np.ndarray | None:
    """The (2, N, dim, dim) re/im float stack of a table whose every value
    has exactly "re" and "im", each dim rows of dim finite ints and floats;
    None for any other table. The matrices, their rows and their entries
    are each checked as one flat list, and the entries become floats in
    one conversion."""
    complete = {frozenset(("re", "im"))}
    if set(map(type, values)) != {dict} or set(map(frozenset, values)) != complete:
        return None
    items = list(chain(map(itemgetter("re"), values), map(itemgetter("im"), values)))
    for _ in range(2):  # the matrices, then their rows
        if set(map(type, items)) != {list} or set(map(len, items)) != {dim}:
            return None
        items = list(chain.from_iterable(items))
    if not set(map(type, items)) <= _NUMBER_TYPES:
        return None
    try:
        stack = np.array(items, dtype=float)
    except OverflowError:
        return None
    if not np.isfinite(stack).all():
        return None
    return stack.reshape(2, len(values), dim, dim)


def _table(values: list, path: str, dim: int) -> _TableValues:
    """The canonical float stack of a table: _rows' whole-row test lifted
    to the table (_flat_stack), with each value read by _matrix if that
    test fails, so that an error names its entry."""
    stack = _flat_stack(values, dim)
    if stack is None:
        matrices = [_matrix(v, f"{path}[{i}]", dim) for i, v in enumerate(values)]
        return _TableValues(np.array([[m[k] for m in matrices] for k in ("re", "im")]))
    stack[1] += 0.0
    stack[0] += 0.0 * stack[1]
    return _TableValues(stack)


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
            out["unitary"] = _matrix(obj["unitary"], f"{path}.unitary", dim)
    elif family == "table":
        allowed.add("values")
        values = obj.get("values")
        if not isinstance(values, list) or not values:
            raise _fail(f"{path}.values", "expected a non-empty list of matrices")
        if not is_node_count(len(values)):
            raise _fail(f"{path}.values", f"{len(values)} matrices; expected a power of two >= 4")
        out["values"] = _table(values, f"{path}.values", dim)
    extra = obj.keys() - allowed
    if extra:
        raise _fail(path, f"key {sorted(extra)[0]!r} not valid for family {family!r}")
    return out


@dataclasses.dataclass(frozen=True)
class MeasureSpec:
    """Validated measure document in canonical plain form.

    density and each mass {"energy", "weight"} hold floats and canonical
    matrices only, and a table its float stack (_TableValues), exactly as
    serialized and hashed.
    """

    dim: int
    density: dict
    masses: tuple[dict, ...]
    quad_order: int
    normalize: str


def parse_measure_spec(text: str) -> MeasureSpec:
    """Parse and validate a JSON document; malformed input fails with its path."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except ValueError:  # an integer literal beyond the int-from-string limit
        raise ParseError(
            f"integer literal longer than {sys.get_int_max_str_digits()} digits"
        ) from None
    _check_keys(obj, "spec", {"dim", "density"}, {"masses", "quad_order", "normalize"})
    dim = _as_int(obj["dim"], "spec.dim")
    if dim < 1:
        raise _fail("spec.dim", f"dim must be positive, got {dim}")
    quad_order = _as_int(obj.get("quad_order", 4096), "spec.quad_order")
    if not is_node_count(quad_order):
        raise _fail("spec.quad_order", f"expected a power of two >= 4, got {quad_order}")
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
        masses.append({
            "energy": _as_number(entry["energy"], f"{path}.energy"),
            "weight": _matrix(entry["weight"], f"{path}.weight", dim),
        })
    return MeasureSpec(
        dim=dim,
        density=density,
        masses=tuple(masses),
        quad_order=quad_order,
        normalize=normalize,
    )


def _float_rows(rows, level: int) -> str | None:
    """Text of equal-length rows of finite floats at a nesting level, else None."""
    if set(map(type, rows)) != {list} or len(set(map(len, rows))) != 1:
        return None
    flat = list(chain.from_iterable(rows))
    if not flat or set(map(type, flat)) != {float} or not math.isfinite(sum(flat)):
        return None
    outer, inner = "\n" + "  " * (level + 1), "\n" + "  " * (level + 2)
    seps = ["," + inner] * (len(rows[0]) - 1) + [outer + "]," + outer + "[" + inner]
    texts = zip(map(float.__repr__, flat), cycle(seps))
    body = "".join(islice(chain.from_iterable(texts), 2 * len(flat) - 1))
    return "[" + outer + "[" + inner + body + outer + "]" + outer[:-2] + "]"


# Matrices per piece of a table's text: a piece, not the whole text, is
# what the hash holds at a time.
_TABLE_CHUNK = 128


def _table_pieces(stack: np.ndarray, level: int):
    """The text _pieces writes for a table's matrices at a nesting level,
    from their (2, N, dim, dim) re/im stack, in pieces of _TABLE_CHUNK
    matrices.

    float.__repr__ runs once per distinct magnitude |x|, the float's bits
    with the sign bit cleared: a Hermitian table that is symmetric in t
    repeats most magnitudes, and x and -x share a text. The sign bit then
    picks one of two prefixes per place in a matrix, the separator the
    place calls for with or without "-", so 0.0 and -0.0 stay distinct
    (a dict keyed by float would merge them). A matrix is written "im"
    first, then "re", as sort_keys orders them.

    Prefixes and texts are object arrays, so a piece is filled by two
    gathers and joined once. A piece finds its texts by sorting its own
    magnitudes and looking up only the distinct ones among the table's;
    an inverse over the whole stack would hold sort temporaries larger
    than the text the hash streams.
    """
    _, count, dim, _ = stack.shape
    pad = ["\n" + "  " * (level + k) for k in range(5)]
    close = pad[3] + "]" + pad[2] + "]"
    joint = close + pad[1] + "}," + pad[1]
    first = pad[3] + "[" + pad[4]
    row = ["," + pad[4]] * (dim - 1)
    part = (row + [pad[3] + "]," + first]) * (dim - 1) + row
    # seps[p] goes before the p-th float of a matrix, "im" then "re" row by
    # row; seps[0] also closes the matrix before, which the first piece drops
    seps = ([joint + "{" + pad[2] + '"im": [' + first] + part
            + [close + "," + pad[2] + '"re": [' + first] + part)
    prefixes = np.array([sep + sign for sep in seps for sign in ("", "-")], dtype=object)
    places = np.arange(0, len(prefixes), 2)
    magnitudes = np.unique(np.abs(stack))
    texts = np.fromiter(map(float.__repr__, magnitudes.tolist()), dtype=object,
                        count=magnitudes.size)
    yield "[" + pad[1]
    for start in range(0, count, _TABLE_CHUNK):
        block = stack[::-1, start:start + _TABLE_CHUNK].transpose(1, 0, 2, 3)
        block = block.reshape(-1, len(seps))
        distinct, inverse = np.unique(np.abs(block).ravel(), return_inverse=True)
        piece = np.empty(2 * block.size, dtype=object)
        piece[0::2] = prefixes[(np.signbit(block) + places).ravel()]
        piece[1::2] = texts[np.searchsorted(magnitudes, distinct)[inverse]]
        if start == 0:
            piece[0] = piece[0][len(joint):]
        yield "".join(piece.tolist())
    yield close + pad[1] + "}" + pad[0] + "]"


# Writes from which a finite float array is written by _array_text. The
# list path writes a matrix of floats in one join, so a stack of matrices
# in one join each, and a vector float by float. _array_text's fixed cost
# (sorting, laying out the separators) is about that of 8 such writes, so
# a lone matrix, or a stack of a few, is cheaper through lists.
_ARRAY_WRITES = 8


def _repr_table(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """float.__repr__ of each distinct value of a float array, told apart by
    its bits so that 0.0 and -0.0 keep their texts, and each entry's index
    into those texts, in the array's shape."""
    bits, index = np.unique(values.view(np.int64).ravel(), return_inverse=True)
    # a memoryview hands out one float at a time: a list of them all
    # (tolist) raised the process's high-water mark by fragmenting the heap
    texts = list(map(float.__repr__, memoryview(bits.view(np.float64))))
    return texts, index.reshape(values.shape)


def _array_text(a: np.ndarray, level: int, table: tuple | None = None) -> str:
    """The text _pieces writes for a.tolist() at a nesting level, for an
    array of finite floats, from its values in one pass.

    float.__repr__ runs once per distinct value (_repr_table, or the table
    given, which a MatrixStack shares between its parts and its CSV). The
    separator between two entries depends only on how many trailing
    indices roll over between them (closing and reopening that many
    lists), and that pattern repeats with every entry of the first axis.
    """
    d = a.ndim
    pad = ["\n" + "  " * (level + j) for j in range(d + 1)]
    opens = ["[" + pad[j + 1] for j in range(d)]  # opens[j] starts a list at depth j
    closes = [pad[j] + "]" for j in range(d)]  # closes[j] ends it
    # seps[k]: between entries where the last k indices roll over
    seps = ["".join(closes[d - k :][::-1]) + "," + pad[d - k] + "".join(opens[d - k :])
            for k in range(d)]
    period = np.arange(1, a[0].size + 1)
    rolls = np.zeros(period.shape, dtype=int)
    for size in np.cumprod(a.shape[:0:-1]):
        rolls += period % size == 0
    texts, index = _repr_table(a) if table is None else table
    piece = [None] * (2 * a.size - 1)
    piece[0::2] = map(texts.__getitem__, index.ravel().tolist())
    piece[1::2] = (list(map(seps.__getitem__, rolls.tolist())) * a.shape[0])[:-1]
    return "".join(opens) + "".join(piece) + "".join(closes[::-1])


def _array_pieces(a: np.ndarray, level: int, table: tuple | None = None):
    """The text _pieces writes for an array: _array_text for a large finite
    float array, else the text of its lists."""
    writes = a.size // math.prod(a.shape[-2:]) if a.ndim > 1 and a.size else a.size
    if a.dtype == np.float64 and writes >= _ARRAY_WRITES and np.isfinite(a).all():
        yield _array_text(a, level, table)
    else:
        yield from _pieces(a.tolist(), level)


class MatrixStack:
    """A complex stack of matrices that a job writes twice: into its report,
    as {"re", "im"} float arrays like any complex array, and into a CSV
    table (format_matrix_table). float.__repr__ runs once per distinct
    value for both, at the first write, so a stack never written is never
    formatted."""

    def __init__(self, stack):
        self.floats = np.ascontiguousarray(stack, dtype=complex).view(float)  # re, im interleaved
        self._table = None

    @property
    def table(self) -> tuple:
        if self._table is None:
            texts, index = _repr_table(self.floats)
            # held as one string and split at each use: thousands of small
            # strings held from the CSV to the report fragmented the heap
            self._table = "\n".join(texts), index
        texts, index = self._table
        return texts.split("\n"), index


def _pieces(obj, level: int = 0):
    """The text json.dumps(sort_keys=True, indent=2) writes for obj at a nesting
    level, in pieces that _dumps joins once (nested joins would copy the text at
    every level); scalars and empty containers, alike under any indent, go to json."""
    pad = "\n" + "  " * (level + 1)
    if isinstance(obj, _TableValues):
        yield from _table_pieces(obj.stack, level)
    elif isinstance(obj, np.ndarray):
        yield from _array_pieces(obj, level)
    elif isinstance(obj, MatrixStack):
        texts, index = obj.table
        for i, (key, part) in enumerate((("im", 1), ("re", 0))):
            yield ("," if i else "{") + pad + f'"{key}": '
            yield from _array_pieces(obj.floats[..., part::2], level + 1,
                                     (texts, index[..., part::2]))
        yield pad[:-2] + "}"
    elif isinstance(obj, (list, tuple)) and obj:
        rows = _float_rows(obj, level)
        if rows is not None:
            yield rows
            return
        for i, value in enumerate(obj):
            yield ("," if i else "[") + pad
            yield from _pieces(value, level + 1)
        yield pad[:-2] + "]"
    elif isinstance(obj, dict) and obj:
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("object keys must be strings")
        for i, (key, value) in enumerate(sorted(obj.items())):
            yield ("," if i else "{") + pad + json.dumps(key) + ": "
            yield from _pieces(value, level + 1)
        yield pad[:-2] + "}"
    else:
        yield json.dumps(obj)


def _dumps(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) + "\\n", byte for byte."""
    return "".join(_pieces(obj)) + "\n"


def serialize_measure_spec(spec: MeasureSpec) -> str:
    """The canonical text of a document, the inverse of parse_measure_spec."""
    return _dumps(vars(spec))


def spec_hash(spec: MeasureSpec) -> str:
    """SHA-256 of the canonical serialization; whitespace-insensitive. The
    text is fed to the hash piece by piece and never held whole."""
    digest = hashlib.sha256()
    for piece in _pieces(vars(spec)):
        digest.update(piece.encode())
    digest.update(b"\n")
    return digest.hexdigest()


def _array(matrix: dict) -> np.ndarray:
    """A canonical {"re", "im"} matrix as a complex array."""
    return np.array(matrix["re"]) + 1j * np.array(matrix["im"])


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
        unitary = _array(spec["unitary"]) if "unitary" in spec else None
        return ms.ConjugatedDiagonalDensity(entries, unitary)
    stack = spec["values"].stack
    return ms.TableDensity(stack[0] + 1j * stack[1])


def build_measure(spec: MeasureSpec, tol: Tolerances = DEFAULT) -> ms.MatrixMeasure:
    """The measure of a parsed document; the one place its matrices become
    complex arrays, a table's from the float stack it was parsed into."""
    density = _density_build(spec.density, spec.dim)
    masses = [(m["energy"], _array(m["weight"])) for m in spec.masses]
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
        return _dumps(dataclasses.asdict(self))


# ---------------------------------------------------------------------------
# flat tables


def _fmt(value: float) -> str:
    return repr(float(value))


def _fmt_cells(table: tuple):
    """Iterator over _fmt of every entry of a real array, in C order, from
    its _repr_table. The texts are shared, one reference per cell."""
    texts, index = table
    return iter(np.array(texts, dtype=object)[index.ravel()])


def _csv(header: list[str], rows) -> str:
    """CSV text of a header and an iterable of row strings."""
    return "\n".join([",".join(header), *rows, ""])


def format_real_table(columns: Sequence[tuple[str, Sequence[float]]]) -> str:
    """CSV text from (name, values) columns of equal length."""
    names = [name for name, _ in columns]
    series = [np.asarray(vals, dtype=float) for _, vals in columns]
    length = len(series[0]) if series else 0
    for name, vals in zip(names, series):
        if len(vals) != length:
            raise ValueError(f"column {name!r} length {len(vals)} != {length}")
    cells = _fmt_cells(_repr_table(np.stack(series, axis=1))) if series else iter(())
    return _csv(names, map(",".join, zip(*[cells] * len(names))))


def format_matrix_table(
    index_name: str, index_values: Sequence, stack: np.ndarray | MatrixStack
) -> str:
    """CSV text for a stack of matrices, row-major re/im column pairs.

    Columns: the index, then e{i}{j}_re, e{i}{j}_im for each entry in
    row-major order.
    """
    if isinstance(stack, MatrixStack):
        floats, table = stack.floats, stack.table
    else:
        floats = np.ascontiguousarray(stack, dtype=complex).view(float)
        table = _repr_table(floats)
    rows, cols = floats.shape[1], floats.shape[2] // 2
    names = [index_name]
    for i in range(rows):
        for j in range(cols):
            names.extend([f"e{i}{j}_re", f"e{i}{j}_im"])
    index = [_fmt(idx) if isinstance(idx, (int, float)) else str(idx) for idx in index_values]
    cells = _fmt_cells(table)
    entries = map(",".join, zip(*[cells] * (2 * rows * cols)))
    return _csv(names, map(",".join, zip(index, entries)))
