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
valid table's parts, with or without "im", are checked as flat lists
and become floats in one conversion (_flat_stack); an invalid table is
read value by value, so an error names its entry. The parsed table
keeps only its (2, N, dim, dim) re/im float stack, no matrix of Python
floats. build_measure and the hash both read that stack, so no table
becomes an array twice.
Serialization is canonical (sorted keys, fixed indentation,
shortest round-trip floats), so equal specs serialize identically and
the document hash is stable; parse and serialize are mutually inverse.
One writer, _dumps, writes documents, manifests and reports; its text is
json.dumps(obj, sort_keys=True, indent=2) + "\\n" byte for byte. One
engine, _float_join, writes every float array as text: each table, each
report array of at least _ARRAY_WRITES writes and each CSV table, with
one float.__repr__ per distinct magnitude. A smaller or non-finite
report array goes through its lists, a float matrix in one join. A
MatrixStack shares its texts between its report and its CSV table.
spec_hash feeds the text to sha256 _TABLE_CHUNK matrices at a time, so
the whole text is never held; the bytes it hashes are the ones
serialize_measure_spec returns.
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
    """Finite float rows of a non-empty rectangular list of number lists,
    checked entry by entry, so that an error names the offending entry."""
    if not isinstance(rows, list) or not rows:
        raise _fail(path, "expected a non-empty list of rows")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise _fail(f"{path}[{i}]", "expected a non-empty row")
        if len(row) != len(rows[0]):
            raise _fail(f"{path}[{i}]", f"row length {len(row)} != {len(rows[0])}")
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


_VALUE_KEYS = {frozenset(("re",)), frozenset(("re", "im"))}


def _flat_stack(values: list, dim: int) -> np.ndarray | None:
    """The (2, N, dim, dim) re/im float stack of a table whose every value
    has "re" and an optional "im", each dim rows of dim finite ints and
    floats, a missing "im" read as zeros (_matrix); None for any other
    table. The matrices, their rows and their entries are each checked as
    one flat list, and the entries become floats in one conversion."""
    if set(map(type, values)) != {dict} or not set(map(frozenset, values)) <= _VALUE_KEYS:
        return None
    zero = [[0] * dim] * dim
    items = list(chain(map(itemgetter("re"), values), (v.get("im", zero) for v in values)))
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
    """The canonical float stack of a table, read in one conversion
    (_flat_stack), or value by value by _matrix when that fails, so that
    an error names its entry."""
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


# Entries of axis 0 per piece of a table's text: a piece, not the whole
# text, is what the hash holds at a time.
_TABLE_CHUNK = 128


def _magnitude_texts(magnitudes: np.ndarray) -> np.ndarray:
    """The float.__repr__ of each float of a 1-D array, as an object array."""
    # a memoryview hands out one float at a time: a list of them all
    # (tolist) raised the process's high-water mark by fragmenting the heap
    return np.fromiter(map(float.__repr__, memoryview(magnitudes)), dtype=object,
                       count=magnitudes.size)


def _shared_texts(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct magnitudes |x| of a float array and their texts."""
    # sorted and compared, not np.unique, which hashes and imports numpy.ma
    magnitudes = np.sort(np.abs(a), axis=None)
    magnitudes = magnitudes[np.append(True, magnitudes[1:] != magnitudes[:-1])[:magnitudes.size]]
    return magnitudes, _magnitude_texts(magnitudes)


def _float_join(a: np.ndarray, first: str, seps: list[str], texts: tuple | None = None,
                rows: int = sys.maxsize):
    """The text of a non-empty float array's entries in C order, in pieces
    of `rows` entries of axis 0, each joined once from object arrays.

    first goes before the first entry, and seps[j] before an entry where
    axis j steps and every later axis rolls over. float.__repr__ runs once
    per distinct magnitude, of a piece or of the texts given; the sign bit
    picks the separator with or without "-", so 0.0 and -0.0 stay apart and
    a NaN, written unsigned by float.__repr__, takes none. A piece sorts
    only its own magnitudes: an inverse over a whole table would hold sort
    temporaries larger than the text the hash streams.
    """
    period = a[0].size
    strides = np.cumprod((1,) + a.shape[:0:-1])[::-1]
    # axis j steps at the places of a row that strides[j] divides, strides[j - 1] not
    steps = a.ndim - (np.arange(period)[:, None] % strides == 0).sum(axis=1)
    prefixes = np.array([sep + sign for sep in seps for sign in ("", "-")], dtype=object)
    for start in range(0, len(a), rows):
        block = a[start:start + rows].reshape(-1, period)
        unique, inverse = np.unique(np.abs(block), return_inverse=True)
        reprs = texts[1][np.searchsorted(texts[0], unique)] if texts else _magnitude_texts(unique)
        negative = np.signbit(block) & (block == block)
        piece = np.empty(2 * block.size, dtype=object)
        piece[0::2] = prefixes[(2 * steps + negative).ravel()]
        piece[1::2] = reprs[inverse.ravel()]
        if start == 0:
            piece[0] = first + "-" if negative[0, 0] else first
        yield "".join(piece.tolist())


def _json_layout(ndim: int, level: int, keyed: int | None = None) -> tuple[str, list, str]:
    """first, seps and closing text of _float_join for json's nested lists
    at a nesting level, axis `keyed` (two entries) as {"im", "re"} objects."""
    pad = ["\n" + "  " * (level + j) for j in range(ndim + 1)]
    marks = [("{", '"im": ', '"re": ', "}") if j == keyed else ("[", "", "", "]")
             for j in range(ndim)]
    opens = [m[0] + pad[j + 1] + m[1] for j, m in enumerate(marks)]
    commas = ["," + pad[j + 1] + m[2] for j, m in enumerate(marks)]
    closes = [pad[j] + m[3] for j, m in enumerate(marks)]
    seps = ["".join(closes[:j:-1]) + commas[j] + "".join(opens[j + 1:]) for j in range(ndim)]
    return "".join(opens), seps, "".join(closes[::-1])


# Writes from which a finite float array goes to _float_join, a write
# being one join for a matrix of floats and one float of a vector: its
# fixed cost (sorting, laying out the separators) is about that of 8
# writes, so a lone matrix, or a stack of a few, is cheaper as lists.
_ARRAY_WRITES = 8


def _array_pieces(a: np.ndarray, level: int, texts: tuple | None = None):
    """The text _pieces writes for an array: one _float_join for a large
    finite float or complex array, a complex one as {"im", "re"} on axis 0,
    else the text of its lists."""
    writes = a.size // math.prod(a.shape[-2:]) if a.ndim > 1 and a.size else a.size
    if writes >= _ARRAY_WRITES and a.dtype in (np.float64, np.complex128) and np.isfinite(a).all():
        keyed = 0 if a.dtype == np.complex128 else None
        floats = a if keyed is None else np.stack((a.imag, a.real))
        first, seps, last = _json_layout(floats.ndim, level, keyed)
        yield from _float_join(floats, first, seps, texts)
        yield last
    elif np.iscomplexobj(a):
        yield from _pieces({"im": a.imag, "re": a.real}, level)
    else:
        yield from _pieces(a.tolist(), level)


class MatrixStack:
    """A complex stack of matrices that a job writes twice: into its report,
    like any complex array, and into a CSV table (format_matrix_table).
    float.__repr__ runs once per distinct magnitude for both, at the first
    write, so a stack never written is never formatted."""

    def __init__(self, stack):
        self.values = np.ascontiguousarray(stack, dtype=complex)
        self._texts = None

    @property
    def texts(self) -> tuple:
        if self._texts is None:
            magnitudes, texts = _shared_texts(self.values.view(float))
            # held as one string and split at each use: thousands of small
            # strings held from the CSV to the report fragmented the heap
            self._texts = magnitudes, "\n".join(texts.tolist())
        magnitudes, texts = self._texts
        return magnitudes, np.array(texts.split("\n"), dtype=object)


def _pieces(obj, level: int = 0):
    """The text json.dumps(sort_keys=True, indent=2) writes for obj at a nesting
    level, in pieces that _dumps joins once (nested joins would copy the text at
    every level); a complex number is {"im", "re"}, a numpy scalar its .item(), and
    other scalars and empty containers, alike under any indent, go to json."""
    pad = "\n" + "  " * (level + 1)
    if isinstance(obj, _TableValues):
        # N matrices {"im", "re"}: the (N, 2, dim, dim) view of the stack
        matrices = obj.stack[::-1].transpose(1, 0, 2, 3)
        first, seps, last = _json_layout(4, level, keyed=1)
        yield from _float_join(matrices, first, seps, _shared_texts(matrices), _TABLE_CHUNK)
        yield last
    elif isinstance(obj, np.ndarray):
        yield from _array_pieces(obj, level)
    elif isinstance(obj, MatrixStack):
        yield from _array_pieces(obj.values, level, obj.texts)
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
    elif isinstance(obj, complex):
        yield from _pieces({"im": obj.imag, "re": obj.real}, level)
    elif isinstance(obj, np.generic):
        yield from _pieces(obj.item(), level)
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


def _csv(header: list[str], floats: np.ndarray, texts: tuple | None = None,
         index: list[str] | None = None) -> str:
    """CSV text of a header and the rows of a 2-D float array, each row
    after its index text when one is given."""
    if not floats.size:
        return ",".join(header) + "\n"
    body = "".join(_float_join(floats, "", ["\n", ","], texts))
    if index is not None:
        body = "\n".join(map(",".join, zip(index, body.split("\n"))))
    return "".join([",".join(header), "\n", body, "\n"])


def format_real_table(columns: Sequence[tuple[str, Sequence[float]]]) -> str:
    """CSV text from (name, values) columns of equal length."""
    names = [name for name, _ in columns]
    series = [np.asarray(vals, dtype=float) for _, vals in columns]
    length = len(series[0]) if series else 0
    for name, vals in zip(names, series):
        if len(vals) != length:
            raise ValueError(f"column {name!r} length {len(vals)} != {length}")
    return _csv(names, np.stack(series, axis=1) if series else np.zeros((0, 0)))


def format_matrix_table(
    index_name: str, index_values: Sequence, stack: np.ndarray | MatrixStack
) -> str:
    """CSV text for a stack of matrices, row-major re/im column pairs.

    Columns: the index, then e{i}{j}_re, e{i}{j}_im for each entry in
    row-major order. An integer index is written as an integer, a float
    as its repr, numpy's or Python's alike.
    """
    if not isinstance(stack, MatrixStack):
        stack = MatrixStack(stack)
    count, rows, cols = stack.values.shape
    names = [index_name] + [f"e{i}{j}_{part}" for i in range(rows) for j in range(cols)
                            for part in ("re", "im")]
    index = [repr(float(idx)) if isinstance(idx, (float, np.floating)) else str(idx)
             for idx in index_values]
    return _csv(names, stack.values.view(float).reshape(count, len(names) - 1), stack.texts, index)
