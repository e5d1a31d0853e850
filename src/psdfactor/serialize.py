"""JSON wire formats for matrices, relations, and diagonal symbols.

Complex scalars travel as [re, im]; a matrix as {rows, cols, data} with data
row-major [re, im] pairs; a relation as {n, m, graph_basis}; a symbol as
{head, tail} where head entries are [re, im] (or the markers "inf",
"trivial", "full") and the tail is {coeff: [re, im], power: "p/q"}.  Floats
round-trip exactly, signed zeros included, so serialize/deserialize is
value-exact; the one exception is a matrix with no nonzero imaginary part,
which ``as_matrix`` makes real on parse: its imaginary parts print as 0.0.

Jobs are parsed by ``loads`` with orjson, which refuses the non-JSON
literals NaN and Infinity and reads an integer beyond 64 bits as a float.
Matrix data moves a whole array at a time.  ``matrix_to_json`` lists the
(re, im) columns of the flattened matrix in one ``tolist``;
``payload_to_json``, which builds the payloads of a report, keeps them as
the ``(rows*cols, 2)`` float64 array, and ``dumps_report`` writes each such
array with one ``orjson.dumps``.  The floats of matrix data in a report
therefore carry the shortest round-trip digits in orjson's spelling, which
can differ from json's in text but not in value: ``1e-05`` is written
``0.00001`` and ``1e+16`` is written ``1e16``.  Every other scalar of a
report keeps json's spelling.  ``report_value`` turns an engine's result
into its report form by one rule: dataclass fields and dict and list
entries one by one, matrices, relations and symbols as payloads, and an
infinite float as the string ``"inf"``.  A ``proptest`` report is
``run_suite``'s dict as it is, so its non-finite scalars are still written
``Infinity`` (ROADMAP item 2).
``matrix_from_json`` reads ``data`` in one C pass, ``array("d")`` over the
chained entries when every entry has length 2 (pairs) and over the entries
themselves otherwise (bare numbers), and takes the result only when it is
finite throughout; the float64 pairs are then viewed as complex128, which
keeps an imaginary -0.0.  ``array("d")`` accepts booleans, integers and
floats and refuses strings, null, objects, lists and integers beyond the
float range, so any data that pass refuses (mixed pairs and bare numbers,
a two-character string, ragged or nested lists) is parsed entry by entry
with ``complex_from_json``, which accepts it or names its first bad entry.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
from array import array
from fractions import Fraction
from itertools import chain

import numpy as np
import orjson

from .diagmodel import _MARKERS, DiagRel, DiagSymbol, _Marker
from .errors import ParseError
from .linrel import LinRel, rel_from_graph
from .numkernel import Subspace, as_matrix, frob

__all__ = [
    "complex_to_json",
    "complex_from_json",
    "matrix_to_json",
    "matrix_from_json",
    "relation_to_json",
    "relation_from_json",
    "symbol_to_json",
    "symbol_from_json",
    "payload_to_json",
    "payload_from_json",
    "report_value",
    "loads",
    "dumps_report",
]

def complex_to_json(z):
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(obj, where="scalar"):
    """A finite complex scalar from a number or [re, im]; NaN and Infinity are refused."""
    if isinstance(obj, (int, float)):
        parts = [obj]
    elif isinstance(obj, list) and len(obj) == 2 and all(isinstance(x, (int, float)) for x in obj):
        parts = obj
    else:
        raise ParseError(f"{where}: expected a number or [re, im], got {obj!r}")
    try:
        z = complex(*parts)
    except OverflowError:  # an integer beyond the float range
        z = complex(math.inf)
    if not cmath.isfinite(z):
        raise ParseError(f"{where}: entry {obj!r} is not finite")
    return z


def _matrix_payload(M):
    """A matrix payload whose data is the (rows*cols, 2) float64 array of its (re, im) pairs."""
    M = as_matrix(M)
    flat = M.reshape(-1)
    return {"rows": M.shape[0], "cols": M.shape[1], "data": np.stack([flat.real, flat.imag], axis=1)}


def matrix_to_json(M):
    obj = _matrix_payload(M)
    obj["data"] = obj["data"].tolist()
    return obj


def _array_data(data):
    """``data`` as complex128 pairs or float64 bare numbers, when one
    ``array("d")`` pass reads it as finite numbers; else None."""
    try:
        pairs = set(map(len, data)) == {2}
    except TypeError:  # a bare number has no length
        pairs = False
    try:
        # array("d") presizes from a list, and grows step by step from an iterator
        a = np.frombuffer(array("d", list(chain.from_iterable(data)) if pairs else data))
    except (TypeError, OverflowError):
        return None
    if not np.isfinite(a).all():
        return None
    return a.view(np.complex128) if pairs else a


def _entry_data(data, where):
    """``data`` parsed entry by entry; a bad entry raises the ParseError that names it."""
    flat = []
    for i, z in enumerate(data):
        try:
            flat.append(complex_from_json(z))
        except ParseError:
            complex_from_json(z, f"{where}.data[{i}]")  # the same error, naming the entry
            raise
    return np.array(flat, dtype=np.complex128)


def matrix_from_json(obj, where="matrix"):
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except (TypeError, KeyError) as exc:
        raise ParseError(f"{where}: missing field {exc}") from exc
    if not isinstance(rows, int) or not isinstance(cols, int) or rows < 0 or cols < 0:
        raise ParseError(f"{where}: rows/cols must be nonnegative integers")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ParseError(f"{where}: data must hold rows*cols = {rows * cols} entries")
    flat = _array_data(data)
    if flat is None:
        flat = _entry_data(data, where)
    return as_matrix(flat.reshape(rows, cols))


def _relation_payload(R: LinRel, matrix):
    return {"n": R.dom_dim, "m": R.codom_dim, "graph_basis": matrix(R.graph.basis)}


def relation_to_json(R: LinRel):
    return _relation_payload(R, matrix_to_json)


def relation_from_json(obj, where="relation"):
    try:
        n, m = obj["n"], obj["m"]
        basis = matrix_from_json(obj["graph_basis"], f"{where}.graph_basis")
    except (TypeError, KeyError) as exc:
        raise ParseError(f"{where}: missing field {exc}") from exc
    if not isinstance(n, int) or not isinstance(m, int) or n < 0 or m < 0:
        raise ParseError(f"{where}: n and m must be nonnegative integers")
    if basis.shape[0] != n + m:
        raise ParseError(f"{where}: graph basis must have n+m = {n + m} rows")
    gram = basis.conj().T @ basis
    if frob(gram - np.eye(basis.shape[1])) <= 1e-12:
        # already orthonormal: keep the stored floats so round trips are exact
        return LinRel(n, m, Subspace(n + m, basis))
    return rel_from_graph(basis, n, m)


def symbol_to_json(D):
    sym = D.symbol if isinstance(D, DiagRel) else D
    head = []
    for v in sym.head:
        head.append(v.name if isinstance(v, _Marker) else complex_to_json(v))
    power = Fraction(sym.tail_power)
    return {
        "head": head,
        "tail": {"coeff": complex_to_json(sym.tail_coeff), "power": str(power)},
    }


def symbol_from_json(obj, where="symbol"):
    try:
        head_raw = obj["head"]
        tail = obj.get("tail", {"coeff": [0.0, 0.0], "power": "0"})
    except (TypeError, KeyError) as exc:
        raise ParseError(f"{where}: expected an object with a head") from exc
    if not isinstance(head_raw, list) or not isinstance(tail, dict):
        raise ParseError(f"{where}: head must be a list and tail an object")
    head = []
    for i, v in enumerate(head_raw):
        if isinstance(v, str):
            if v not in _MARKERS:
                raise ParseError(f"{where}.head[{i}]: unknown marker {v!r}")
            head.append(_MARKERS[v])
        else:
            head.append(complex_from_json(v, f"{where}.head[{i}]"))
    coeff = complex_from_json(tail.get("coeff", [0.0, 0.0]), f"{where}.tail.coeff")
    try:
        power = Fraction(str(tail.get("power", "0")))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}.tail.power: not a rational p/q") from exc
    return DiagRel(DiagSymbol(head=tuple(head), tail_coeff=coeff, tail_power=power))


NAMED_SYMBOLS = {
    "zero": DiagSymbol(tail_coeff=0),
    "one": DiagSymbol(tail_coeff=1, tail_power=Fraction(0)),
    "n": DiagSymbol(tail_coeff=1, tail_power=Fraction(1)),
    "n2": DiagSymbol(tail_coeff=1, tail_power=Fraction(2)),
    "sqrt_n": DiagSymbol(tail_coeff=1, tail_power=Fraction(1, 2)),
    "inv_n": DiagSymbol(tail_coeff=1, tail_power=Fraction(-1)),
    "inv_sqrt_n": DiagSymbol(tail_coeff=1, tail_power=Fraction(-1, 2)),
}


def payload_from_json(obj, where="input"):
    """Dispatch on shape: matrix, relation, symbol, or a named symbol."""
    if isinstance(obj, str):
        if obj in NAMED_SYMBOLS:
            return DiagRel(NAMED_SYMBOLS[obj])
        raise ParseError(f"{where}: unknown named symbol {obj!r}")
    if isinstance(obj, dict):
        if "rows" in obj:
            return matrix_from_json(obj, where)
        if "graph_basis" in obj:
            return relation_from_json(obj, where)
        if "head" in obj or "tail" in obj:
            return symbol_from_json(obj, where)
    raise ParseError(f"{where}: unrecognized payload shape")


def payload_to_json(value):
    """The report payload of a value; matrix data stays an array, which ``dumps_report`` writes."""
    if isinstance(value, LinRel):
        return _relation_payload(value, _matrix_payload)
    if isinstance(value, (DiagRel, DiagSymbol)):
        return symbol_to_json(value)
    return _matrix_payload(value)


_PAYLOADS = (np.ndarray, LinRel, DiagRel, DiagSymbol)


def report_value(obj):
    """The report form of a result: a dataclass as {field: report form}, dicts
    and lists entry by entry, a matrix, relation or symbol as its payload, an
    infinite float as ``"inf"``; None, bools, ints, strings and finite floats
    as they are.  Any other type, a numpy bool or integer included, is a TypeError."""
    if isinstance(obj, _PAYLOADS):  # before dataclasses: DiagRel and DiagSymbol are ones
        return payload_to_json(obj)
    if isinstance(obj, float):
        return "inf" if math.isinf(obj) else obj
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, dict):
        return {k: report_value(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [report_value(v) for v in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: report_value(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    raise TypeError(f"a {type(obj).__name__} has no report form")


def loads(text: str):
    """orjson.loads with line/column diagnostics folded into ParseError."""
    try:
        return orjson.loads(text)
    except orjson.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


# json writes the string "\0" as this; a matrix's data holds its place in json's pass
_SLOT = '"\\u0000"'


def dumps_report(report) -> str:
    """A report as one line of JSON: sorted keys, json's ``(",", ": ")`` separators.

    json's C encoder writes the whole report in one pass, every scalar in
    json's spelling.  Each matrix data array (see ``payload_to_json``) holds
    a placeholder there, which one ``orjson.dumps`` of the array then
    replaces.  The arrays are finite, as ``as_matrix`` admits nothing else,
    so orjson never meets the Infinity and NaN it would write as null.
    """
    arrays = []

    def slot(obj):
        if not isinstance(obj, np.ndarray):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        arrays.append(obj)
        return "\0"

    pieces = json.dumps(report, sort_keys=True, separators=(",", ": "), default=slot).split(_SLOT)
    if len(pieces) != len(arrays) + 1:
        raise ValueError('a report string is "\\0", the placeholder of matrix data')
    out = [pieces[0]]
    for data, piece in zip(arrays, pieces[1:]):
        out += (orjson.dumps(data, option=orjson.OPT_SERIALIZE_NUMPY).decode(), piece)
    return "".join(out)
