"""Layer tracing from outside the program.

``Tracer.install`` wraps the public functions of each psdfactor layer and
the public numpy.linalg functions psdfactor calls, and rebinds every wrapped
name in every psdfactor module that holds it (the modules import each other's
names by value).  While ``active`` is set, every wrapped call is counted, and
a call that crosses a layer boundary (its caller is in another layer, or it
is a numpy.linalg call) records a span (name, start, end, parent).  Calls
inside one layer get no span of their own: their time is that layer's self
time either way, and a span per element of a 300 x 300 matrix would swamp
the run.  The spans stay in memory and are reduced at the end.
``uninstall`` puts the original functions back, so untraced rounds in the
same process pay nothing.
"""

from __future__ import annotations

import json
import os
import sys
import time
import types
from collections import Counter

import numpy as np

LAYERS = ("cli", "serialize", "factor", "linrel", "numkernel", "diagmodel", "proptests")

# numpy.linalg function -> kind it is counted under
LINALG_KINDS = {
    "svd": "svd",
    "eigh": "eigh",
    "eigvalsh": "eigh",
    "eig": "eig",
    "eigvals": "eig",
    "inv": "solve",
    "solve": "solve",
    "pinv": "solve",
    "norm": "norm2",
    "cond": "norm2",
    "qr": "other",
    "matrix_rank": "other",
    "lstsq": "other",
    "det": "other",
}

# Spans whose inclusive time or call count is reported on its own.
NAMED_SPANS = {
    "linrel.rel_compose": "linrel.rel_compose.s",
    "numkernel.sylvester_intertwiners": "numkernel.sylvester_intertwiners.s",
}
NAMED_CALLS = {"linrel.rel_parts": "linrel.rel_parts.calls"}


def _dims(a):
    shape = np.shape(a)
    return (shape[-2], shape[-1]) if len(shape) >= 2 else (shape[0] if shape else 1, 1)


def linalg_flops(fname, args, kwargs):
    """Model flop count of one call from its operand shapes (complex: x4).

    Textbook LAPACK estimates: full SVD 4m^2n + 8mn^2 + 9n^3, values only
    4mn^2 - 4n^3/3 (m >= n); eigh 9n^3 (values only 4n^3/3); eig 25n^3
    (values only 10n^3); inv 2n^3; solve 2n^3/3 + 2n^2 k; QR 4mn^2 - 4n^3/3.
    """
    m, n = _dims(args[0])
    if m < n:
        m, n = n, m
    uv = kwargs.get("compute_uv", args[2] if fname == "svd" and len(args) > 2 else True)
    if fname in ("svd", "pinv"):
        full = fname == "pinv" or uv
        real = 4 * m * m * n + 8 * m * n * n + 9 * n**3 if full else 4 * m * n * n - 4 * n**3 / 3
    elif fname in ("norm", "cond", "matrix_rank", "lstsq"):
        real = 4 * m * n * n - 4 * n**3 / 3
    elif fname == "eigh":
        real = 9 * n**3
    elif fname in ("eigvalsh", "det"):
        real = 4 * n**3 / 3
    elif fname == "eig":
        real = 25 * n**3
    elif fname == "eigvals":
        real = 10 * n**3
    elif fname == "inv":
        real = 2 * n**3
    elif fname == "solve":
        k = _dims(args[1])[1] if len(args) > 1 else 1
        real = 2 * n**3 / 3 + 2 * n * n * k
    else:  # qr
        real = 4 * m * n * n - 4 * n**3 / 3
    return 4.0 * real


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []  # [name, start, end, parent index]
        self._stack = []  # indices of the open spans
        self._layers = []  # layer of each open span
        self.calls = Counter()  # per layer, and per name in NAMED_CALLS
        self.kind_calls = Counter()
        self.shapes = Counter()  # (function, operand shape) -> calls
        self.gflop = 0.0
        self.max_dim = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name, layer):
        i = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(i)
        self._layers.append(layer)
        return i

    def _exit(self, i):
        self._stack.pop()
        self._layers.pop()
        self.spans[i][2] = time.perf_counter()

    def wrap(self, name, fn):
        layer = name.split(".", 1)[0]
        spanned = name in NAMED_SPANS

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.calls[layer] += 1
            if name in NAMED_CALLS:
                self.calls[name] += 1
            if name == "serialize.loads" and args:
                self.bytes_in += len(str(args[0]).encode())
            if not spanned and self._layers and self._layers[-1] == layer:
                return fn(*args, **kwargs)
            i = self._enter(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(i)

        traced.__wrapped__ = fn
        return traced

    def wrap_linalg(self, fname, fn):
        kind = LINALG_KINDS[fname]
        name = f"linalg.{fname}"

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if fname == "norm":
                ord_ = kwargs.get("ord", args[1] if len(args) > 1 else None)
                if ord_ != 2 or np.ndim(args[0]) != 2:
                    return fn(*args, **kwargs)
            self.kind_calls[kind] += 1
            self.shapes[(fname, np.shape(args[0]))] += 1
            self.max_dim = max(self.max_dim, *_dims(args[0]))
            self.gflop += linalg_flops(fname, args, kwargs) / 1e9
            i = self._enter(name, "linalg")
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(i)

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        mods = {name: mod for name, mod in sys.modules.items() if name.startswith("psdfactor") and mod}
        wrappers = {}
        for layer in LAYERS:
            mod = mods[f"psdfactor.{layer}"]
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{name}", obj)
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)])
        for fname in LINALG_KINDS:
            orig = getattr(np.linalg, fname)
            self._saved.append((np.linalg, fname, orig))
            setattr(np.linalg, fname, self.wrap_linalg(fname, orig))

    def uninstall(self):
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    # -- reduction ---------------------------------------------------------

    def write(self, path):
        """All spans as JSON lines [name, start, end, parent index]."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def reduce(self, jobs):
        """Per-layer metrics as means per job over ``jobs`` traced jobs."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = Counter()
        named = Counter()
        for (name, start, end, _), inner in zip(self.spans, child):
            self_s[name.split(".", 1)[0]] += end - start - inner
            if name in NAMED_SPANS:
                named[NAMED_SPANS[name]] += end - start
        per = 1.0 / jobs
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self_s[layer] * per, "s")
        for layer in ("factor", "linrel", "numkernel"):
            out[f"{layer}.calls"] = (self.calls[layer] * per, "count")
        out["serialize.bytes_in"] = (self.bytes_in * per, "B")
        out["serialize.bytes_out"] = (self.bytes_out * per, "B")
        for name, metric in NAMED_CALLS.items():
            out[metric] = (self.calls[name] * per, "count")
        for metric in NAMED_SPANS.values():
            out[metric] = (named[metric] * per, "s")
        out["linalg.s"] = (self_s["linalg"] * per, "s")
        out["linalg.calls"] = (sum(self.kind_calls.values()) * per, "count")
        for kind in ("svd", "eigh", "eig", "solve", "norm2"):
            out[f"linalg.{kind}.calls"] = (self.kind_calls[kind] * per, "count")
        out["linalg.gflop"] = (self.gflop * per, "GFLOP")
        out["linalg.max_dim"] = (float(self.max_dim), "count")
        return out
