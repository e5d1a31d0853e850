"""Warm-up jobs and the in-process CLI call, kept apart from the workloads.

The set-up probe imports only this module and psdfactor, so ``setup_s``
covers ``import psdfactor`` (numpy included) and the first call into each
engine a workload uses, on tiny literal inputs, and nothing of the
benchmark's own input generation or checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from psdfactor import cli, factor
from psdfactor.diagmodel import DiagRel, DiagSymbol, diag_truncate

# The ROADMAP example of the rank-cut fault: lambda* = 0.29, reported infeasible.
FAULT_T = DiagSymbol(head=(0.071, 2.54), tail_coeff=1.14, tail_power=2)
FAULT_B = DiagSymbol(head=(), tail_coeff=1.31, tail_power=3)


def run_cli(argv, text):
    """cli.main in-process, job text on stdin, report text from stdout."""
    out = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


_I2 = [[1, 0], [0, 1]]
_D2 = [[2, 0], [0, 1]]
_M2 = {"rows": 2, "cols": 2, "data": [[2, 0], [0, 0], [0, 0], [1, 0]]}
_I2J = {"rows": 2, "cols": 2, "data": [[1, 0], [0, 0], [0, 0], [1, 0]]}
_R2 = {"n": 2, "m": 2, "graph_basis": {"rows": 4, "cols": 2, "data": [[0.6, 0], [0, 0], [0, 0], [0.6, 0], [0.8, 0], [0, 0], [0, 0], [0.8, 0]]}}


def warm_up(workload):
    if workload == "dense":
        factor.seb_solve(_D2, _I2)
        factor.seb_solve(diag_truncate(DiagRel(FAULT_T), 3), diag_truncate(DiagRel(FAULT_B), 3))
        factor.wsimilar_forms(_D2)
        factor.bounded_S_checks(_D2, _I2, _D2)
        factor.quasiaffine_decide(_D2, _D2)
        factor.quasisimilar_decide(_D2, _D2)
        return
    if workload == "campaigns":
        from psdfactor.proptests import SUITES

        runs = [(["proptest", "--in", "-", "--trials", "1"], {"suite": s}) for s in SUITES]
    elif workload == "dense_cli":
        runs = [
            (["seb", "--in", "-"], {"T": _M2, "B": _I2J}),
            (["wsimilar", "--in", "-"], {"T": _M2}),
            (["factor", "--in", "-"], {"op": "douglas", "T": _M2, "B": _I2J}),
            (["diag", "--in", "-"], {"op": "truncate", "t": "n", "N": 3}),
        ]
    else:
        runs = [
            (["reverse", "--in", "-"], {"T": _M2, "B": _I2J}),
            (["seb", "--in", "-"], {"T": _R2, "B": _R2}),
            (["rel", "--in", "-"], {"op": "compose", "S": _R2, "T": _R2}),
            (["rel", "--in", "-"], {"op": "restrict", "B": _R2, "D": _I2J}),
            (["rel", "--in", "-"], {"op": "parts", "T": _R2}),
            (["rel", "--in", "-"], {"op": "classify", "T": _R2}),
            (["rel", "--in", "-"], {"op": "order_leq", "Tlo": _R2, "Thi": _R2}),
            (["rel", "--in", "-"], {"op": "moore_penrose", "T": _M2}),
            (["rel", "--in", "-"], {"op": "sqrt", "T": _R2}),
        ]
    for argv, job in runs:
        code, _ = run_cli(argv, json.dumps(job))
        if code != 0:
            raise RuntimeError(f"warm-up job {argv[0]} exited {code}")
