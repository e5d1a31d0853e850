"""Batch front-end: one subcommand per engine, JSON in, JSON report out.

    psdfactor <command> --in job.json [--tol 1e-8] [--seed N] [--trials K]
                        [--out report.json]

``--in -`` reads the job from stdin.  The tolerance is the first one given
of ``--tol``, the job's ``"tol"`` key and the environment variable
``PSDFACTOR_TOL``, else ``1e-8``; it must be a finite nonnegative number
and every gate and test of the job, ``rel sqrt``, the ``diag`` engines and
the ``presimilar`` and ``spectra_swap`` spectra included, runs at it.
``--seed`` and ``--trials`` likewise win over the job's ``"seed"`` and
``"trials"`` keys (defaults 0 and 100) and must be nonnegative integers;
only ``proptest`` reads the seed.  A ``proptest`` campaign runs its trials
in order on one thread.
Exit codes: 0 = completed (feasible and infeasible both count), 2 = a
hypothesis gate failed, operands of mismatched shapes included, 3 =
malformed input, an unknown command or option and a malformed tolerance,
seed or trial count included, or a job the engines cannot finish (a result
outside the float range or the symbol class, LAPACK non-convergence, a
``MemoryError``; numpy overflow and invalid operations
raise ``FloatingPointError`` inside every job); every exit 2 or 3 prints
one line to stderr.  ``--help`` and ``--version`` exit 0.

The job is parsed by orjson, so NaN and Infinity literals, which are not
JSON, exit 3; a seed, trial count or ``N`` written as an integer beyond 64
bits, which orjson reads as a rounded float, exits 3 too, as does a job
nested too deeply for the error message that names its bad value.
A report's ``results`` are the engine's certificate in the form
``serialize.report_value`` gives it, field by field with an infinite float
written ``"inf"``; ``seb``, ``ldeux`` and ``power_chain`` write their
residuals as ``{"value", "tol"}``.  ``proptest`` reports ``run_suite``'s
dict as it is, so a non-finite scalar there is written ``Infinity``.
A report is one line of JSON with sorted keys and ``(",", ": ")``
separators, written by ``serialize.dumps_report``: json's C encoder writes
every scalar and orjson writes each matrix's data from its float64 array;
matrices in the job move through ``serialize`` a whole array at a time too.
Reports are deterministic: a fixed JobSpec yields a byte-identical report
apart from the ``wall_clock_s`` field.
``wall_clock_s`` runs from before the job is read to the end of the run, so
it covers reading and parsing the job; only the final ``dumps_report`` of
the report and its writing fall outside it.

``main`` pauses Python's cyclic garbage collector for the whole job, from
reading it to writing the report, so the collector does not walk the one
list per ``[re, im]`` pair that orjson builds.  This frees nothing late:
no job makes a reference cycle (a test runs every command and op and finds
no cyclic garbage after any), so reference counting frees each job's
objects as before.  The argument parser, whose construction leaves
argparse's objects in cycles, is built once per process.  ``main`` restores
the collector's state as it found it on every exit, ``SystemExit``
included; other threads of the process see the pause while a job runs.
"""

from __future__ import annotations

import argparse
import functools
import gc
import math
import os
import sys
import time

import numpy as np

from . import __version__, factor, proptests
from .diagmodel import (
    DiagRel,
    diag_adjoint,
    diag_compose,
    diag_inverse,
    diag_order_leq,
    diag_reverse_solve,
    diag_seb_solve,
    diag_truncate,
)
from .errors import HypothesisError, ParseError, PsdFactorError
from .linrel import (
    LinRel,
    as_relation,
    rel_adjoint,
    rel_classify,
    rel_compose,
    rel_inverse,
    rel_moore_penrose,
    rel_order_leq,
    rel_parts,
    rel_restrict,
    rel_sqrt,
)
from .numkernel import DEFAULT_TOL, span, sylvester_intertwiners
from .serialize import dumps_report, loads, payload_from_json, report_value

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_INPUT = 3  # malformed input, or a job the engines cannot finish


def _tolerance(value, source):
    """A tolerance: a finite nonnegative float, or ParseError."""
    try:
        tol = float(value)
    except (TypeError, ValueError, OverflowError):
        tol = math.nan
    if isinstance(value, bool) or not (math.isfinite(tol) and tol >= 0):
        raise ParseError(f"{source}: tolerance {value!r} is not a finite nonnegative number")
    return tol


def _count(value, source, least=0):
    """A seed or trial count: an integer >= least, or ParseError."""
    if isinstance(value, float) and abs(value) >= 2.0**64:
        raise ParseError(f"{source}: {value!r} is beyond 64 bits, where integers parse as rounded floats")
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = least - 1
    if isinstance(value, bool) or n < least or (isinstance(value, float) and n != value):
        raise ParseError(f"{source}: {value!r} is not an integer >= {least}")
    return n


def _setting(flag, job, key, parse, default, env=None):
    """The first given of ``--key``, ``job[key]`` and ``$env``, parsed; else ``default``."""
    if flag is not None:
        return parse(flag, f"--{key}")
    if key in job:
        return parse(job[key], f"job {key!r}")
    if env is not None and env in os.environ:
        return parse(os.environ[env], env)
    return default


_OPERAND = (np.ndarray, LinRel)


def _want(job, key, where, kinds=np.ndarray):
    """The payload ``job[key]``, which must be of ``kinds`` (default: a matrix)."""
    if key not in job:
        raise ParseError(f"{where}: missing required input {key!r}")
    value = payload_from_json(job[key], f"{where}.{key}")
    if not isinstance(value, kinds):
        raise ParseError(f"{where}.{key}: a {type(value).__name__} payload is not accepted here")
    return value


def _run_seb(job, tol, seed, trials):
    T = _want(job, "T", "seb", _OPERAND)
    B = _want(job, "B", "seb", _OPERAND)
    if isinstance(T, LinRel) or isinstance(B, LinRel):
        cert = factor.seb_relation_solve(as_relation(T), as_relation(B), tol=tol)
    else:
        cert = factor.seb_solve(T, B, tol=tol)
    out = report_value(cert)
    out["residual_xb_t"] = {"value": out["residual_xb_t"], "tol": tol}
    return out


def _run_reverse(job, tol, seed, trials):
    T = as_relation(_want(job, "T", "reverse", _OPERAND))
    B = as_relation(_want(job, "B", "reverse", _OPERAND))
    return {**report_value(factor.reverse_solve(T, B, tol=tol)), "tol": tol}


def _run_wsimilar(job, tol, seed, trials):
    return report_value(factor.wsimilar_forms(_want(job, "T", "wsimilar"), tol=tol))


def _run_intertwine(job, tol, seed, trials):
    op = job.get("op", "sylvester")
    T = _want(job, "T", "intertwine")
    S = _want(job, "S", "intertwine")
    if op == "sylvester":
        inter = sylvester_intertwiners(T, S, tol=tol)
        return report_value({k: getattr(inter, k) for k in ("dimension", "rank", "max_rank_element")})
    if op == "quasiaffine":
        return report_value(factor.quasiaffine_decide(T, S, tol=tol))
    if op == "quasisimilar":
        return report_value(factor.quasisimilar_decide(T, S, tol=tol))
    raise ParseError(f"intertwine: unknown op {op!r}")


def _run_factor(job, tol, seed, trials):
    op = job.get("op")
    if op == "douglas":
        return report_value(factor.douglas_solve(_want(job, "T", op), _want(job, "B", op), tol=tol))
    if op == "ldeux":
        hint = _want(job, "Y_hint", op) if "Y_hint" in job else None
        out = report_value(factor.ldeux_certify(_want(job, "T", op), Y_hint=hint, tol=tol))
        out["residual"] = {"value": out["residual"], "tol": tol}
        return out
    if op == "psd_similarity":
        return report_value(factor.psd_similarity_decide(_want(job, "T", op), tol=tol))
    if op == "presimilar":
        S, match = factor.presimilar_S(_want(job, "A", op), _want(job, "B", op), tol=tol)
        return report_value({"S": S, "spectra_match": match, "tol": tol})
    if op == "spectra_swap":
        flag = factor.spectra_swap_check(_want(job, "A", op), _want(job, "B", op), tol=tol)
        return report_value({"swap_ok": flag, "tol": tol})
    if op == "power_chain":
        chain = factor.power_chain(
            _want(job, "A", op),
            _want(job, "B", op),
            n_max=_count(job.get("n_max", 4), "job 'n_max'"),
            tol=tol,
        )
        out = report_value(chain)
        out["levels"] = len(chain.S_seq)
        out["residuals"] = [{"value": r, "tol": tol} for r in out["residuals"]]
        return out
    if op in ("inclusionnfs", "tba", "bounded_s"):
        # an intertwiner G of T (inclusionnfs: of T*) with a target S = S* >= 0
        T, G, S = (_want(job, key, op) for key in ("T", "G", "S"))
        if op == "bounded_s":
            return report_value(factor.bounded_S_checks(T, G, S, tol=tol))
        package = factor.inclusionnfs_package if op == "inclusionnfs" else factor.tba_package
        out = report_value(package(T, G, S, tol=tol))
        del out["G"], out["S"]  # the job's own inputs
        return out
    raise ParseError(f"factor: unknown op {op!r}")


def _run_rel(job, tol, seed, trials):
    op = job.get("op")
    if op in ("adjoint", "inverse", "sqrt", "moore_penrose", "parts", "classify"):
        T = as_relation(_want(job, "T", f"rel.{op}", _OPERAND))
        if op == "classify":
            return report_value(rel_classify(T, tol=tol))
        if op == "parts":
            parts = rel_parts(T)
            return report_value({
                "dom_dim": parts.dom.dim,
                "ran_dim": parts.ran.dim,
                "ker_dim": parts.ker.dim,
                "mul_dim": parts.mul.dim,
                "operator_part": parts.operator_part_matrix,
            })
        if op == "sqrt":
            return report_value({"result": rel_sqrt(T, tol=tol)})
        unary = {"adjoint": rel_adjoint, "inverse": rel_inverse, "moore_penrose": rel_moore_penrose}
        return report_value({"result": unary[op](T)})
    if op == "compose":
        S = as_relation(_want(job, "S", "rel.compose", _OPERAND))
        T = as_relation(_want(job, "T", "rel.compose", _OPERAND))
        return report_value({"result": rel_compose(S, T)})
    if op == "restrict":
        B = as_relation(_want(job, "B", "rel.restrict", _OPERAND))
        D = _want(job, "D", "rel.restrict")
        return report_value({"result": rel_restrict(B, span(D, ambient_dim=B.dom_dim))})
    if op == "order_leq":
        lo = as_relation(_want(job, "Tlo", "rel.order_leq", _OPERAND))
        hi = as_relation(_want(job, "Thi", "rel.order_leq", _OPERAND))
        return report_value({"leq": rel_order_leq(lo, hi, tol=tol), "tol": tol})
    raise ParseError(f"rel: unknown op {op!r}")


def _run_diag(job, tol, seed, trials):
    op = job.get("op")
    if op in ("seb", "reverse", "compose", "order_leq"):
        t = _want(job, "t", f"diag.{op}", DiagRel)
        b = _want(job, "b", f"diag.{op}", DiagRel)
        if op == "seb":
            return report_value(diag_seb_solve(t, b, tol))
        if op == "reverse":
            return report_value(diag_reverse_solve(t, b, tol))
        if op == "compose":
            return report_value({"result": diag_compose(t, b)})
        return report_value({"leq": diag_order_leq(t, b)})
    if op in ("adjoint", "inverse"):
        t = _want(job, "t", f"diag.{op}", DiagRel)
        return report_value({"result": diag_adjoint(t) if op == "adjoint" else diag_inverse(t)})
    if op == "truncate":
        t = _want(job, "t", "diag.truncate", DiagRel)
        N = _count(job.get("N", 10), "job 'N'", least=t.symbol.head_len)
        return report_value({"result": diag_truncate(t, N)})
    raise ParseError(f"diag: unknown op {op!r}")


def _run_proptest(job, tol, seed, trials):
    suite = job.get("suite")
    if not isinstance(suite, str) or suite not in proptests.SUITES:
        raise ParseError(f"proptest: 'suite' {suite!r} is not one of {sorted(proptests.SUITES)}")
    return proptests.run_suite(suite, trials=trials, seed=seed, tol=tol)


_COMMANDS = {
    "seb": _run_seb,
    "reverse": _run_reverse,
    "factor": _run_factor,
    "wsimilar": _run_wsimilar,
    "intertwine": _run_intertwine,
    "rel": _run_rel,
    "diag": _run_diag,
    "proptest": _run_proptest,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # malformed input exits 3; argparse would exit 2
        raise ParseError(f"command line: {' '.join(message.split())}")


@functools.cache
def build_parser():
    """The command-line parser, built once per process (its ``prog`` is fixed)."""
    p = _Parser(prog="psdfactor", description=__doc__)
    p.add_argument("command", choices=sorted(_COMMANDS))
    p.add_argument("--in", dest="infile", default=None, help="job JSON path, or - for stdin")
    p.add_argument("--out", dest="outfile", default=None, help="report path (default stdout)")
    # Read as strings and checked in main, so a malformed value exits 3 (argparse would exit 2).
    p.add_argument("--tol", default=None)
    p.add_argument("--seed", default=None)
    p.add_argument("--trials", default=None)
    p.add_argument("--version", action="version", version=__version__)
    return p


def run_job(command: str, job: dict, tol: float, seed: int, trials: int, started=None) -> dict:
    """Run one job; ``wall_clock_s`` counts from ``started`` (a ``time.monotonic()``), else from now."""
    t0 = time.monotonic() if started is None else started
    # an overflow or an invalid operation ends the job (exit 3), not the report
    with np.errstate(over="raise", invalid="raise"):
        results = _COMMANDS[command](job, tol, seed, trials)
    report = {
        "command": command,
        "tol": tol,
        "seed": seed,
        "trials": trials,
        "results": results,
        "wall_clock_s": time.monotonic() - t0,
    }
    return report


def main(argv=None) -> int:
    """Run one job with the cyclic garbage collector paused; its state is restored after."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if collecting:
            gc.enable()


def _main(argv) -> int:
    started = time.monotonic()
    try:
        args = build_parser().parse_args(argv)
        if args.infile is None:
            job = {}
        elif args.infile == "-":
            job = loads(sys.stdin.read())
        else:
            with open(args.infile, "r", encoding="utf-8") as fh:
                job = loads(fh.read())
        if not isinstance(job, dict):
            raise ParseError("job file must hold a JSON object")
        tol = _setting(args.tol, job, "tol", _tolerance, DEFAULT_TOL, env="PSDFACTOR_TOL")
        seed = _setting(args.seed, job, "seed", _count, 0)
        trials = _setting(args.trials, job, "trials", _count, 100)
        report = run_job(args.command, job, tol, seed, trials, started=started)
    except ParseError as exc:
        print(f"psdfactor: parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except HypothesisError as exc:
        print(f"psdfactor: hypothesis failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except RecursionError:  # orjson parses any depth, but the repr of a bad value recurses
        print("psdfactor: parse error: the job is nested too deeply", file=sys.stderr)
        return EXIT_INPUT
    except (PsdFactorError, np.linalg.LinAlgError, ValueError, ArithmeticError, MemoryError) as exc:
        message = " ".join(str(exc).split())
        print(f"psdfactor: cannot finish the job: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INPUT
    text = dumps_report(report)
    if args.outfile:
        with open(args.outfile, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
