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
A report is one line of JSON with sorted keys and ``(",", ": ")``
separators, written by ``serialize.dumps_report``: json's C encoder writes
every scalar and orjson writes each matrix's data from its float64 array;
matrices in the job move through ``serialize`` a whole array at a time too.
Reports are deterministic: a fixed JobSpec yields a byte-identical report
apart from the ``wall_clock_s`` field.
``wall_clock_s`` runs from before the job is read to the end of the run, so
it covers reading and parsing the job; only the final ``dumps_report`` of
the report and its writing fall outside it.
"""

from __future__ import annotations

import argparse
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
from .serialize import (
    dumps_report,
    loads,
    payload_from_json,
    payload_to_json,
)

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_INPUT = 3  # malformed input, or a job the engines cannot finish


def _num(x):
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return x


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


def _maybe(value):
    return None if value is None else payload_to_json(value)


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
    return {
        "feasible": cert.feasible,
        "lambda_star": _num(cert.lambda_star),
        "X": _maybe(cert.X),
        "G0": _maybe(cert.G0),
        "residual_xb_t": {"value": _num(cert.residual_xb_t), "tol": tol},
        "norm_X": _num(cert.norm_X),
        "checks": {k: _num(v) for k, v in cert.checks.items()},
    }


def _run_reverse(job, tol, seed, trials):
    T = as_relation(_want(job, "T", "reverse", _OPERAND))
    B = as_relation(_want(job, "B", "reverse", _OPERAND))
    cert = factor.reverse_solve(T, B, tol=tol)
    return {
        "feasible": cert.feasible,
        "eta_star": _num(cert.eta_star),
        "Y": _maybe(cert.Y),
        "residuals": {k: _num(v) for k, v in cert.residuals.items()},
        "tol": tol,
    }


def _run_wsimilar(job, tol, seed, trials):
    T = _want(job, "T", "wsimilar")
    forms = factor.wsimilar_forms(T, tol=tol)
    out = {
        name: payload_to_json(getattr(forms, name))
        for name in ("X", "S", "X1", "B1", "X2", "B2", "W", "Z")
    }
    out["plusdot_ok"] = forms.plusdot_ok
    out["checks"] = {k: _num(v) for k, v in forms.checks.items()}
    return out


def _run_intertwine(job, tol, seed, trials):
    op = job.get("op", "sylvester")
    T = _want(job, "T", "intertwine")
    S = _want(job, "S", "intertwine")
    if op == "sylvester":
        inter = sylvester_intertwiners(T, S, tol=tol)
        return {
            "dimension": inter.dimension,
            "rank": inter.rank,
            "max_rank_element": payload_to_json(inter.max_rank_element),
        }
    if op == "quasiaffine":
        qa = factor.quasiaffine_decide(T, S, tol=tol)
        return {"affine": qa.affine, "G": _maybe(qa.G), "space_dim": qa.space_dim}
    if op == "quasisimilar":
        qs = factor.quasisimilar_decide(T, S, tol=tol)
        return {
            "similar_pair": qs.similar_pair,
            "G1": _maybe(qs.G1),
            "G2": _maybe(qs.G2),
            "checks": {k: _num(v) for k, v in qs.checks.items()},
        }
    raise ParseError(f"intertwine: unknown op {op!r}")


def _run_factor(job, tol, seed, trials):
    op = job.get("op")
    if op == "douglas":
        sol = factor.douglas_solve(_want(job, "T", op), _want(job, "B", op), tol=tol)
        return {"feasible": sol.feasible, "Y": _maybe(sol.Y), "c": _num(sol.c)}
    if op == "ldeux":
        hint = _want(job, "Y_hint", op) if "Y_hint" in job else None
        cert = factor.ldeux_certify(_want(job, "T", op), Y_hint=hint, tol=tol)
        return {
            "in_class": cert.in_class,
            "A": _maybe(cert.A),
            "B": _maybe(cert.B),
            "Y": _maybe(cert.Y),
            "residual": {"value": _num(cert.residual), "tol": tol},
        }
    if op == "psd_similarity":
        sim = factor.psd_similarity_decide(_want(job, "T", op), tol=tol)
        return {"accept": sim.accept, "G": _maybe(sim.G), "S": _maybe(sim.S)}
    if op == "presimilar":
        S, match = factor.presimilar_S(_want(job, "A", op), _want(job, "B", op), tol=tol)
        return {"S": payload_to_json(S), "spectra_match": match, "tol": tol}
    if op == "spectra_swap":
        flag = factor.spectra_swap_check(_want(job, "A", op), _want(job, "B", op), tol=tol)
        return {"swap_ok": flag, "tol": tol}
    if op == "power_chain":
        chain = factor.power_chain(
            _want(job, "A", op),
            _want(job, "B", op),
            n_max=_count(job.get("n_max", 4), "job 'n_max'"),
            tol=tol,
        )
        return {
            "levels": len(chain.S_seq),
            "S_seq": [payload_to_json(S) for S in chain.S_seq],
            "residuals": [{"value": r, "tol": tol} for r in chain.residuals],
            "psd_margins": chain.psd_margins,
        }
    if op in ("inclusionnfs", "tba", "bounded_s"):
        # an intertwiner G of T (inclusionnfs: of T*) with a target S = S* >= 0
        T, G, S = (_want(job, key, op) for key in ("T", "G", "S"))
        if op == "bounded_s":
            rep = factor.bounded_S_checks(T, G, S, tol=tol)
            return {
                "all_passed": rep.all_passed,
                "items": [
                    {"name": it.name, "residual": it.residual, "tol": it.tol, "passed": it.passed}
                    for it in rep.items
                ],
            }
        package = factor.inclusionnfs_package if op == "inclusionnfs" else factor.tba_package
        pkg = package(T, G, S, tol=tol)
        diag = {k: payload_to_json(v) if isinstance(v, np.ndarray) else _num(v) for k, v in pkg.diagnostics.items()}
        return {
            "direction": pkg.direction,
            "A": payload_to_json(pkg.A),
            "B_F": _maybe(pkg.B_F),
            "A_F": _maybe(pkg.A_F),
            "diagnostics": diag,
        }
    raise ParseError(f"factor: unknown op {op!r}")


def _run_rel(job, tol, seed, trials):
    op = job.get("op")
    if op in ("adjoint", "inverse", "sqrt", "moore_penrose", "parts", "classify"):
        T = as_relation(_want(job, "T", f"rel.{op}", _OPERAND))
        if op == "adjoint":
            return {"result": payload_to_json(rel_adjoint(T))}
        if op == "inverse":
            return {"result": payload_to_json(rel_inverse(T))}
        if op == "sqrt":
            return {"result": payload_to_json(rel_sqrt(T, tol=tol))}
        if op == "moore_penrose":
            return {"result": payload_to_json(rel_moore_penrose(T))}
        if op == "classify":
            flags = rel_classify(T, tol=tol)
            return {
                "symmetric": flags.symmetric,
                "nonnegative": flags.nonnegative,
                "selfadjoint": flags.selfadjoint,
            }
        parts = rel_parts(T)
        return {
            "dom_dim": parts.dom.dim,
            "ran_dim": parts.ran.dim,
            "ker_dim": parts.ker.dim,
            "mul_dim": parts.mul.dim,
            "operator_part": payload_to_json(parts.operator_part_matrix),
        }
    if op == "compose":
        S = as_relation(_want(job, "S", "rel.compose", _OPERAND))
        T = as_relation(_want(job, "T", "rel.compose", _OPERAND))
        return {"result": payload_to_json(rel_compose(S, T))}
    if op == "restrict":
        B = as_relation(_want(job, "B", "rel.restrict", _OPERAND))
        D = _want(job, "D", "rel.restrict")
        return {"result": payload_to_json(rel_restrict(B, span(D, ambient_dim=B.dom_dim)))}
    if op == "order_leq":
        lo = as_relation(_want(job, "Tlo", "rel.order_leq", _OPERAND))
        hi = as_relation(_want(job, "Thi", "rel.order_leq", _OPERAND))
        return {"leq": rel_order_leq(lo, hi, tol=tol), "tol": tol}
    raise ParseError(f"rel: unknown op {op!r}")


def _run_diag(job, tol, seed, trials):
    op = job.get("op")
    if op in ("seb", "reverse", "compose", "order_leq"):
        t = _want(job, "t", f"diag.{op}", DiagRel)
        b = _want(job, "b", f"diag.{op}", DiagRel)
        if op == "seb":
            res = diag_seb_solve(t, b, tol)
            return {
                "feasible": res.feasible,
                "lambda_star": _num(res.lambda_star),
                "X": _maybe(res.X),
                "checks": res.checks,
            }
        if op == "reverse":
            res = diag_reverse_solve(t, b, tol)
            return {
                "feasible": res.feasible,
                "eta_star": _num(res.eta_star),
                "Y": _maybe(res.Y),
                "checks": res.checks,
            }
        if op == "compose":
            return {"result": payload_to_json(diag_compose(t, b))}
        return {"leq": diag_order_leq(t, b)}
    if op in ("adjoint", "inverse"):
        t = _want(job, "t", f"diag.{op}", DiagRel)
        out = diag_adjoint(t) if op == "adjoint" else diag_inverse(t)
        return {"result": payload_to_json(out)}
    if op == "truncate":
        t = _want(job, "t", "diag.truncate", DiagRel)
        N = _count(job.get("N", 10), "job 'N'", least=t.symbol.head_len)
        out = diag_truncate(t, N)
        return {"result": payload_to_json(out)}
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


def build_parser():
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
