"""Wire formats and the batch front-end: round trips, exit codes, determinism."""

import copy
import gc
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import types
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdfactor import cli, factor, proptests, serialize
from psdfactor.diagmodel import INF, DiagRel, DiagSymbol
from psdfactor.errors import ParseError
from psdfactor.linrel import rel_distance, rel_from_graph, rel_from_matrix
from psdfactor.proptests import random_relation

from oracles import dumps_report_reference, matrix_from_json_reference


def run_cli(args, stdin=None):
    # A PSDFACTOR_TOL set in the calling shell would change the tolerance under test.
    env = {k: v for k, v in os.environ.items() if k != "PSDFACTOR_TOL"}
    proc = subprocess.run(
        [sys.executable, "-m", "psdfactor.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
    )
    return proc


def strip_timing(report):
    report = dict(report)
    report.pop("wall_clock_s", None)
    return report


def test_matrix_round_trip_spec_example():
    obj = serialize.matrix_to_json(np.eye(2))
    assert obj == {"rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}
    back = serialize.matrix_from_json(obj)
    assert np.array_equal(back, np.eye(2))


def test_symbol_round_trip_spec_example():
    obj = serialize.symbol_to_json(DiagRel.from_tail(1, 1))
    assert obj == {"head": [], "tail": {"coeff": [1.0, 0.0], "power": "1"}}
    back = serialize.symbol_from_json(obj)
    assert back.symbol == DiagSymbol(head=(), tail_coeff=1, tail_power=Fraction(1))
    headed = DiagRel.from_head([INF, 2.5 + 1j], tail_coeff=0.5, tail_power=Fraction(-1, 2))
    assert serialize.symbol_from_json(serialize.symbol_to_json(headed)).symbol == headed.symbol


def test_relation_round_trip_exact():
    rng = np.random.default_rng(0)
    for _ in range(10):
        R = random_relation(rng, 3, 2)
        back = serialize.relation_from_json(serialize.relation_to_json(R))
        assert (back.dom_dim, back.codom_dim) == (R.dom_dim, R.codom_dim)
        assert np.array_equal(back.graph.basis, R.graph.basis)


def test_matrix_round_trip_value_exact():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    text = json.dumps(serialize.matrix_to_json(M))
    back = serialize.matrix_from_json(json.loads(text))
    assert np.array_equal(M, back)
    # signed zeros survive both ways; re + 1j*im would turn an imaginary -0.0 into +0.0
    Z = np.array([[-0.0, -0.0], [0.0, -0.0], [-0.0, 1.0]]).view(np.complex128)
    text = json.dumps(serialize.matrix_to_json(Z))
    assert text == '{"rows": 3, "cols": 1, "data": [[-0.0, -0.0], [0.0, -0.0], [-0.0, 1.0]]}'
    back = serialize.matrix_from_json(json.loads(text))
    assert np.array_equal(np.signbit(back.real), np.signbit(Z.real))
    assert np.array_equal(np.signbit(back.imag), np.signbit(Z.imag))
    assert json.dumps(serialize.matrix_to_json(back)) == text
    # a matrix with no nonzero imaginary part is real: every imaginary part prints as 0.0
    R = np.array([[-0.0, -0.0], [1.5, -0.0], [-2.0, 0.0]]).view(np.complex128)
    assert json.dumps(serialize.matrix_to_json(R)["data"]) == "[[-0.0, 0.0], [1.5, 0.0], [-2.0, 0.0]]"
    # and parses as float64, from pairs or bare numbers; a relation keeps its real basis
    for data in ([1.0, 2.0], [[1.0, 0.0], [2.0, -0.0]], [1, [2.0, 0.0]]):
        back = serialize.matrix_from_json({"rows": 1, "cols": 2, "data": data})
        assert back.dtype == np.float64 and np.array_equal(back, [[1.0, 2.0]]), data
    assert serialize.matrix_from_json({"rows": 1, "cols": 1, "data": [[1.0, 1e-300]]}).dtype == np.complex128
    rel = serialize.relation_from_json(serialize.relation_to_json(rel_from_matrix(R.real)))
    assert rel.graph.basis.dtype == np.float64


_FINITE_ENTRIES = (
    0.0, -0.0, 1.5, -2.25, 5e-324, -1.7976931348623157e308, 0, -7, True, False,
    2**53 + 1, 2**63 - 1, 2**63, 2**63 + 1, -(2**63), -(2**63) - 1,
    2**64 - 1, 2**64, 2**64 + 1,
)
_HOSTILE_ENTRIES = (
    10**400, -(10**400), math.nan, math.inf, -math.inf, "1.5", None, {"re": 1.0},
    [], [1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]], [1.0, [2.0]], [None, 1.0], ["1", 0],
    [math.nan, 0.0], [0.0, -math.inf], [10**400, 0], [True, 2**64 + 1],
    "12", {"re": 1.0, "im": 0.0}, ["1", "2"],
)


def _random_entry(rng, form):
    def number():
        if rng.random() < 0.5:
            return rng.choice(_FINITE_ENTRIES)
        return rng.gauss(0.0, 10.0 ** rng.randint(-5, 5))

    if form == "mixed":
        form = rng.choice(("pairs", "bare"))
    return [number(), number()] if form == "pairs" else number()


def _random_matrix_job(rng):
    rows, cols = rng.randint(0, 4), rng.randint(0, 4)
    form = rng.choice(("pairs", "pairs", "bare", "mixed"))
    data = [_random_entry(rng, form) for _ in range(rows * cols)]
    if data and rng.random() < 0.3:
        data[rng.randrange(len(data))] = rng.choice(_HOSTILE_ENTRIES)
    if rng.random() < 0.1:
        data = data[:-1] if data and rng.random() < 0.5 else data + [_random_entry(rng, form)]
    return {"rows": rows, "cols": cols, "data": data}


def _parse_outcome(parse, obj):
    try:
        M = parse(obj)
    except ParseError as exc:
        return "ParseError", str(exc)
    return M.dtype, M.shape, M.tobytes()


def test_matrix_from_json_matches_reference():
    # the array path must give the per-entry parser's bytes, or its exact error
    cases = [{"rows": 0, "cols": 3, "data": []}, {"rows": 0, "cols": 0, "data": [[1.0, 0.0]]}]
    for entry in _FINITE_ENTRIES + _HOSTILE_ENTRIES:
        cases += [{"rows": 1, "cols": 2, "data": [entry, [1.0, 0.0]]},
                  {"rows": 2, "cols": 1, "data": [[entry, -0.0], 2.5]},
                  {"rows": 2, "cols": 1, "data": [[entry, 2**64 - 1], [2**63 + 1, entry]]},
                  {"rows": 1, "cols": 1, "data": [entry]}]
    rng = random.Random(13)
    cases += [_random_matrix_job(rng) for _ in range(4000)]
    refused = 0
    for obj in cases:
        expected = _parse_outcome(matrix_from_json_reference, obj)
        assert _parse_outcome(serialize.matrix_from_json, obj) == expected, obj
        refused += expected[0] == "ParseError"
    assert 0.2 < refused / len(cases) < 0.6, refused


def test_cli_matrices_move_a_whole_array_at_a_time(tmp_path, monkeypatch):
    # a well-formed job and its report pass no matrix entry through the scalar codec,
    # and none through json: orjson parses the job, json writes only the report's frame
    rng = np.random.default_rng(64)
    A = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    B = A @ A.conj().T + np.eye(64)
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"T": serialize.matrix_to_json(B), "B": serialize.matrix_to_json(B)}))
    calls = {"complex_from_json": 0, "complex_to_json": 0}
    for name in calls:
        def counted(*args, _name=name, _codec=getattr(serialize, name), **kwargs):
            calls[_name] += 1
            return _codec(*args, **kwargs)
        monkeypatch.setattr(serialize, name, counted)
    frames = []

    def frame_dumps(*args, **kwargs):
        frames.append(json.dumps(*args, **kwargs))
        return frames[-1]

    monkeypatch.setattr(serialize, "json", types.SimpleNamespace(dumps=frame_dumps))
    out = tmp_path / "report.json"
    assert cli.main(["seb", "--in", str(job), "--out", str(out)]) == 0
    assert calls == {"complex_from_json": 0, "complex_to_json": 0}
    text = out.read_text()
    assert len(frames) == 1 and len(frames[0]) < 1000 < len(text), frames
    X = serialize.matrix_from_json(json.loads(text)["results"]["X"])
    assert X.shape == (64, 64)


def test_parse_errors():
    with pytest.raises(ParseError):
        serialize.loads("{not json")
    with pytest.raises(ParseError):
        serialize.matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})
    with pytest.raises(ParseError):
        serialize.payload_from_json({"bogus": 1})
    with pytest.raises(ParseError):
        serialize.payload_from_json("no_such_symbol")


def test_cli_seb_trivial(tmp_path):
    job = tmp_path / "job.json"
    job.write_text(
        json.dumps(
            {
                "T": serialize.matrix_to_json(np.eye(2)),
                "B": serialize.matrix_to_json(2 * np.eye(2)),
            }
        )
    )
    proc = run_cli(["seb", "--in", str(job)])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["results"]["feasible"] is True
    assert abs(report["results"]["lambda_star"] - 0.5) <= 1e-12


def test_cli_reads_stdin():
    payload = json.dumps(
        {
            "T": serialize.matrix_to_json(np.eye(2)),
            "B": serialize.matrix_to_json(np.eye(2)),
        }
    )
    proc = run_cli(["seb", "--in", "-"], stdin=payload)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["feasible"] is True


def test_cli_diag_named_symbols():
    payload = json.dumps({"op": "seb", "t": "sqrt_n", "b": "n"})
    proc = run_cli(["diag", "--in", "-"], stdin=payload)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert abs(report["results"]["lambda_star"] - 1.0) <= 1e-12


def test_cli_exit_codes():
    # hypothesis failure -> 2
    bad = json.dumps(
        {
            "T": serialize.matrix_to_json(np.array([[0.0, 1.0], [0.0, 0.0]])),
            "B": serialize.matrix_to_json(np.eye(2)),
        }
    )
    proc = run_cli(["seb", "--in", "-"], stdin=bad)
    assert proc.returncode == 2
    # malformed input -> 3
    proc = run_cli(["seb", "--in", "-"], stdin="{broken")
    assert proc.returncode == 3
    proc = run_cli(["seb", "--in", "-"], stdin=json.dumps({"T": {"rows": 1}}))
    assert proc.returncode == 3
    # infeasible still completes -> 0
    infeasible = json.dumps(
        {
            "T": serialize.matrix_to_json(np.diag([1.0, 1.0])),
            "B": serialize.matrix_to_json(np.diag([1.0, 0.0])),
        }
    )
    proc = run_cli(["seb", "--in", "-"], stdin=infeasible)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["feasible"] is False


def test_cli_env_tolerance(tmp_path, monkeypatch):
    job = {"T": serialize.matrix_to_json(np.eye(2)), "B": serialize.matrix_to_json(np.eye(2))}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    monkeypatch.setenv("PSDFACTOR_TOL", "1e-6")
    proc = subprocess.run(
        [sys.executable, "-m", "psdfactor.cli", "seb", "--in", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["tol"] == 1e-6


def identity_job(tmp_path, **extra):
    job = {"T": serialize.matrix_to_json(np.eye(1)), "B": serialize.matrix_to_json(np.eye(1))}
    path = tmp_path / "job.json"
    path.write_text(json.dumps({**job, **extra}))
    return str(path)


@pytest.mark.parametrize(
    "env, flags, extra",
    [
        pytest.param("abc", [], {}, id="env-tol-abc"),
        pytest.param("nan", [], {}, id="env-tol-nan"),
        pytest.param("-1", [], {}, id="env-tol-negative"),
        pytest.param(None, [], {"tol": "abc"}, id="job-tol-abc"),
        pytest.param(None, [], {"tol": float("nan")}, id="job-tol-nan"),
        pytest.param(None, [], {"tol": -1}, id="job-tol-negative"),
        pytest.param(None, [], {"tol": True}, id="job-tol-bool"),
        pytest.param(None, ["--tol", "abc"], {}, id="flag-tol-abc"),
        pytest.param(None, ["--tol", "nan"], {}, id="flag-tol-nan"),
        pytest.param(None, ["--tol", "-1"], {}, id="flag-tol-negative"),
        pytest.param(None, ["--tol", "inf"], {}, id="flag-tol-inf"),
        pytest.param(None, [], {"seed": "x"}, id="job-seed-x"),
        pytest.param(None, [], {"seed": 1.5}, id="job-seed-fraction"),
        pytest.param(None, [], {"trials": "x"}, id="job-trials-x"),
        pytest.param(None, [], {"trials": -1}, id="job-trials-negative"),
        pytest.param(None, ["--seed", "x"], {}, id="flag-seed-x"),
        pytest.param(None, ["--trials", "-1"], {}, id="flag-trials-negative"),
        pytest.param(None, ["--threads", "1"], {}, id="unknown-threads-one"),  # valid until --threads went
        pytest.param(None, ["--threads", "abc"], {}, id="unknown-threads-abc"),
        pytest.param(None, ["--threads", "0"], {}, id="unknown-threads-zero"),
        pytest.param(None, ["--threads", "-2"], {}, id="unknown-threads-negative"),
        pytest.param(None, ["--threads", "1.5"], {}, id="unknown-threads-fraction"),
    ],
)
def test_cli_malformed_settings_exit_3(tmp_path, monkeypatch, capsys, env, flags, extra):
    # Each of these used to end in a traceback, a NaN in the report or a wrong exit 2.
    if env is None:
        monkeypatch.delenv("PSDFACTOR_TOL", raising=False)
    else:
        monkeypatch.setenv("PSDFACTOR_TOL", env)
    code = cli.main(["seb", "--in", identity_job(tmp_path, **extra), *flags])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("psdfactor: parse error: ") and err.count("\n") == 1


def _nan_matrix():
    return {"rows": 1, "cols": 1, "data": [float("nan")]}


_ONE = serialize.matrix_to_json(np.eye(1))
_SYM = {"head": [[1.0, 0.0], [2.0, 0.0]]}  # head length 2


@pytest.mark.parametrize(
    "command, job",
    [
        pytest.param("seb", {"T": _nan_matrix(), "B": _nan_matrix()}, id="seb-data-nan"),
        pytest.param("seb", {"T": {"rows": 1, "cols": 1, "data": [[1.0, float("inf")]]}, "B": _ONE}, id="seb-data-infinity"),
        pytest.param("seb", {"T": {"rows": 1, "cols": 1, "data": [10**400]}, "B": _ONE}, id="seb-data-overflow"),
        pytest.param("rel", {"op": "adjoint", "T": {"n": 1, "m": 1, "graph_basis": {"rows": 2, "cols": 1, "data": [float("nan"), 1.0]}}}, id="rel-basis-nan"),
        pytest.param("factor", {"op": "power_chain", "A": _ONE, "B": _ONE, "n_max": "abc"}, id="power-chain-n_max-abc"),
        pytest.param("factor", {"op": "power_chain", "A": _ONE, "B": _ONE, "n_max": 1.5}, id="power-chain-n_max-fraction"),
        pytest.param("diag", {"op": "truncate", "t": _SYM, "N": -3}, id="truncate-N-negative"),
        pytest.param("diag", {"op": "truncate", "t": _SYM, "N": 1}, id="truncate-N-below-head"),
        pytest.param("diag", {"op": "truncate", "t": _ONE}, id="truncate-matrix"),
    ],
)
def test_cli_malformed_job_exit_3(tmp_path, capsys, command, job):
    # Each of these used to end in a Python traceback with exit 1.
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code = cli.main([command, "--in", str(path)])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("psdfactor: parse error: ") and err.count("\n") == 1


_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "command, text, named",
    [
        pytest.param("seb", _DEEP, None, id="whole-job"),
        pytest.param("seb", json.dumps({"T": {"rows": 1, "cols": 1, "data": "*"}, "B": _ONE}).replace('"*"', _DEEP),
                     None, id="matrix-data"),
        pytest.param("proptest", json.dumps({"suite": "seb_roundtrip", "seed": 2**100}), "seed", id="seed-beyond-64-bits"),
        pytest.param("proptest", json.dumps({"suite": "seb_roundtrip", "trials": 2**100}), "trials",
                     id="trials-beyond-64-bits"),
        pytest.param("diag", json.dumps({"op": "truncate", "t": "n", "N": 2**100}), "N", id="N-beyond-64-bits"),
    ],
)
def test_cli_unreadable_job_text_exit_3(tmp_path, capsys, command, text, named):
    # Deep nesting used to end in a RecursionError traceback (exit 1); an integer beyond
    # 64 bits, which orjson reads as a rounded float, must not run rounded.
    path = tmp_path / "job.json"
    path.write_text(text)
    code = cli.main([command, "--in", str(path)])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("psdfactor: parse error: ") and err.count("\n") == 1
    assert named is None or err.startswith(f"psdfactor: parse error: job '{named}': "), err


def test_cli_64_bit_seed_stays_exact(monkeypatch, capsys):
    # orjson keeps integers up to 2**64 - 1 exact, as json did
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"suite": "seb_roundtrip", "seed": 2**64 - 1})))
    assert cli.main(["proptest", "--in", "-", "--trials", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 2**64 - 1


@pytest.mark.parametrize(
    "argv",
    [["seb", "--bogus"], ["nosuch"], [], ["seb", "--tol"]],
    ids=["unknown-option", "unknown-command", "no-command", "option-without-value"],
)
def test_cli_malformed_command_line_exit_3(capsys, argv):
    # argparse exited 2, the code of a failed hypothesis gate, with a usage message
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("psdfactor: parse error: command line: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_cli_help_and_version_exit_0(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main([flag])
    assert exc.value.code == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("head", [[], ["inf"]], ids=["matrix", "relation"])
def test_cli_truncation_past_memory_exits_at_once(monkeypatch, capsys, head):
    # the N values were listed in a Python loop before any array existed, which ran
    # past 20 s at N = 2**63 - 1; the result is now allocated first
    t = {"head": head, "tail": {"coeff": [1.0, 0.0], "power": "1"}}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"op": "truncate", "t": t, "N": 2**63 - 1})))
    started = time.monotonic()
    code = cli.main(["diag", "--in", "-"])
    assert time.monotonic() - started < 2.0
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("psdfactor: cannot finish the job: ") and err.count("\n") == 1


_ZERO_TAIL = {"head": [], "tail": {"coeff": [0.0, 0.0], "power": "1"}}
_EMPTY = serialize.matrix_to_json(np.zeros((0, 0)))


def _svd_does_not_converge(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


@pytest.mark.parametrize(
    "command, job, patch, error",
    [
        pytest.param(
            "factor",
            {"op": "power_chain", "A": serialize.matrix_to_json(np.diag([2.0, 3.0])),
             "B": serialize.matrix_to_json(np.diag([1.0, 2.0])), "n_max": 12},
            None, "NoConvergence", id="power-chain-overflow",
        ),
        pytest.param("diag", {"op": "inverse", "t": _ZERO_TAIL}, None, "UnrepresentableSymbol", id="diag-inverse-zero-tail"),
        pytest.param(
            "diag", {"op": "reverse", "t": _ZERO_TAIL, "b": _ZERO_TAIL}, None, "UnrepresentableSymbol",
            id="diag-reverse-zero-tails",
        ),
        # x = t/b = 1e600 was reported feasible with lambda* "inf" and X's head written Infinity
        pytest.param(
            "diag", {"op": "seb", "t": {"head": [[1e300, 0.0]]}, "b": {"head": [[1e-300, 0.0]]}}, None,
            "OverflowError", id="diag-seb-overflow",
        ),
        pytest.param(
            "factor", {"op": "douglas", "T": _ONE, "B": _ONE}, _svd_does_not_converge, "LinAlgError",
            id="lapack-svd-no-convergence",
        ),
        *[
            pytest.param(command, {"op": op, "T": _EMPTY, "G": _EMPTY, "S": _EMPTY}, None, "ValueError", id=f"{op}-empty")
            for command, op in (
                ("intertwine", "quasiaffine"),
                ("intertwine", "quasisimilar"),
                ("factor", "inclusionnfs"),
                ("factor", "tba"),
                ("factor", "bounded_s"),
                ("factor", "psd_similarity"),
                ("factor", "ldeux"),
                ("intertwine", "sylvester"),
                ("wsimilar", "wsimilar"),
            )
        ],
    ],
)
def test_cli_unfinishable_job_exit_3(tmp_path, monkeypatch, capsys, command, job, patch, error):
    # Each of these used to exit 1, by a traceback or through a catch-all branch;
    # of the empty jobs, the deciders exited 3 through LAPACK's empty-array error,
    # and the jobs that take a spectrum stop at spectrum's empty-matrix check.
    if patch is not None:
        monkeypatch.setattr(np.linalg, "svd", patch)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code = cli.main([command, "--in", str(path)])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith(f"psdfactor: cannot finish the job: {error}: ") and err.count("\n") == 1


def test_cli_memory_error_exit_3(tmp_path, monkeypatch, capsys):
    # a job too large for memory (the Kronecker fallback at n ~ 150 needs 8 GB) ends
    # with one line, not a traceback; the engine is stubbed, nothing large is allocated
    message = "Unable to allocate 7.63 GiB for an array with shape (32000, 32000)"

    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "sylvester_intertwiners", out_of_memory)
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"op": "sylvester", "T": _ONE, "S": _ONE}))
    code = cli.main(["intertwine", "--in", str(path)])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == f"psdfactor: cannot finish the job: MemoryError: {message}\n"


def test_cli_proptest_keeps_the_floating_point_rules(monkeypatch, capsys):
    # a campaign's trials run under the job's np.errstate: an overflow ends the job
    # (exit 3, one line) rather than reaching the report as inf
    def overflowing_trial(rng, tol):
        return {"value": float(np.float64(1e308) * 10.0), "ok": True}

    monkeypatch.setitem(proptests.SUITES, "overflow", overflowing_trial)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"suite": "overflow"})))
    code = cli.main(["proptest", "--in", "-", "--trials", "3"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("psdfactor: cannot finish the job: FloatingPointError: ")
    assert err.count("\n") == 1, err


def test_cli_wall_clock_covers_reading_the_job(tmp_path, monkeypatch, capsys):
    # A fake clock that only reading and parsing the job advances: the report must show it.
    now = [100.0]
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(monotonic=lambda: now[0]))
    real_loads = cli.loads

    def slow_loads(text):
        now[0] += 2.5
        return real_loads(text)

    monkeypatch.setattr(cli, "loads", slow_loads)
    code = cli.main(["seb", "--in", identity_job(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert json.loads(out)["wall_clock_s"] == 2.5


@pytest.mark.parametrize(
    "flags, extra, expected",
    [
        pytest.param(["--tol", "1e-7"], {"tol": 1e-5}, 1e-7, id="flag-wins"),
        pytest.param([], {"tol": 1e-5}, 1e-5, id="job-beats-env"),
        pytest.param([], {}, 1e-6, id="env"),
        pytest.param(["--tol", "0"], {}, 0.0, id="zero"),
    ],
)
def test_cli_tolerance_precedence(tmp_path, monkeypatch, capsys, flags, extra, expected):
    # --tol beats the job's "tol", which beats PSDFACTOR_TOL; zero is a valid tolerance.
    monkeypatch.setenv("PSDFACTOR_TOL", "1e-6")
    code = cli.main(["seb", "--in", identity_job(tmp_path, **extra), *flags])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert json.loads(out)["tol"] == expected


def test_cli_proptest_determinism_and_threads():
    # three runs of one campaign are byte-identical; through ``python -m`` too,
    # where sys.exit carries main's code, --threads is an unknown option (exit 3)
    job = json.dumps({"suite": "seb_roundtrip"})
    runs = []
    for _ in range(3):
        proc = run_cli(["proptest", "--in", "-", "--trials", "16", "--seed", "42"], stdin=job)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.dumps(strip_timing(json.loads(proc.stdout)), sort_keys=True))
    assert runs[0] == runs[1] == runs[2]
    report = json.loads(runs[0])
    assert report["results"]["all_ok"]
    proc = run_cli(["proptest", "--in", "-", "--threads", "1"], stdin=job)
    assert proc.returncode == 3 and proc.stdout == "" and proc.stderr.count("\n") == 1, proc.stderr


def test_run_job_in_process_determinism():
    job = {
        "T": serialize.matrix_to_json(np.eye(3)),
        "B": serialize.matrix_to_json(np.diag([1.0, 2.0, 3.0])),
    }
    a = strip_timing(cli.run_job("seb", job, tol=1e-8, seed=0, trials=1))
    b = strip_timing(cli.run_job("seb", job, tol=1e-8, seed=0, trials=1))
    assert serialize.dumps_report(a) == serialize.dumps_report(b)


def test_cli_rel_and_intertwine_commands():
    rel_job = json.dumps(
        {"op": "compose", "S": serialize.matrix_to_json(np.diag([2.0, 1.0])),
         "T": serialize.matrix_to_json(np.diag([1.0, 3.0]))}
    )
    proc = run_cli(["rel", "--in", "-"], stdin=rel_job)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)["results"]["result"]
    back = serialize.relation_from_json(out)
    assert rel_distance(back, rel_from_matrix(np.diag([2.0, 3.0]))) <= 1e-12

    int_job = json.dumps(
        {"op": "sylvester", "T": serialize.matrix_to_json(np.diag([1.0, 2.0])),
         "S": serialize.matrix_to_json(np.diag([1.0, 2.0]))}
    )
    proc = run_cli(["intertwine", "--in", "-"], stdin=int_job)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["dimension"] == 2


def test_cli_wsimilar_and_factor_commands():
    w_job = json.dumps({"T": serialize.matrix_to_json(np.diag([1.0, 2.0]))})
    proc = run_cli(["wsimilar", "--in", "-"], stdin=w_job)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["plusdot_ok"] is True

    f_job = json.dumps(
        {"op": "douglas", "T": serialize.matrix_to_json(np.eye(2)),
         "B": serialize.matrix_to_json(np.eye(2))}
    )
    proc = run_cli(["factor", "--in", "-"], stdin=f_job)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["feasible"] is True


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


_P = serialize.matrix_to_json(np.diag([2.0, 1.0]))
_Q = serialize.matrix_to_json(np.diag([3.0, 1.0]))
# the nonnegative selfadjoint relation diag(1, inf): graph {(e1, e1), (0, e2)}
_R = serialize.relation_to_json(rel_from_graph(np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), 2, 2))


@pytest.mark.parametrize(
    "job",
    [
        pytest.param({"op": "adjoint", "T": _R}, id="adjoint"),
        pytest.param({"op": "inverse", "T": _P}, id="inverse"),
        pytest.param({"op": "sqrt", "T": _R}, id="sqrt"),
        pytest.param({"op": "moore_penrose", "T": serialize.matrix_to_json(np.diag([2.0, 0.0]))}, id="moore_penrose"),
        pytest.param({"op": "classify", "T": _R}, id="classify"),
        pytest.param({"op": "parts", "T": _R}, id="parts"),
        pytest.param({"op": "compose", "S": _P, "T": _R}, id="compose"),
        pytest.param({"op": "restrict", "B": _P, "D": serialize.matrix_to_json(np.array([[1.0], [0.0]]))}, id="restrict"),
        pytest.param({"op": "order_leq", "Tlo": _P, "Thi": _Q}, id="order_leq"),
        pytest.param({"op": "order_leq", "Tlo": _Q, "Thi": _R}, id="order_leq-relation"),
    ],
)
def test_cli_rel_ops_strict_json(tmp_path, capsys, job):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code = cli.main(["rel", "--in", str(path)])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert _strict_json(out)["results"]


_NEAR_HERMITIAN = np.diag([1.0, 2.0])
_NEAR_HERMITIAN[0, 1] = 1e-6
# t(1) = 1 - 1e-9 i against b = 1: conj(t) b is nonnegative at tol 1e-4
_NEAR_REAL = {"head": [[1.0, 1e-9]], "tail": {"coeff": [1, 0], "power": "0"}}


@pytest.mark.parametrize(
    "command, job",
    [
        pytest.param("rel", {"op": "classify", "T": serialize.matrix_to_json(_NEAR_HERMITIAN)}, id="classify"),
        pytest.param("rel", {"op": "sqrt", "T": serialize.matrix_to_json(_NEAR_HERMITIAN)}, id="sqrt"),
        pytest.param("diag", {"op": "seb", "t": _NEAR_REAL, "b": "one"}, id="diag-seb"),
        pytest.param("diag", {"op": "reverse", "t": _NEAR_REAL, "b": "one"}, id="diag-reverse"),
        pytest.param(
            "intertwine",
            {"op": "quasiaffine", "T": serialize.matrix_to_json(_NEAR_HERMITIAN), "S": serialize.matrix_to_json(_NEAR_HERMITIAN)},
            id="quasiaffine",
        ),
    ],
)
def test_cli_rel_gates_at_the_job_tolerance(tmp_path, capsys, command, job):
    # diag(1, 2) with 1e-6 at (0, 1) is nonnegative selfadjoint at tol 1e-4;
    # rel sqrt used to gate at the tolerance stored on the relation (1e-8) and
    # the diag engines at their own fixed 1e-12, and all three exited 2; the
    # quasi-affinity target passes the same PSD gate at the job tolerance
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code = cli.main([command, "--in", str(path), "--tol", "1e-4"])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert json.loads(out)["results"]


# ------------------------------------------------------------- the exit-code contract

_M2 = serialize.matrix_to_json(np.diag([2.0, 1.0]))
_M3 = serialize.matrix_to_json(np.diag([3.0, 1.0]))
_I2 = serialize.matrix_to_json(np.eye(2))
_HEAD = {"head": [[1.0, 0.0], "inf"], "tail": {"coeff": [1.0, 0.0], "power": "1"}}

_N3 = serialize.matrix_to_json(np.diag([3.0, 2.0, 1.0]))


@pytest.mark.parametrize(
    "job",
    [
        pytest.param({"op": "power_chain", "A": _M2, "B": _N3}, id="power_chain"),
        pytest.param({"op": "ldeux", "T": _M2, "Y_hint": _N3}, id="ldeux"),
        pytest.param({"op": "spectra_swap", "A": _M2, "B": _N3}, id="spectra_swap"),
        pytest.param({"op": "presimilar", "A": _M2, "B": _N3}, id="presimilar"),
        pytest.param({"op": "inclusionnfs", "T": _M2, "G": _N3, "S": _M2}, id="inclusionnfs"),
        pytest.param({"op": "tba", "T": _M2, "G": _N3, "S": _M2}, id="tba"),
        pytest.param({"op": "bounded_s", "T": _M2, "G": _N3, "S": _M2}, id="bounded_s"),
    ],
)
def test_cli_mismatched_shapes_exit_2(tmp_path, capsys, job):
    # Operands of different sizes are a NotSquare hypothesis failure, as for seb and
    # douglas; these seven used to exit 3 through numpy's matmul ValueError.
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code = cli.main(["factor", "--in", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("psdfactor: hypothesis failure: NotSquare: ") and err.count("\n") == 1


def _gate_jobs(S):
    """The five ops whose target must be S = S* >= 0, each on an intertwining (T, G = I, S)."""
    S_json, St_json = serialize.matrix_to_json(S), serialize.matrix_to_json(S.T)
    return [
        ("intertwine", {"op": "quasiaffine", "T": S_json, "S": S_json}),
        ("intertwine", {"op": "quasisimilar", "T": S_json, "S": S_json}),
        ("factor", {"op": "inclusionnfs", "T": St_json, "G": _I2, "S": S_json}),
        ("factor", {"op": "tba", "T": S_json, "G": _I2, "S": S_json}),
        ("factor", {"op": "bounded_s", "T": S_json, "G": _I2, "S": S_json}),
    ]


@pytest.mark.parametrize(
    "command, job",
    [
        pytest.param(command, job, id=f"{job['op']}-{kind}")
        for kind, S in (("indefinite", np.diag([-1.0, 2.0])), ("nonnormal", np.array([[1.0, 1.0], [0.0, 2.0]])))
        for command, job in _gate_jobs(S)
    ],
)
def test_cli_psd_target_gate_exit_2(tmp_path, capsys, command, job):
    # quasi-affinity targets are S = S* >= 0; these jobs used to exit 0
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code = cli.main([command, "--in", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("psdfactor: hypothesis failure: NotPSD: ") and err.count("\n") == 1, err


_HUGE = serialize.matrix_to_json(np.diag([1e308, 1.0]))


@pytest.mark.parametrize(
    "command, job",
    [
        pytest.param("seb", {"T": _HUGE, "B": _I2}, id="seb"),
        pytest.param("wsimilar", {"T": serialize.matrix_to_json(np.array([[1e308, 1e308], [0.0, 1.0]]))}, id="wsimilar"),
        pytest.param("factor", {"op": "tba", "T": _HUGE, "G": _I2, "S": _HUGE}, id="tba"),
    ],
)
def test_cli_float_range_ends_in_one_line(command, job):
    # Run in a subprocess, where numpy's RuntimeWarnings reach stderr. These used
    # to report feasible with lambda* = 0 (seb), write a bare NaN (wsimilar) or
    # exit 3 after five warning lines (tba).
    proc = run_cli([command, "--in", "-"], stdin=json.dumps(job))
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("psdfactor: cannot finish the job: FloatingPointError: ")
    assert proc.stderr.count("\n") == 1, proc.stderr


# One small valid job per command and op; the contract test mutates these.
_VALID_JOBS = [
    ("seb", {"T": _M2, "B": _M3}),
    ("seb", {"T": _R, "B": _R}),
    ("reverse", {"T": _M2, "B": _M3}),
    ("wsimilar", {"T": _M2}),
    ("intertwine", {"op": "sylvester", "T": _M2, "S": _M2, "seed": 1}),
    ("intertwine", {"op": "quasiaffine", "T": _M2, "S": _M2}),
    ("intertwine", {"op": "quasisimilar", "T": _M2, "S": _M2}),
    ("factor", {"op": "douglas", "T": _M2, "B": _M3}),
    ("factor", {"op": "ldeux", "T": _M2, "Y_hint": _I2}),
    ("factor", {"op": "psd_similarity", "T": _M2}),
    ("factor", {"op": "presimilar", "A": _M2, "B": _M3}),
    ("factor", {"op": "spectra_swap", "A": _M2, "B": _M3}),
    ("factor", {"op": "power_chain", "A": _M2, "B": _M3, "n_max": 2}),
    ("factor", {"op": "inclusionnfs", "T": _M2, "G": _I2, "S": _M2}),
    ("factor", {"op": "tba", "T": _M2, "G": _I2, "S": _M2}),
    ("factor", {"op": "bounded_s", "T": _M2, "G": _I2, "S": _M2}),
    ("rel", {"op": "sqrt", "T": _R, "tol": 1e-6}),
    ("rel", {"op": "parts", "T": _R}),
    ("rel", {"op": "compose", "S": _M2, "T": _R}),
    ("rel", {"op": "restrict", "B": _R, "D": serialize.matrix_to_json(np.array([[1.0], [0.0]]))}),
    ("rel", {"op": "order_leq", "Tlo": _M2, "Thi": _R}),
    ("diag", {"op": "seb", "t": _HEAD, "b": "n2"}),
    ("diag", {"op": "reverse", "t": "n2", "b": _HEAD}),
    ("diag", {"op": "compose", "t": _HEAD, "b": "sqrt_n"}),
    ("diag", {"op": "order_leq", "t": "one", "b": _HEAD}),
    ("diag", {"op": "inverse", "t": _HEAD}),
    ("diag", {"op": "truncate", "t": _HEAD, "N": 3}),
    ("proptest", {"suite": "relation_involution", "trials": 2, "seed": 3}),
]


def _bits(text):
    """A report parsed with every float as its hex form, so -0.0 and 0.0 differ."""
    return json.loads(text, parse_float=lambda s: float(s).hex(), parse_constant=str)


def _frame(text):
    """A report's text with the numbers of every matrix's data left out."""
    return re.sub(r'"data": \[[^"{}]*\]', '"data": []', text)


_SPELLED_APART = np.array([[1e-05, 1e16], [5e-324, -0.0], [-1e-05, 1.5]])


@pytest.mark.parametrize("command, job", _VALID_JOBS)
def test_report_writer_matches_json_encoder(command, job):
    # dumps_report writes json's text outside matrix data, and data of the same bits
    report = cli.run_job(command, job, job.get("tol", 1e-8), job.get("seed", 0), job.get("trials", 100))
    text, reference = serialize.dumps_report(report), dumps_report_reference(report)
    assert _bits(text) == _bits(reference)
    assert _frame(text) == _frame(reference)
    assert serialize.dumps_report(report) == text


def test_report_writer_spells_data_floats_apart():
    # orjson spells 1e-05 as 0.00001 and 1e+16 as 1e16, so a report with such an
    # entry is not json's own dump of itself; its values are the same bits
    report = {"X": serialize.payload_to_json(_SPELLED_APART), "tol": 1e-05, "big": 1e16}
    text, reference = serialize.dumps_report(report), dumps_report_reference(report)
    assert text != reference
    assert _bits(text) == _bits(reference) and _frame(text) == _frame(reference)
    assert '"big": 1e+16' in text and '"tol": 1e-05' in text
    data = np.array(json.loads(text)["X"]["data"])
    assert data.tobytes() == report["X"]["data"].tobytes()


# Fields that size a job: a large value there asks for a large job, which is valid.
_SIZE_KEYS = {"N", "n_max", "trials", "rows", "cols", "n", "m"}

_SCALARS = st.one_of(
    st.booleans(),
    st.none(),
    st.sampled_from(["", "abc", "inf", "full", "trivial", "n", "1/0", "1e400", "-1"]),
    st.sampled_from([0, -0.0, -1, 1.5, 1e-320, 1e308, -1e308, 10**400, float("inf"), float("nan")]),
    st.sampled_from([[], {}, [1.0], [1.0, 2.0, 3.0], {"rows": 1}]),
)
_SIZES = st.one_of(st.integers(-2, 4), st.booleans(), st.none(), st.sampled_from(["abc", 1.5, -0.0]))
_SHAPES = st.sampled_from(
    [serialize.matrix_to_json(np.eye(k)) for k in (0, 1, 3)] + [serialize.matrix_to_json(np.ones((2, 3)))]
)


def _paths(obj, path=()):
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


@st.composite
def _mutated_jobs(draw):
    command, job = draw(st.sampled_from(_VALID_JOBS))
    job = json.loads(json.dumps(job))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(job))[1:]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = job
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        kind = draw(st.sampled_from(["drop", "scalar", "shape"]))
        if kind == "drop" and isinstance(parent, dict):
            del parent[key]
        elif kind == "shape" and isinstance(parent[key], dict) and "rows" in parent[key]:
            parent[key] = copy.deepcopy(draw(_SHAPES))
        else:
            parent[key] = copy.deepcopy(draw(_SIZES if key in _SIZE_KEYS else _SCALARS))
    return command, job


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(_mutated_jobs())
def test_cli_contract_on_mutated_jobs(case):
    # Every job ends in exit 0 with a JSON report, or exit 2 or 3 with one line on stderr.
    command, job = case
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(job))), redirect_stdout(out), redirect_stderr(err):
        code = cli.main([command, "--in", "-"])
    assert code in (0, 2, 3), (code, err.getvalue())
    if code == 0:
        json.loads(out.getvalue())
    else:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1, err.getvalue()


# ------------------------------------------------------- the collector pause in cli.main

_SEB_GATE_FAILS = {"T": serialize.matrix_to_json(np.array([[0.0, 1.0], [0.0, 0.0]])), "B": _I2}

# every command and op, each proptest suite at 2 trials, and jobs that exit 2 and 3
_EVERY_JOB = (
    [(command, json.dumps(job), 0) for command, job in _VALID_JOBS]
    + [("rel", json.dumps({"op": op, "T": _R}), 0) for op in ("adjoint", "inverse", "moore_penrose", "classify")]
    + [("diag", json.dumps({"op": "adjoint", "t": _HEAD}), 0)]
    + [("proptest", json.dumps({"suite": suite, "trials": 2}), 0) for suite in sorted(proptests.SUITES)]
    + [("seb", json.dumps(_SEB_GATE_FAILS), 2), ("seb", "{broken", 3), ("nosuch", "{}", 3)]
)


def _main_in_process(argv, text):
    """cli.main on job text from stdin: its exit code and the objects gc.collect() found after it."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), redirect_stdout(out), redirect_stderr(err):
        gc.collect()
        code = cli.main(argv)
        garbage = gc.collect()
    return code, garbage


def test_cli_jobs_leave_no_cyclic_garbage():
    # cli.main pauses the collector, which frees nothing late only while no job
    # makes a reference cycle; a parser built per call left 55 objects in cycles.
    # Building the one parser leaves 24 (argparse's help formatters), once per process.
    cli.build_parser()
    for command, text, expected in _EVERY_JOB:
        assert _main_in_process([command, "--in", "-"], text) == (expected, 0), (command, text[:80])


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_cli_main_restores_the_collector_state(monkeypatch, enabled):
    # paused from parsing the job to writing the report, then as the caller left it
    during = []
    for name in ("loads", "dumps_report"):
        def watched(*args, _fn=getattr(cli, name), **kwargs):
            during.append(gc.isenabled())
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, watched)
    jobs = [(["seb", "--in", "-"], json.dumps({"T": _M2, "B": _M3}), 0),
            (["seb", "--in", "-"], json.dumps(_SEB_GATE_FAILS), 2),
            (["seb", "--in", "-"], "{broken", 3)]
    try:
        gc.enable() if enabled else gc.disable()
        for argv, text, expected in jobs:
            assert _main_in_process(argv, text)[0] == expected
            assert gc.isenabled() is enabled, argv
        with redirect_stdout(io.StringIO()), pytest.raises(SystemExit):
            cli.main(["--version"])
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert during and not any(during), during


def test_cli_builds_one_parser():
    assert cli.build_parser() is cli.build_parser()


# ------------------------------------------------------- report schema

_WRAPPED = ("checks", "residuals", "diagnostics", "items", "residual", "residual_xb_t")

# the sorted keys of each report's results and of its nested check records (of
# a list's first entry): a change here is a change of the report format
_SCHEMA = {
    ("seb", "matrix"): (["G0", "X", "checks", "feasible", "lambda_star", "norm_X", "residual_xb_t"],
                        {"checks": ["norm_bound_deficit", "tol"], "residual_xb_t": ["tol", "value"]}),
    ("seb", "relation"): (["G0", "X", "checks", "feasible", "lambda_star", "norm_X", "residual_xb_t"],
                          {"checks": ["equality_mode", "inclusion_in_T", "inclusion_in_Ts", "ker_Ts_adj_in_ker_X",
                                      "ker_X_equals_ker_Ts_adj", "restricted_product_chain", "tol"],
                           "residual_xb_t": ["tol", "value"]}),
    ("reverse", "matrix"): (["Y", "eta_star", "feasible", "residuals", "tol"],
                            {"residuals": ["adjoint_factorization", "adjoint_operator_factorization",
                                           "dual_lambda_star", "mul_Y_matches", "restricted_product_chain", "tol"]}),
    ("wsimilar", "matrix"): (["B1", "B2", "S", "W", "X", "X1", "X2", "Z", "checks", "plusdot_ok"],
                             {"checks": ["S_herm_dev", "S_psd_deficit", "TW_herm_dev", "TW_psd_deficit", "ZT_herm_dev",
                                         "ZT_psd_deficit", "cond_G", "factor_T", "factor_Tadj", "intertwine", "tol"]}),
    ("intertwine", "sylvester"): (["dimension", "max_rank_element", "rank"], {}),
    ("intertwine", "quasiaffine"): (["G", "affine", "space_dim"], {}),
    ("intertwine", "quasisimilar"): (["G1", "G2", "checks", "similar_pair"], {"checks": ["duality_residual", "tol"]}),
    ("factor", "douglas"): (["Y", "c", "feasible"], {}),
    ("factor", "ldeux"): (["A", "B", "Y", "in_class", "residual"], {"residual": ["tol", "value"]}),
    ("factor", "psd_similarity"): (["G", "S", "accept"], {}),
    ("factor", "presimilar"): (["S", "spectra_match", "tol"], {}),
    ("factor", "spectra_swap"): (["swap_ok", "tol"], {}),
    ("factor", "power_chain"): (["S_seq", "levels", "psd_margins", "residuals"], {"residuals": ["tol", "value"]}),
    ("factor", "inclusionnfs"): (["A", "A_F", "B_F", "diagnostics", "direction"],
                                 {"diagnostics": ["reconstruction", "seb_feasible", "seb_lambda_star", "tol"]}),
    ("factor", "tba"): (["A", "A_F", "B_F", "diagnostics", "direction"],
                        {"diagnostics": ["E_F", "S0", "lambda", "reconstruction", "reverse_eta_star", "reverse_feasible",
                                         "reversed_inequality_margin", "tol", "xt_equals_tadjx", "xt_psd_deficit"]}),
    ("factor", "bounded_s"): (["all_passed", "items"], {"items": ["name", "passed", "residual", "tol"]}),
    **{("rel", op): (["result"], {}) for op in ("sqrt", "compose", "restrict", "adjoint", "inverse", "moore_penrose")},
    ("rel", "parts"): (["dom_dim", "ker_dim", "mul_dim", "operator_part", "ran_dim"], {}),
    ("rel", "order_leq"): (["leq", "tol"], {}),
    ("rel", "classify"): (["nonnegative", "selfadjoint", "symmetric"], {}),
    ("diag", "seb"): (["X", "checks", "feasible", "lambda_star"], {"checks": ["B_unbounded", "X_bounded", "sup_X"]}),
    ("diag", "reverse"): (["Y", "checks", "eta_star", "feasible"], {"checks": []}),
    **{("diag", op): (["result"], {}) for op in ("compose", "inverse", "truncate", "adjoint")},
    ("diag", "order_leq"): (["leq"], {}),
    **{("proptest", suite): (["all_ok", "failed", "passed", "per_trial", "suite", "tol", "trials"], {})
       for suite in proptests.SUITES},
}


def _strict(name):
    raise ValueError(f"{name} is not JSON")


def test_every_report_keeps_its_schema_and_strict_json():
    # every exit-0 job of _EVERY_JOB; only proptest may write Infinity (ROADMAP item 2)
    seen = set()
    for command, text, expected in _EVERY_JOB:
        if expected:
            continue
        job = json.loads(text)
        kind = job.get("op") or job.get("suite") or ("relation" if "graph_basis" in job["T"] else "matrix")
        report = cli.run_job(command, job, job.get("tol", 1e-8), job.get("seed", 0), job.get("trials", 100))
        text = serialize.dumps_report(report)
        results = json.loads(text, parse_constant=None if command == "proptest" else _strict)["results"]
        nested = {}
        for key in _WRAPPED:
            value = results.get(key)
            value = value[0] if isinstance(value, list) and value else value
            if isinstance(value, dict):
                nested[key] = sorted(value)
        assert (sorted(results), nested) == _SCHEMA[command, kind], (command, kind)
        seen.add((command, kind))
    assert seen == set(_SCHEMA)


@pytest.mark.parametrize("value", [np.bool_(True), {1.0}, (1.0,), np.int64(1)], ids=["np_bool", "set", "tuple", "np_int"])
def test_report_value_refuses_what_has_no_report_form(value):
    # payload_to_json would read a numpy bool as a 1 x 1 matrix; report_value raises instead
    with pytest.raises(TypeError):
        serialize.report_value(value)
    with pytest.raises(TypeError):
        serialize.report_value({"checks": [value]})


def test_report_value_encodes_certificates_field_by_field():
    cert = factor.SebCertificate(
        feasible=False, lambda_star=math.inf, X=None, G0=np.eye(1), residual_xb_t=math.inf, norm_X=1.5,
        checks={"tol": 1e-8, "nan": math.nan, "flag": True},
    )
    out = serialize.report_value(cert)
    assert list(out) == ["feasible", "lambda_star", "X", "G0", "residual_xb_t", "norm_X", "checks"]
    assert (out["lambda_star"], out["residual_xb_t"], out["X"], out["norm_X"]) == ("inf", "inf", None, 1.5)
    assert out["G0"]["rows"] == 1 and out["G0"]["data"].tolist() == [[1.0, 0.0]]
    assert out["checks"]["tol"] == 1e-8 and math.isnan(out["checks"]["nan"]) and out["checks"]["flag"] is True
    # DiagRel and DiagSymbol are dataclasses, but report as symbol payloads
    sym = DiagSymbol(head=(INF, 2.0), tail_coeff=1, tail_power=Fraction(1))
    assert serialize.report_value([DiagRel(sym), sym]) == [serialize.symbol_to_json(sym)] * 2
