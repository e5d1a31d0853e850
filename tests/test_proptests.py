"""The proptest campaigns at fixed master seeds: every suite passes, up to the
known rank-cut fault of the diagonal truncations (ROADMAP item 1); and the
seb_soundness lambda sweep, one stacked eigvalsh, against the loop it replaced."""

import numpy as np
import pytest

from psdfactor import proptests
from psdfactor.proptests import SUITES, run_suite

from oracles import lambda_sweep_feasible, random_psd

# (master seed, trial) pairs of diag_truncation at which _seb_factor's relative
# rank cut calls a feasible truncation infeasible; a fix may only shrink this set
RANK_CUT_FAULTS = {(0, 2), (1, 1), (1, 94), (2, 9), (3, 63)}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_campaign_outcomes_at_fixed_seeds(suite):
    seeds = range(4) if suite == "diag_truncation" else range(2)
    failed = set()
    for seed in seeds:
        report = run_suite(suite, trials=100, seed=seed)
        failed |= {(seed, r["trial"]) for r in report["per_trial"] if not r["ok"]}
    allowed = RANK_CUT_FAULTS if suite == "diag_truncation" else set()
    assert failed <= allowed, sorted(failed - allowed)


def _sweep_pairs():
    """seb_soundness draws, T = X B or X B + P D* with P the projector onto
    ker B, at n = 1 to 8 in real and complex arithmetic; then T = 0 and B = 0."""
    rng = np.random.default_rng(40)
    for n in range(1, 9):
        for real in (True, False):
            for k in range(25):
                B = random_psd(rng, n, singular=True, real=real)
                T = random_psd(rng, n, real=real) @ B
                if k % 2:
                    D = rng.standard_normal((n, n)) if real else rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                    T = T + (np.eye(n) - np.linalg.pinv(B) @ B) @ D.conj().T
                yield T, B
    for n in (1, 3, 8):
        P = random_psd(rng, n)
        yield np.zeros((n, n)), P
        yield P, np.zeros((n, n))
        yield np.zeros((n, n)), np.zeros((n, n))


def test_stacked_sweep_keeps_the_loop_verdict(monkeypatch):
    verdicts = []
    for T, B in _sweep_pairs():
        got = proptests.lambda_sweep_feasible(T, B)
        assert got == lambda_sweep_feasible(T, B), (T, B)
        verdicts.append(got)
    assert len(verdicts) >= 400 and min(verdicts.count(True), verdicts.count(False)) >= 100

    # one eigvalsh per sweep, feasible or not, in real arithmetic for real data
    eigvalsh = np.linalg.eigvalsh
    dtypes = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args, **kw: dtypes.append(a.dtype) or eigvalsh(a, *args, **kw))
    for T, B in list(_sweep_pairs())[::40]:
        dtypes.clear()
        proptests.lambda_sweep_feasible(T, B)
        assert len(dtypes) == 1 and (dtypes[0] == np.float64 or np.iscomplexobj(T)), dtypes
