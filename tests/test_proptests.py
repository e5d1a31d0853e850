"""The proptest campaigns at fixed master seeds: every suite passes, up to the
known rank-cut fault of the diagonal truncations (ROADMAP item 1)."""

import pytest

from psdfactor.proptests import SUITES, run_suite

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
