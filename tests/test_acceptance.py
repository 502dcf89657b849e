"""Top-level behavioral gates, one test per shipped promise.

Run with ``pytest -v tests/test_acceptance.py`` to get a single pass/fail
line per gate. Each test is self-contained: it states the promise, drives
the public API (or the installed CLI) end to end, and checks the numbers
at the advertised tolerances.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from bessprofit.battery import make_spec
from bessprofit.cycles import break_even_cycles, count_cycles
from bessprofit.optimizer import DispatchProblem, validate_dispatch
from bessprofit.profitability import tune_friction
from bessprofit.timeseries import DEFAULT_PPC_SCHEDULE

from _support import (
    noisy_price_slice,
    random_dispatch_instance,
    subprocess_env,
    tariff_priced,
)
from test_optimizer import assert_routes_agree
from test_profitability import closure_report

approx = pytest.approx


def test_a1_per_cycle_cost_constants():
    # The three ramp classes cost 0.1062 / 0.1750 / 0.2250 euro per
    # 100%-DoD cycle per rated kWh, and the arithmetic is instantaneous.
    ramps_and_costs = [(0.25, 0.1062), (1.0, 0.1750), (2.0, 0.2250)]
    specs = [make_spec(f"a1-{rate}", 1.0, rate, rate) for rate, _ in ramps_and_costs]
    specs[0].c_cyc  # warm up before timing

    start = time.perf_counter()
    got = [spec.c_cyc for spec in specs]
    elapsed = time.perf_counter() - start

    for (_, want), value in zip(ramps_and_costs, got):
        assert value == approx(want, abs=1e-4)
    assert elapsed < 1e-3, f"cost arithmetic took {elapsed:.6f}s"


def test_a2_scoring_closure_on_known_scalars():
    # Feeding a dispatch with known totals (gain, cycles, capacity, cost)
    # through the scorer reproduces the published per-cycle profit and
    # payback under the 12-month convention.
    quiet_month = closure_report(10.13, 37.01, months_12=True)
    assert quiet_month.p_cyc == approx(0.1675, abs=5e-4)
    assert quiet_month.expb_years == approx(3.50, abs=0.01)

    strong_month = closure_report(35.62, 36.91, months_12=True)
    assert strong_month.p_cyc == approx(0.859, abs=1e-3)
    assert strong_month.expb_years == approx(0.99, abs=0.01)


def test_a3_monthly_break_even_budget():
    # 4000 rated cycles spread over a 7-year service life leave a budget
    # of about 47.6 equivalent cycles per month (a twelfth of a year).
    assert break_even_cycles(4000, 7, horizon_days=365.25 / 12) == approx(47.6, abs=0.1)


def test_a4_lp_objective_matches_dp_oracle():
    # Three-route check: on randomized small instances, priced per step
    # and by a two-period tariff, with and without the terminal-SoC
    # constraint, both forward routes of the exact solver and the
    # certified LP agree on feasibility, on the objective to 1e-9 relative
    # and on the linear cycle count; an independent dynamic program on a
    # 0.01-kWh SoC grid comes within five times its discretization bound;
    # the dispatch passes the validator and never bills more than the
    # no-battery plan when that plan meets the cap. All in under 30 s.
    start = time.perf_counter()
    rng = np.random.default_rng(424242)
    tariffs = np.random.default_rng(2019)  # its own stream: the tariffs draw nothing from rng
    for k in range(24):
        prob = random_dispatch_instance(rng)
        for priced, variant in (("per step", prob), ("tariff", tariff_priced(prob, tariffs))):
            for terminal_soc in (False, True):
                held = replace(variant, terminal_soc=terminal_soc)
                assert_routes_agree(held, f"instance {k}, {priced}, terminal_soc={terminal_soc}")
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"24 instances x 4 by three routes took {elapsed:.1f}s"


def test_a5_every_panel_dispatch_passes_the_validator(panel):
    # Every fixture x battery dispatch is re-audited with plain array
    # arithmetic: ramp limits, SoC recursion and box, grid-side mapping,
    # billing, and the selected peak cap — zero violations at tol 1e-7,
    # and billed energy equals max(0, z+s) wherever the price is positive.
    assert len(panel) == 36
    for (case, name), entry in panel.items():
        prob = DispatchProblem(
            entry.scenario, entry.spec, p_max_set=entry.selection.level.kva
        )
        violations = validate_dispatch(prob, entry.dispatch)
        assert violations == [], f"{case}/{name}: {violations}"
        z = entry.scenario.load - entry.scenario.pv
        positive = entry.scenario.price > 0
        np.testing.assert_allclose(
            entry.dispatch.theta[positive],
            np.maximum(0.0, z + entry.dispatch.s)[positive],
            atol=1e-7,
            err_msg=f"{case}/{name}",
        )


def test_a6_storage_value_monotone_in_capacity_and_ramp(panel):
    # More capacity or a faster ramp never lowers the total gain on any
    # fixture, and on at least three of the four the per-kWh value of
    # extra capacity is diminishing (2-1 beats 5-2 at every ramp).
    capacities = (1, 2, 5)
    ramps = ("0.25c", "1c", "2c")
    cases = ("c1", "c2", "c3", "c4")

    def g_t(case, cap, ramp):
        return panel[(case, f"{cap}kwh-{ramp}")].report.g_t

    for case in cases:
        for ramp in ramps:
            col = [g_t(case, cap, ramp) for cap in capacities]
            for lo, hi in zip(col, col[1:]):
                assert hi >= lo - 1e-6 * (1.0 + abs(lo)), (case, ramp, col)
        for cap in capacities:
            row = [g_t(case, cap, ramp) for ramp in ramps]
            for lo, hi in zip(row, row[1:]):
                assert hi >= lo - 1e-6 * (1.0 + abs(lo)), (case, cap, row)

    diminishing = 0
    for case in cases:
        gaps_ok = all(
            g_t(case, 2, ramp) - g_t(case, 1, ramp)
            >= g_t(case, 5, ramp) - g_t(case, 2, ramp) - 1e-9
            for ramp in ramps
        )
        diminishing += gaps_ok
    assert diminishing >= 3, f"diminishing returns on only {diminishing} fixtures"


def test_a7_friction_tuning_contract(scenarios, catalog):
    # Over-cycling candidate: the search lands within 0.5 cycles of the
    # budget at some eta < 1, improves per-cycle profit, and the throttled
    # dispatch is a feasible (hence costlier) point of the original
    # problem. Under-budget candidate: returned untouched at eta = 1.
    noisy = noisy_price_slice()
    spec = next(s for s in catalog if s.name == "2kwh-1c")
    res = tune_friction(noisy, spec, ppc=DEFAULT_PPC_SCHEDULE)
    assert res.untuned_report.n_cyc_100 > res.target_cycles + 0.5  # over budget
    assert res.eta_fric < 1.0
    assert abs(res.report.n_cyc_100 - res.target_cycles) <= 0.5
    assert res.report.p_cyc >= res.untuned_report.p_cyc
    assert res.report.g_arb <= res.untuned_report.g_arb  # g_arb = baseline bill - dispatch bill
    original = DispatchProblem(noisy, spec, p_max_set=res.report.level_kva)
    assert validate_dispatch(original, res.dispatch) == []

    quiet = next(s for s in catalog if s.name == "1kwh-0.25c")
    idle = tune_friction(scenarios["c2"], quiet, ppc=DEFAULT_PPC_SCHEDULE)
    assert idle.eta_fric == 1.0
    assert idle.report is idle.untuned_report
    assert idle.warning is None


def test_a8_cycle_count_identities():
    # With a linear damage exponent the equivalent-cycle count is exactly
    # half the normalized throughput, and the classic 50->100->10->50 %
    # swing counts 0.9 cycles.
    rng = np.random.default_rng(20240817)
    for _ in range(50):
        n = int(rng.integers(2, 400))
        walk = rng.uniform(0.0, 2.0, n)
        count = count_cycles(walk, 2.0, 1.0)
        throughput = float(np.sum(np.abs(np.diff(walk)))) / (2.0 * 2.0)
        assert count == approx(throughput, abs=1e-9)

    swing = count_cycles(np.array([0.5, 1.0, 0.1, 0.5]), 1.0, 1.0)
    assert swing == approx(0.9, abs=1e-12)


def test_a9_full_sweep_is_byte_reproducible(tmp_path, fixture_dir):
    # The whole catalog over all four fixtures, twice, in parallel: both
    # runs finish inside the 10-minute budget and every output file is
    # byte-identical between them.
    scenario_files = [fixture_dir / f"c{i}.csv" for i in (1, 2, 3, 4)]
    outputs = []
    for run in ("first", "second"):
        out = tmp_path / run
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "bessprofit", "sweep", *map(str, scenario_files),
             "--jobs", "4", "--out", str(out)],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=subprocess_env(),
            timeout=600,
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        assert elapsed < 600.0, f"{run} sweep took {elapsed:.0f}s"
        outputs.append((out, proc.stdout))

    (first_dir, first_stdout), (second_dir, second_stdout) = outputs
    assert first_stdout == second_stdout
    names = sorted(p.name for p in first_dir.iterdir())
    assert names == sorted(
        f"c{i}-sweep.{ext}" for i in (1, 2, 3, 4) for ext in ("csv", "txt")
    )
    for name in names:
        assert (first_dir / name).read_bytes() == (second_dir / name).read_bytes(), name
