"""Candidate scoring and friction tuning.

The closure tests push hand-built dispatches with known totals through
the scorer and check per-cycle profit and payback against hand
arithmetic; the panel tests audit the report identities on every
fixture x battery pair and pin a frozen regression row per fixture; the
tuning tests run the friction search on a seeded noisy-price window
whose untuned dispatch genuinely over-cycles.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from bessprofit import profitability
from bessprofit.battery import catalog_by_name, make_spec
from bessprofit.cycles import count_cycles
from bessprofit.errors import ConfigError
from bessprofit.optimizer import DispatchProblem, DispatchSolution, PpcSelection, validate_dispatch
from bessprofit.profitability import (
    HOURS_PER_YEAR,
    Conventions,
    ProfitabilityReport,
    evaluate,
    ETA_MIN,
    evaluate_candidate,
    tune_friction,
)
from bessprofit.timeseries import DEFAULT_PPC_SCHEDULE, baseline_metrics

from _support import mini_scenario, noisy_price_slice

approx = pytest.approx


# ---------------------------------------------------------------------------
# scoring closure on hand-built dispatches
# ---------------------------------------------------------------------------

def closure_report(g_t: float, cycles: float, months_12: bool = True) -> ProfitabilityReport:
    """Score a synthetic dispatch with exactly the given totals.

    A 30-day window (1440 half-hour steps) at price 1 €/kWh carries a flat
    load summing to ``g_t``; the dispatch bills nothing (energy_cost 0), so
    the arbitrage gain equals ``g_t`` exactly, and the contract level is
    unchanged, so g_pd is 0. The SoC series swings
    rail-to-rail once per full cycle and adds one shallow swing for the
    fractional remainder, so the equivalent-cycle count is ``cycles``.
    """
    n, h = 1440, 0.5
    spec = make_spec(
        "closure-0.25c", 1.0, 0.25, 0.25, soc_min_frac=0.0, soc_init_frac=0.0
    )
    scenario = mini_scenario(np.full(n, g_t / n), np.ones(n), h=h, name="closure")
    b = np.zeros(n)
    full = int(cycles)
    frac = cycles - full
    for k in range(full):
        b[2 * k] = 1.0
    if frac > 0.0:
        b[2 * full] = frac
    zeros = np.zeros(n)
    dispatch = DispatchSolution(
        x_plus=zeros,
        x_minus=zeros,
        s=zeros,
        b=b,
        theta=zeros,
        energy_cost=0.0,
    )
    level = DEFAULT_PPC_SCHEDULE.levels[0]
    unchanged = PpcSelection(level, level, 0.0, DispatchProblem(scenario, spec), dispatch)
    return evaluate(unchanged, dispatch, Conventions(months_12=months_12))


class TestScoringClosure:
    def test_quarter_c_month_row(self):
        rep = closure_report(10.13, 37.01)
        assert rep.g_t == approx(10.13, abs=1e-9)
        assert rep.n_cyc_100 == approx(37.01, abs=1e-9)
        assert rep.battery.c_cyc == approx(0.10625, abs=1e-12)
        assert rep.battery.b_cost == approx(425.0, abs=1e-9)
        assert rep.p_cyc == approx(0.1675, abs=5e-4)
        assert rep.expb_years == approx(3.50, abs=0.01)
        # frozen exact arithmetic: 10.13/37.01 - 0.10625 and 425/(12*10.13)
        assert rep.p_cyc == approx(0.1674598081599568, rel=1e-9)
        assert rep.expb_years == approx(3.496215860480421, rel=1e-9)
        assert rep.profitable == (
            rep.p_cyc > 0 and rep.expb_years < rep.battery.calendar_life_years
        )

    def test_strong_month_row(self):
        rep = closure_report(35.62, 36.91)
        assert rep.p_cyc == approx(0.859, abs=1e-3)
        assert rep.expb_years == approx(0.99, abs=0.01)
        assert rep.p_cyc == approx(0.8588001219181792, rel=1e-9)
        assert rep.expb_years == approx(0.9942915964813778, rel=1e-9)

    def test_payback_conventions_differ_by_hour_ratio(self):
        # months-12 annualizes 12 thirty-day months (8640 h); calendar uses
        # 365.25 days (8766 h). Payback therefore stretches by 8766/8640.
        cal = closure_report(10.13, 37.01, months_12=False)
        m12 = closure_report(10.13, 37.01, months_12=True)
        assert m12.expb_years == approx(cal.expb_years * 8766.0 / 8640.0, rel=1e-12)
        assert m12.expb_years == approx(425.0 / (12.0 * 10.13), rel=1e-9)
        assert cal.expb_years == approx(
            425.0 * 720.0 / (10.13 * HOURS_PER_YEAR), rel=1e-9
        )


# ---------------------------------------------------------------------------
# report identities on the full fixture x catalog panel
# ---------------------------------------------------------------------------

class TestPanelIdentities:
    def test_total_gain_is_sum_of_parts(self, panel):
        for entry in panel.values():
            rep = entry.report
            assert rep.g_t == approx(rep.g_arb + rep.g_pd, rel=1e-12, abs=1e-12)

    def test_per_cycle_profit_identities(self, panel):
        for entry in panel.values():
            rep = entry.report
            c_cyc = rep.battery.c_cyc
            if rep.n_cyc_100 > 0:
                want = rep.g_t / (rep.n_cyc_100 * entry.spec.b_rated) - c_cyc
                assert rep.p_cyc == approx(want, rel=1e-12, abs=1e-12)
            else:
                assert rep.p_cyc == -c_cyc

    def test_verdict_rule(self, panel):
        for entry in panel.values():
            rep = entry.report
            want = rep.p_cyc > 0 and rep.expb_years < entry.spec.calendar_life_years
            assert rep.profitable == want

    def test_payback_times_annualized_gain_is_battery_cost(self, panel):
        for entry in panel.values():
            rep = entry.report
            if rep.g_t > 0:
                window_hours = entry.scenario.n * entry.scenario.h
                annualized = rep.g_t * HOURS_PER_YEAR / window_hours
                assert rep.expb_years * annualized == approx(rep.battery.b_cost, rel=1e-9)
            else:
                assert math.isinf(rep.expb_years)
                assert not rep.profitable

    def test_cycle_count_matches_trajectory_recount(self, panel):
        for entry in panel.values():
            recount = count_cycles(
                np.concatenate(([entry.spec.b_0], entry.dispatch.b)),
                entry.spec.b_rated,
            )
            assert entry.report.n_cyc_100 == approx(recount, rel=1e-12)

    def test_reported_metrics_are_sane(self, panel):
        for entry in panel.values():
            rep = entry.report
            assert 0.0 <= rep.ss <= 1.0
            assert rep.waste >= 0.0
            assert rep.g_pd >= 0.0
            assert rep.level_kva is not None
            assert rep.eta_fric_used == 1.0
            assert rep.name == entry.spec.name


# Frozen regression rows, one per fixture, at the report's print precision.
PANEL_PINS = {
    ("c1", "1kwh-0.25c"): dict(
        g_pd=1.47,
        g_t=6.30,
        p_cyc=0.1435,
        n_cyc_100=25.23,
        expb_years=5.54,
        ss=0.3566,
        waste=14.13,
        profitable=True,
    ),
    ("c2", "2kwh-1c"): dict(g_pd=1.47, g_t=1.45, ss=0.1625),
    ("c3", "5kwh-1c"): dict(g_t=14.02, ss=0.3082, waste=0.00),
    ("c4", "5kwh-2c"): dict(p_cyc=-0.0020, ss=0.8558, waste=32.34, profitable=False),
}


@pytest.mark.parametrize("key", sorted(PANEL_PINS))
def test_panel_regression_pins(panel, key):
    rep = panel[key].report
    for field, want in PANEL_PINS[key].items():
        got = getattr(rep, field)
        if isinstance(want, bool):
            assert got is want, f"{key} {field}"
        else:
            tol = 5e-5 if field in ("p_cyc", "ss") else 5e-3
            assert got == approx(want, abs=tol), f"{key} {field}"


class TestSelfSufficiencyAndWaste:
    def test_no_surplus_fixture_ss_is_not_monotone(self, panel, scenarios):
        # With no PV surplus to absorb, battery activity is price arbitrage;
        # cheap-hour grid charging can raise imports, so self-sufficiency is
        # allowed to dip below both the baseline and the smaller battery.
        base = baseline_metrics(scenarios["c2"]).ss
        ss = {k: panel[("c2", f"{k}kwh-1c")].report.ss for k in (1, 2, 5)}
        assert base == approx(0.1667, abs=5e-5)
        assert ss[1] == approx(0.1672, abs=5e-5)
        assert ss[2] == approx(0.1625, abs=5e-5)
        assert ss[5] == approx(0.1643, abs=5e-5)
        assert ss[2] < min(ss[1], ss[5])

    def test_surplus_fixture_ss_grows_with_capacity(self, panel, scenarios):
        # Plenty of PV surplus: every battery lifts self-sufficiency above
        # the baseline, and more capacity stores more of the surplus.
        base = baseline_metrics(scenarios["c4"]).ss
        ss = [panel[("c4", f"{k}kwh-1c")].report.ss for k in (1, 2, 5)]
        assert all(v > base for v in ss)
        assert ss[0] <= ss[1] + 1e-9 and ss[1] <= ss[2] + 1e-9

    def test_waste_shrinks_with_capacity_at_fixed_ramp(self, panel, scenarios):
        for case in ("c1", "c2", "c3", "c4"):
            base = baseline_metrics(scenarios[case]).waste
            waste = [panel[(case, f"{k}kwh-1c")].report.waste for k in (1, 2, 5)]
            assert waste[0] <= base + 1e-9
            assert waste[1] <= waste[0] + 1e-9
            assert waste[2] <= waste[1] + 1e-9


# ---------------------------------------------------------------------------
# friction tuning
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def by_name(catalog):
    return catalog_by_name(catalog)


@pytest.fixture(scope="module")
def noisy():
    return noisy_price_slice()


@pytest.fixture(scope="module")
def tuned(noisy, by_name):
    """Friction search on a genuinely over-cycling candidate (frozen run)."""
    return tune_friction(noisy, by_name["2kwh-1c"], ppc=DEFAULT_PPC_SCHEDULE)


class TestFrictionTuning:
    def test_overcycling_candidate_is_throttled_to_budget(self, tuned):
        res = tuned
        un, rep = res.untuned_report, res.report
        assert res.target_cycles == approx(15.64, abs=0.01)
        assert un.n_cyc_100 == approx(30.74, abs=0.01)
        assert un.n_cyc_100 >= res.target_cycles + 10.0  # genuinely over budget
        assert res.warning is None
        assert res.eta_fric == approx(0.625375, abs=1e-9)  # frozen bisection path
        assert res.n_solves == 4  # untuned, 0.5005, 0.75025, 0.625375: the floor is not solved
        assert rep.n_cyc_100 == approx(15.95, abs=0.01)
        assert abs(rep.n_cyc_100 - res.target_cycles) <= 0.5
        assert rep.n_cyc_100 <= un.n_cyc_100  # tuning never adds cycles

    def test_tuning_trades_gain_for_margin(self, tuned, noisy):
        un, rep = tuned.untuned_report, tuned.report
        assert un.g_t == approx(10.50, abs=0.01)
        assert rep.g_t == approx(6.13, abs=0.01)
        assert rep.g_t <= un.g_t
        assert un.p_cyc == approx(-0.0042, abs=1e-3)
        assert rep.p_cyc == approx(0.0172, abs=1e-3)
        assert rep.p_cyc >= un.p_cyc
        assert noisy.baseline.energy_cost - un.g_arb == approx(12.4835, abs=0.01)
        assert tuned.dispatch.energy_cost == approx(16.8527, abs=0.01)
        assert rep.g_arb <= un.g_arb  # g_arb = baseline bill - dispatch bill

    def test_contract_level_is_fixed_during_the_search(self, tuned):
        assert tuned.report.level_kva == tuned.untuned_report.level_kva
        assert tuned.report.eta_fric_used == tuned.eta_fric
        assert tuned.untuned_report.eta_fric_used == 1.0

    def test_tuned_dispatch_feasible_without_friction(self, tuned, noisy, by_name):
        # Friction only biases the billing; the dispatch it produces must
        # satisfy the ordinary physical problem at the chosen contract cap.
        prob = DispatchProblem(
            noisy, by_name["2kwh-1c"], p_max_set=tuned.report.level_kva
        )
        assert validate_dispatch(prob, tuned.dispatch) == []

    def test_full_month_explicit_target(self, scenarios, by_name):
        res = tune_friction(
            scenarios["c4"], by_name["5kwh-1c"], target_cycles=5.0,
            ppc=DEFAULT_PPC_SCHEDULE,
        )
        assert res.eta_fric == approx(0.15709375, abs=1e-6)
        assert res.report.n_cyc_100 == approx(5.05, abs=0.01)
        assert abs(res.report.n_cyc_100 - 5.0) <= 0.5
        assert res.warning is None
        assert res.n_solves == 7

    def test_under_budget_battery_is_left_alone(self, scenarios, by_name):
        res = tune_friction(
            scenarios["c2"], by_name["1kwh-0.25c"], ppc=DEFAULT_PPC_SCHEDULE
        )
        assert res.eta_fric == 1.0
        assert res.n_solves == 1
        assert res.warning is None
        assert res.report is res.untuned_report
        assert res.target_cycles == approx(46.93, abs=0.01)
        assert res.report.n_cyc_100 == approx(0.20, abs=0.01)
        assert res.report.n_cyc_100 < res.target_cycles

    def test_unreachable_budget_returns_floor_with_warning(self, noisy, by_name):
        # even the lowest friction coefficient leaves 0.92 cycles
        res = tune_friction(
            noisy, by_name["2kwh-1c"], target_cycles=0.2, ppc=DEFAULT_PPC_SCHEDULE,
        )
        assert res.eta_fric == ETA_MIN == 1e-3
        assert res.n_solves == 3  # untuned, 0.5005 over budget, then the floor
        assert res.warning is not None
        assert res.warning.startswith("cycle budget 0.20 unreachable")
        assert res.report.n_cyc_100 == approx(0.92, abs=0.01)

    @pytest.mark.parametrize(
        "cycles_at, eta_range, monotone",
        [
            (lambda eta: 30.0 if eta > 0.4 else 2.0, (0.4 - 1e-4, 0.4), True),
            (lambda eta: 5.0 if eta < 0.2 else 2.0 if eta <= 0.4 else 30.0,
             (ETA_MIN - 1e-12, ETA_MIN), False),
            # falls by 0.72 cycles below the jump, but by under CYCLE_TOL
            # between any two neighbouring samples
            (lambda eta: 30.0 if eta > 0.4 else 2.0 + 1.8 * (0.4 - eta),
             (ETA_MIN - 1e-12, ETA_MIN), False),
            # 0.5005 is under budget, so the floor is solved last: it ties
            # with every sample under the jump and loses, then wins with more
            (lambda eta: 30.0 if eta > 0.6 else 2.0, (0.6 - 1e-4, 0.6), True),
            (lambda eta: 5.0 if eta < 0.2 else 2.0 if eta <= 0.6 else 30.0,
             (ETA_MIN - 1e-12, ETA_MIN), False),
        ],
        ids=["step", "non-monotone", "spread-descent", "step-floor-last", "non-monotone-floor-last"],
    )
    def test_fallback_keeps_the_largest_coefficient_on_ties(
        self, monkeypatch, cycles_at, eta_range, monotone
    ):
        # A stubbed cycle count that jumps over the budget: bisection closes
        # on the jump without landing within CYCLE_TOL, so the bracket scan
        # runs and the under-budget sample with the most cycles wins, the
        # largest coefficient among equal counts.
        counted = []
        monkeypatch.setattr(profitability, "_cycles_of",
                            lambda dispatch, spec, conventions: counted.append(dispatch)
                            or cycles_at(dispatch.eta_fric))
        scenario = mini_scenario(np.full(24, 0.5), np.full(24, 0.2), name="stub")
        res = tune_friction(scenario, make_spec("1kwh-1c", 1.0, 1.0, 1.0),
                            DEFAULT_PPC_SCHEDULE, target_cycles=15.0)
        assert eta_range[0] < res.eta_fric <= eta_range[1]
        # untuned, 14 bisection steps, 5 scan points and ETA_MIN, which comes
        # right after the first step when that one is over budget, else last
        assert res.n_solves == 21
        assert len(counted) == 21  # the fallback is scored with its sampled count
        assert res.warning.startswith("bisection finished")
        assert res.warning.endswith("cycle count was not monotone in eta_fric") != monotone

    @pytest.mark.parametrize(
        "cycles_at, eta, n_solves",
        [
            # both within CYCLE_TOL of 15: the first sample ends the search
            # and the floor is never solved
            (lambda eta: 30.0 if eta > 0.6 else 15.2, 0.5005, 2),
            # the floor is over budget but 0.5005 is not, so the bisection
            # goes on and 0.75025 hits
            (lambda eta: 30.0 if eta < 0.01 or eta >= 0.8 else 15.0 if eta >= 0.7 else 2.0, 0.75025, 3),
        ],
        ids=["first-sample-hits", "floor-over-later-hit"],
    )
    def test_a_hit_before_the_floor_ends_the_search(self, monkeypatch, cycles_at, eta, n_solves):
        monkeypatch.setattr(profitability, "_cycles_of",
                            lambda dispatch, spec, conventions: cycles_at(dispatch.eta_fric))
        scenario = mini_scenario(np.full(24, 0.5), np.full(24, 0.2), name="stub")
        res = tune_friction(scenario, make_spec("1kwh-1c", 1.0, 1.0, 1.0),
                            DEFAULT_PPC_SCHEDULE, target_cycles=15.0)
        assert res.eta_fric == approx(eta, rel=1e-12)
        assert res.n_solves == n_solves
        assert res.warning is None

    @pytest.mark.parametrize(
        "target, etas",
        # the first list is the floor-first search's without its leading 1e-3
        [(None, [0.5005, 0.75025, 0.625375]), (0.2, [0.5005, ETA_MIN])],
        ids=["budget-met", "unreachable"],
    )
    def test_the_floor_is_solved_only_when_it_can_decide(self, monkeypatch, noisy, by_name, target, etas):
        solved = []
        solve = profitability.solve_dispatch
        monkeypatch.setattr(profitability, "solve_dispatch",
                            lambda prob: solved.append(prob.eta_fric) or solve(prob))
        tune_friction(noisy, by_name["2kwh-1c"], DEFAULT_PPC_SCHEDULE, target_cycles=target)
        assert solved == approx(etas, rel=1e-12)

    def test_each_solve_counts_its_cycles_once(self, monkeypatch, noisy, by_name):
        # a budget met, one unreachable and one already kept: the returned
        # dispatch is scored with the count the search took of it
        calls = []
        monkeypatch.setattr(profitability, "count_cycles",
                            lambda *args: calls.append(args) or count_cycles(*args))
        for target, solves in ((None, 4), (0.2, 3), (40.0, 1)):
            calls.clear()
            res = tune_friction(noisy, by_name["2kwh-1c"], DEFAULT_PPC_SCHEDULE, target_cycles=target)
            assert res.n_solves == len(calls) == solves, target

    def test_non_positive_target_is_rejected(self, noisy, by_name):
        for target in (0.0, -3.0, math.nan, math.inf):  # non-finite ones too
            with pytest.raises(ValueError, match="target_cycles"):
                tune_friction(
                    noisy, by_name["2kwh-1c"], target_cycles=target, ppc=DEFAULT_PPC_SCHEDULE
                )


# ---------------------------------------------------------------------------
# degenerate candidate and pipeline plumbing
# ---------------------------------------------------------------------------

class TestPipelineEdges:
    def test_pinned_soc_battery_scores_as_worthless(self):
        scenario = mini_scenario([0.4, -0.2, 0.7, 0.1], [0.2, 0.3, 0.5, 0.1])
        spec = make_spec(
            "pinned", 2.0, 1.0, 1.0,
            soc_min_frac=0.5, soc_init_frac=0.5, soc_max_frac=0.5,
        )
        rep, selection = evaluate_candidate(scenario, spec, DEFAULT_PPC_SCHEDULE)
        assert np.max(np.abs(selection.dispatch.s)) <= 1e-12
        assert rep.g_t == approx(0.0, abs=1e-12)
        assert math.isinf(rep.expb_years)
        assert not rep.profitable
        assert rep.n_cyc_100 == approx(0.0, abs=1e-9)
        assert rep.p_cyc == approx(-spec.c_cyc, rel=1e-12)
        assert selection.level == selection.old_level


    @pytest.mark.parametrize("kp", [math.nan, math.inf, 0.5])
    def test_bad_damage_exponent_fails_before_any_solve(self, kp):
        # the same error the cycle count would raise, but when the conventions are made
        with pytest.raises(ConfigError, match="damage exponent kp must be >= 1 and finite"):
            Conventions(damage_exp=kp)
