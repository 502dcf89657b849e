"""Dispatch optimization: the exact solver, its LP and grid-DP cross-checks,
the independent dispatch validator, and peak-contract selection.

The central guarantee is three-route: ``assert_routes_agree`` holds both
forward routes of the solver, the slope-domain scan and the list DP, to
the certified LP and, within its discretization error, to a grid-search
dynamic program (gate a4 runs it on randomized instances); on the
fixture panel the solver matches the LP at every selected cap, and the
two forward routes print the same reports; and every dispatch is
re-audited with plain array arithmetic. Bills are recomputed from the
returned arrays, never taken from the solver.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from bessprofit import optimizer
from bessprofit.battery import default_catalog, make_spec
from bessprofit.errors import InfeasibleDispatchError
from bessprofit.optimizer import (
    DEFAULT_EPSILON,
    DispatchProblem,
    DispatchSolution,
    _list_forward,
    _scan_forward,
    select_ppc,
    solve_dispatch,
    validate_dispatch,
)
from bessprofit.profitability import ETA_MIN, Conventions, evaluate
from bessprofit.report import ReportHeader, render_csv
from bessprofit.timeseries import DEFAULT_PPC_SCHEDULE, baseline_metrics

from _reference import build_lp, lp_reference
from _support import (
    DP_GRID,
    H,
    billed_cost,
    dispatch_objective,
    dp_gap_bound,
    dp_oracle,
    linear_cycles,
    mini_scenario,
    noisy_price_slice,
    random_dispatch_instance,
    reference_list_forward,
    reference_scan_forward,
    scenario_from_fixture,
    tariff_priced,
)

ROUTES = {"scan": np.inf, "list DP": -1}


def solve_by(route: str, prob: DispatchProblem) -> DispatchSolution:
    """solve_dispatch(prob) with its forward route forced by the route rule's
    limit, ROUTES[route]: every slope count is at most inf and above −1."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizer, "_SCAN_MAX_SLOPES", ROUTES[route])
        return solve_dispatch(prob)


def outcome(forward, prob: DispatchProblem, *args):
    """forward's final SoC and q_j, or its failure's message and step."""
    try:
        return forward(prob, *args)
    except InfeasibleDispatchError as exc:
        return str(exc), exc.step


# --------------------------------------------------- solver vs LP vs grid DP


def assert_routes_agree(prob: DispatchProblem, label: str) -> bool:
    """Solve one instance by both forward routes of the exact solver, the
    LP and the grid oracle; return whether it is feasible.

    They agree on feasibility, and the two solver routes fail at the same
    step with the same message. For each route: the solver's objective
    equals the LP's to 1e-9 relative with the same linear cycle count; the
    grid optimum is no better than the solver's and within five
    discretization bounds of it; the dispatch passes the validator, final
    SoC included, at 1e-9; and it never bills more than the no-battery
    plan when that plan meets the peak cap. All references read epsilon
    and terminal_soc from ``prob``. The cycle count is compared only when
    epsilon > 0: without the tie-break, optima that move different
    amounts cost the same.
    """
    ref = lp_reference(prob)
    outcomes = {}
    for route in ROUTES:
        try:
            outcomes[route] = solve_by(route, prob)
        except InfeasibleDispatchError as exc:
            outcomes[route] = (str(exc), exc.step)
    if ref is None:
        failures = list(outcomes.values())
        assert all(isinstance(f, tuple) for f in failures), f"{label}: the LP is infeasible"
        assert failures[0] == failures[1], label
        with pytest.raises(InfeasibleDispatchError):
            dp_oracle(prob, DP_GRID)
        return False

    dp = dp_oracle(prob, DP_GRID)
    bound = dp_gap_bound(prob)
    b_rated = prob.spec.b_rated
    z = prob.scenario.load - prob.scenario.pv
    for route, sol in outcomes.items():
        where = f"{label}, {route}"
        assert isinstance(sol, DispatchSolution), f"{where}: the LP is feasible"
        assert dispatch_objective(prob, sol) == pytest.approx(ref.objective, rel=1e-9, abs=1e-12), where
        if prob.epsilon > 0:
            assert linear_cycles(np.concatenate(([prob.spec.b_0], sol.b)), b_rated) == pytest.approx(
                linear_cycles(ref.soc, b_rated), abs=1e-9
            ), where

        diff = dp.cost - billed_cost(prob, sol)
        # the grid policy is a feasible policy, so it can never beat the solver...
        assert diff >= -1e-7 * (1.0 + abs(dp.cost)), where
        # ...and must come within the discretization error of it
        assert abs(diff) <= 5.0 * bound, f"{where}: {diff} vs {bound}"

        assert not validate_dispatch(prob, sol, tol=1e-9), where
        if np.max(z) / prob.scenario.h <= prob.p_max_set:
            baseline = float(np.sum(prob.scenario.price * np.maximum(0.0, z)))
            assert sol.energy_cost <= baseline + 1e-9 * (1.0 + baseline), where
    return True


def test_panel_dispatches_match_the_lp_at_the_selected_caps(panel):
    # The 36 30-day LPs dominate the suite's wall time, so two worker
    # processes solve them; every comparison stays in this process. The
    # workers are spawned: forking once HiGHS has run here is not known
    # to be safe.
    probs = {
        key: DispatchProblem(entry.scenario, entry.spec, p_max_set=entry.selection.level.kva)
        for key, entry in panel.items()
    }
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        refs = dict(zip(probs, pool.map(lp_reference, probs.values())))
    for (case, name), entry in panel.items():
        prob, ref = probs[(case, name)], refs[(case, name)]
        assert ref is not None, (case, name)
        assert dispatch_objective(prob, entry.dispatch) == pytest.approx(
            ref.objective, rel=1e-9, abs=1e-12
        ), (case, name)
        b_rated = entry.spec.b_rated
        assert linear_cycles(np.concatenate(([entry.spec.b_0], entry.dispatch.b)), b_rated) == (
            pytest.approx(linear_cycles(ref.soc, b_rated), abs=1e-9)
        ), (case, name)


def test_tariff_priced_instances_agree_across_routes():
    # A two-period tariff leaves at most six distinct slopes, so
    # solve_dispatch takes the scan. Each instance also runs under
    # terminal_soc, without the tie-break, and at a cap that takes away
    # 20-120 % of the battery's discharge power from the baseline peak,
    # which ranges from barely feasible to infeasible.
    rng = np.random.default_rng(1405)
    feasible = []
    for k in range(12):
        prob = tariff_priced(random_dispatch_instance(rng), rng)
        assert np.unique(prob.scenario.price).size <= 2
        peak = float(np.max(prob.scenario.z)) / prob.scenario.h
        cap = max(0.0, peak + prob.spec.delta_min_kw * float(rng.uniform(0.2, 1.2)))
        for changes in ({}, {"terminal_soc": True}, {"epsilon": 0.0}, {"p_max_set": cap}):
            variant = replace(prob, **changes)
            feasible.append(assert_routes_agree(variant, f"instance {k}, {changes}"))
    assert 0 < feasible.count(False) < len(feasible) / 2


def test_per_step_prices_take_the_list_dp(monkeypatch):
    # one tariff-priced day has 6 distinct slopes; the same day with
    # per-step noisy prices has hundreds. solve_by sends each of them down
    # the other route too.
    taken = []
    for name in ("_scan_forward", "_list_forward"):
        def spy(*args, name=name, forward=getattr(optimizer, name)):
            taken.append(name)
            return forward(*args)

        monkeypatch.setattr(optimizer, name, spy)
    spec = make_spec("2kwh-1c", 2.0, 1.0, 1.0)
    tariff_day = scenario_from_fixture("c1")
    tariff_day = replace(tariff_day, load=tariff_day.load[:288], pv=tariff_day.pv[:288],
                         price=tariff_day.price[:288])
    tariff, noisy = DispatchProblem(tariff_day, spec), DispatchProblem(noisy_price_slice(days=1), spec)
    solve_dispatch(tariff)
    solve_dispatch(noisy)
    solve_by("list DP", tariff)
    solve_by("scan", noisy)
    assert taken == ["_scan_forward", "_list_forward", "_list_forward", "_scan_forward"]


def test_list_dp_matches_its_reference_bit_for_bit():
    # The list DP inserts a step's bottom piece, and a top piece past the
    # last segment, only after the step's clip. It must give the final SoC
    # and every q_j of the reference, which merges each piece first, float
    # for float, and fail at the same step with the same message. The
    # variants zero half the prices, so that equal slopes merge; force a
    # tariff onto the list route; start the battery full, so that b_max
    # cuts into the bottom piece; take its charge away too, so that the
    # terminal floor takes the whole domain; pin its box to one SoC; and
    # set a zero cap, which leaves some steps no move at all.
    rng = np.random.default_rng(2503)
    probs = []
    for _ in range(150):
        prob = random_dispatch_instance(rng)
        scenario, full = prob.scenario, replace(prob.spec, b_0=prob.spec.b_max)
        free = replace(scenario, price=np.where(rng.random(scenario.n) < 0.5, 0.0, scenario.price))
        probs += [prob, tariff_priced(prob, rng)] + [replace(prob, **changes) for changes in (
            {"terminal_soc": True},
            {"epsilon": 0.0},
            {"epsilon": 0.0, "scenario": free},
            {"spec": full},
            {"spec": replace(full, charge_rate_c=0.0), "terminal_soc": True},
            {"spec": replace(full, b_min=full.b_max)},
            {"p_max_set": 0.0},
        )]
    day = noisy_price_slice(days=1)
    cap = 0.7 * float(np.max(day.z)) / day.h  # about half the catalog holds it
    for spec in default_catalog():
        for eta in (1.0, 0.5005, ETA_MIN):
            probs += [DispatchProblem(day, spec, eta_fric=eta),
                      DispatchProblem(day, spec, p_max_set=cap, eta_fric=eta, terminal_soc=True)]
    failed = 0
    for k, prob in enumerate(probs):
        steps = optimizer._pieces(prob)
        want = outcome(reference_list_forward, prob, *steps)
        assert outcome(_list_forward, prob, *steps) == want, k
        failed += isinstance(want[0], str)
    assert 0 < failed < len(probs) / 4


def test_scan_matches_its_reference_bit_for_bit():
    # The scan stores its increments step-major. It must give the final SoC
    # and every q_j of the block-major reference float for float, and fail
    # at the same step with the same message. Each tariff-priced draw runs
    # as drawn, under terminal_soc, at eps = 0, with a zero SoC floor and a
    # zero discharge rate (so that -0.0 meets +0.0), and at two caps: one
    # that takes away 60-120 % of the discharge power from the baseline
    # peak, of which about half fail, and a zero cap. It also runs with the
    # first third of its steps at a zero price, at eps = 0, where 0 is
    # itself a slope, and at the default eps, where the least slope >= 0
    # is eps; the scan reads the final SoC from that column. Every other
    # window is cut or tiled to 1, 2, 3 or 7 steps or to a length that
    # leaves the last block short.
    def resized(prob, n):
        scenario = prob.scenario
        reps = -(-n // scenario.n)
        load, pv, price = (np.tile(v, reps)[:n] for v in (scenario.load, scenario.pv, scenario.price))
        return replace(prob, scenario=replace(scenario, load=load, pv=pv, price=price))

    rng = np.random.default_rng(2704)
    probs = []
    for k in range(100):
        drawn = random_dispatch_instance(rng)
        n = int(rng.choice([1, 2, 3, 7, 11, 23, 97, 131, 250])) if k % 2 else drawn.scenario.n
        prob = resized(tariff_priced(drawn, rng), n)
        spec = prob.spec
        peak = float(np.max(prob.scenario.z)) / prob.scenario.h
        cap = max(0.0, peak + spec.delta_min_kw * float(rng.uniform(0.6, 1.2)))
        free = np.where(np.arange(n) < -(-n // 3), 0.0, prob.scenario.price)
        free = replace(prob.scenario, price=free)
        probs += [prob] + [replace(prob, **changes) for changes in (
            {"terminal_soc": True},
            {"epsilon": 0.0},
            {"spec": replace(spec, b_min=0.0, b_0=0.0, discharge_rate_c=0.0), "epsilon": 0.0},
            {"spec": replace(spec, b_min=0.0), "terminal_soc": True},
            {"p_max_set": cap},
            {"p_max_set": 0.0},
            {"scenario": free, "epsilon": 0.0},
            {"scenario": free, "epsilon": DEFAULT_EPSILON},
        )]
    failed = 0
    for k, prob in enumerate(probs):
        price = prob.scenario.price
        assert optimizer._distinct(price[price > 0]).size <= 2
        steps = optimizer._pieces(prob)
        want = outcome(reference_scan_forward, prob, *steps)
        assert outcome(_scan_forward, prob, *steps, optimizer._distinct(steps[-1])) == want, k
        failed += isinstance(want[0], str)
    assert 0 < failed < len(probs) / 2


def test_panel_routes_print_the_same_reports(panel):
    # Both forward routes round the same exact optimum. On all 36 fixture
    # pairs their x agrees to 1e-12 kWh, the report CSV is byte-identical,
    # and x, s, b and theta as the dispatch CSV prints them (6 decimals)
    # differ by at most one unit in the last digit. Every level below the
    # current one that the contract screen skips fails by both routes at
    # the same step with the same message.
    conventions = Conventions()
    header = ReportHeader(scenario="pin", config_hash="0" * 12, conventions=conventions.lines())
    skipped = 0
    for (case, name), entry in panel.items():
        prob = entry.selection.problem
        routes = [solve_by(route, prob) for route in ROUTES]
        np.testing.assert_allclose(routes[0].x, routes[1].x, rtol=0, atol=1e-12, err_msg=str((case, name)))
        csvs = {render_csv(header, baseline_metrics(entry.scenario),
                           [evaluate(entry.selection, d, conventions)])
                for d in routes}
        assert len(csvs) == 1, (case, name)
        for field in ("x", "s", "b", "theta"):
            printed = [np.array([float(f"{v:.6f}") for v in getattr(d, field).tolist()]) for d in routes]
            assert np.max(np.abs(printed[0] - printed[1])) <= 1.5e-6, (case, name, field)

        z_peak = float(np.max(entry.scenario.z))
        for lower in DEFAULT_PPC_SCHEDULE.levels:
            if lower.kva < entry.selection.old_level.kva and optimizer._unholdable(
                    entry.scenario, entry.spec, lower.kva, z_peak):
                failures = []
                for route in ROUTES:
                    with pytest.raises(InfeasibleDispatchError) as exc_info:
                        solve_by(route, replace(prob, p_max_set=lower.kva))
                    failures.append((str(exc_info.value), exc_info.value.step))
                assert failures[0] == failures[1], (case, name, lower.kva)
                skipped += 1
    assert skipped == 70  # every level below the chosen one, so each pair is solved once


def test_dp_policy_is_feasible_for_the_lp():
    # feed the DP's decisions through the solver-free audit
    rng = np.random.default_rng(7)
    for _ in range(5):
        prob = random_dispatch_instance(rng)
        dp = dp_oracle(prob, DP_GRID)
        spec = prob.spec
        xp = np.maximum(dp.x, 0.0)
        xm = np.maximum(-dp.x, 0.0)
        s = xp / spec.eta_ch - spec.eta_dis * xm
        z = prob.scenario.load - prob.scenario.pv
        theta = np.maximum(0.0, z + s)
        dispatch = DispatchSolution(
            x_plus=xp, x_minus=xm, s=s, b=dp.b, theta=theta,
            energy_cost=float(np.sum(prob.scenario.price * theta)),
        )
        assert not validate_dispatch(replace(prob, eta_fric=1.0), dispatch)


def test_zero_price_steps_agree_across_routes():
    # At a zero price the middle slope p·a_dis − eps of an importing step
    # equals the bottom piece's −eps, and at eps = 0 every slope of the
    # step is zero. The solver puts the bottom piece first in V without a
    # search, so both boundaries are held to the LP and the grid oracle.
    rng = np.random.default_rng(2020)
    for k in range(8):
        prob = random_dispatch_instance(rng)
        zeroed = rng.random(prob.scenario.n) < 0.5 if k else True
        price = np.where(zeroed, 0.0, prob.scenario.price)
        assert np.any(price == 0.0)
        scenario = replace(prob.scenario, price=price)
        for epsilon in (0.0, 1e-6):
            assert_routes_agree(replace(prob, scenario=scenario, epsilon=epsilon),
                                f"instance {k}, epsilon={epsilon}")


# ------------------------------------------------------- small hand cases


def test_single_step_import_is_billed_as_is():
    scenario = mini_scenario([0.5], [0.2], name="one")
    spec = make_spec("1kwh-1c", 1.0, 1.0, 1.0, soc_init_frac=0.10)
    sol = solve_dispatch(DispatchProblem(scenario, spec))
    assert sol.theta[0] == pytest.approx(0.5, abs=1e-9)
    assert sol.x[0] == pytest.approx(0.0, abs=1e-9)
    assert sol.energy_cost == pytest.approx(0.1, abs=1e-9)


def test_flat_price_empty_battery_stays_idle():
    # round-trip losses plus the movement penalty make any trade strictly
    # worse than doing nothing when prices are flat and the battery is empty
    scenario = mini_scenario(np.full(24, 0.7), np.full(24, 0.16), name="flat")
    spec = make_spec("1kwh-1c", 1.0, 1.0, 1.0, soc_init_frac=0.10)
    sol = solve_dispatch(DispatchProblem(scenario, spec))
    np.testing.assert_allclose(sol.x, 0.0, atol=1e-10)
    assert sol.energy_cost == pytest.approx(24 * 0.7 * 0.16, abs=1e-9)


def test_three_step_surplus_shift():
    # cheap import, free surplus, dear import: charge from the surplus and
    # pre-drain the initial charge at the cheap step to make room
    scenario = mini_scenario([0.5, -0.8, 0.6], [0.1, 0.1, 0.5])
    spec = make_spec("1kwh-1c", 1.0, 1.0, 1.0)
    prob = DispatchProblem(scenario, spec)
    sol = solve_dispatch(prob)
    dp = dp_oracle(prob, DP_GRID)
    assert billed_cost(prob, sol) == pytest.approx(0.012, abs=1e-6)
    assert dp.cost == pytest.approx(billed_cost(prob, sol), abs=2.0 * dp_gap_bound(prob))
    assert sol.x_plus[1] > 0.1  # charges from the surplus step
    assert sol.x_minus[2] > 0.1  # discharges at the expensive step
    np.testing.assert_allclose(sol.theta, [0.12, 0.0, 0.0], atol=1e-7)
    assert not validate_dispatch(prob, sol)


def test_zero_capacity_battery_reproduces_baseline():
    scenario = mini_scenario([0.4, -0.2, 0.7, 0.1], [0.2, 0.3, 0.5, 0.1])
    spec = make_spec("pinned", 2.0, 1.0, 1.0,
                     soc_min_frac=0.5, soc_init_frac=0.5, soc_max_frac=0.5)
    sol = solve_dispatch(DispatchProblem(scenario, spec))
    assert np.max(np.abs(sol.s)) <= 1e-9
    assert sol.energy_cost == pytest.approx(0.2 * 0.4 + 0.5 * 0.7 + 0.1 * 0.1, abs=1e-7)


def test_terminal_soc_restores_initial_charge():
    rng = np.random.default_rng(77)
    z = rng.uniform(-0.5, 0.8, 12)
    price = rng.uniform(0.05, 0.5, 12)
    scenario = mini_scenario(z, price, h=0.5, name="term")
    spec = make_spec("1kwh-1c", 1.0, 1.0, 1.0)
    free = DispatchProblem(scenario, spec)
    held = replace(free, terminal_soc=True)
    held_sol = solve_dispatch(held)
    assert held_sol.b[-1] >= spec.b_0 - 1e-9
    # the constraint can only cost
    assert billed_cost(free, solve_dispatch(free)) <= billed_cost(held, held_sol) + 1e-9


def test_terminal_soc_final_charge_is_exact(panel):
    # the README library case, where the running sum of the moves ends at
    # 0.9999999999999991 kWh against b_0 = 1
    entry = panel[("c1", "2kwh-1c")]
    prob = DispatchProblem(entry.scenario, entry.spec, p_max_set=entry.selection.level.kva,
                           eta_fric=0.7, terminal_soc=True)
    sol = solve_dispatch(prob)
    assert sol.b[-1] >= entry.spec.b_0
    assert validate_dispatch(prob, sol) == []


def test_infeasible_peak_reports_first_bad_step():
    load = np.full(12, 1.0)
    load[7] = 5.0
    scenario = mini_scenario(load, np.full(12, 0.2), name="spike")
    spec = make_spec("0.5kwh-0.25c", 0.5, 0.25, 0.25)
    with pytest.raises(InfeasibleDispatchError) as exc_info:
        solve_dispatch(DispatchProblem(scenario, spec, p_max_set=3.0))
    assert exc_info.value.step == 7
    assert "step 7" in str(exc_info.value)


def test_infeasible_when_the_charge_runs_out_reports_that_step():
    # every step alone can meet the 1 kW cap, but steps 4-9 each need
    # 0.2 kWh from a battery holding 0.2 kWh above its floor that the
    # capped steps 0-3 leave no room to recharge
    z = np.array([1.0] * 4 + [1.2] * 6 + [1.0] * 2)
    scenario = mini_scenario(z, np.full(12, 0.2), h=1.0, name="drain")
    spec = make_spec("0.5kwh-1c", 0.5, 1.0, 1.0)
    prob = DispatchProblem(scenario, spec, p_max_set=1.0)
    with pytest.raises(InfeasibleDispatchError) as exc_info:
        solve_dispatch(prob)
    assert exc_info.value.step == 4
    assert "unreachable at step 4" in str(exc_info.value)
    assert lp_reference(prob) is None


def test_negative_epsilon_is_rejected():
    # a negative movement weight pays the battery to charge and discharge
    # at once, so the per-step cost is no longer convex; an infinite one
    # prices every move at infinity
    scenario = mini_scenario([0.5, -0.8, 0.6], [0.1, 0.1, 0.5])
    spec = make_spec("1kwh-1c", 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match=r"^epsilon must be >= 0, got -0\.5$"):
        DispatchProblem(scenario, spec, epsilon=-0.5)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="epsilon"):
            DispatchProblem(scenario, spec, epsilon=bad)
    prob = DispatchProblem(scenario, spec, epsilon=0.0)
    assert billed_cost(prob, solve_dispatch(prob)) == pytest.approx(0.012, abs=1e-6)


def test_value_of_storage_is_monotone_in_the_box():
    # a battery whose ramp and SoC box contain another's can never do worse
    rng = np.random.default_rng(31)
    z = rng.uniform(-0.5, 0.8, 16)
    price = rng.uniform(0.05, 0.5, 16)
    scenario = mini_scenario(z, price, h=0.5, name="rand16")
    small = make_spec("inner", 1.0, 1.0, 1.0)
    big = make_spec("outer", 2.0, 2.0, 2.0, soc_min_frac=0.05, soc_init_frac=0.25)
    assert small.b_0 == big.b_0  # same starting energy, wider feasible set
    cost_small, cost_big = (billed_cost(p, solve_dispatch(p))
                            for p in (DispatchProblem(scenario, small), DispatchProblem(scenario, big)))
    assert cost_big <= cost_small + 1e-7


# ---------------------------------------------------------------- friction


def test_friction_tightens_billing_coefficients():
    scenario = mini_scenario([0.5, -0.4, 0.3], [0.2, 0.2, 0.2])
    spec = make_spec("f", 1.0, 1.0, 1.0)
    n = scenario.n

    def billing_coeffs(eta_fric):
        lp = build_lp(DispatchProblem(scenario, spec, eta_fric=eta_fric))
        a = lp.A_ub.toarray()
        coeffs = {}
        for i in range(n):
            rows = np.flatnonzero(a[:, 2 * n + i] == -1.0)  # rows lower-bounding theta_i
            (row,) = rows
            coeffs[i] = (a[row, i], a[row, n + i])  # (charge, discharge) coefficients
        return coeffs

    plain = billing_coeffs(1.0)
    tight = billing_coeffs(0.8)
    for i in range(n):
        assert plain[i][0] == pytest.approx(1.0 / 0.95, abs=1e-12)
        assert plain[i][1] == pytest.approx(-0.95, abs=1e-12)
        assert tight[i][0] == pytest.approx(1.0 / (0.95 * 0.8), abs=1e-12)
        assert tight[i][1] == pytest.approx(-0.95 * 0.8, abs=1e-12)


@pytest.mark.parametrize("eta_fric", [0.8, 0.5])
def test_frictioned_dispatch_is_feasible_and_never_cheaper(eta_fric):
    rng = np.random.default_rng(63)
    z = rng.uniform(-0.6, 0.8, 20)
    price = rng.uniform(0.05, 0.5, 20)
    scenario = mini_scenario(z, price, h=0.5, name="fric")
    spec = make_spec("1kwh-1c", 1.0, 1.0, 1.0)
    plain = solve_dispatch(DispatchProblem(scenario, spec))
    throttled = solve_dispatch(DispatchProblem(scenario, spec, eta_fric=eta_fric))
    # the returned dispatch always stands on the true (unfrictioned) semantics
    assert not validate_dispatch(DispatchProblem(scenario, spec), throttled)
    assert throttled.energy_cost >= plain.energy_cost - 1e-9
    assert throttled.eta_fric == eta_fric


def test_deeper_friction_moves_less_energy():
    rng = np.random.default_rng(64)
    z = rng.uniform(-0.6, 0.8, 24)
    price = np.tile([0.05, 0.45], 12)
    scenario = mini_scenario(z, price, h=0.5, name="fric2")
    spec = make_spec("1kwh-1c", 1.0, 1.0, 1.0)
    moved = [
        float(np.sum(solve_dispatch(DispatchProblem(scenario, spec, eta_fric=e)).x_plus))
        for e in (1.0, 0.6, 0.2)
    ]
    assert moved[0] >= moved[1] - 1e-9 >= moved[2] - 2e-9


# ---------------------------------------------------------------- validator


def _solved_small():
    scenario = mini_scenario([0.5, -0.8, 0.6, 0.2], [0.1, 0.1, 0.5, 0.2])
    spec = make_spec("1kwh-1c", 1.0, 1.0, 1.0)
    prob = DispatchProblem(scenario, spec)
    return prob, solve_dispatch(prob)


def _replace(dispatch: DispatchSolution, **changes) -> DispatchSolution:
    fields = dict(
        x_plus=dispatch.x_plus.copy(), x_minus=dispatch.x_minus.copy(),
        s=dispatch.s.copy(), b=dispatch.b.copy(), theta=dispatch.theta.copy(),
        energy_cost=dispatch.energy_cost,
    )
    fields.update(changes)
    return DispatchSolution(**fields)


def test_validator_passes_solver_output():
    prob, sol = _solved_small()
    assert validate_dispatch(prob, sol) == []


def test_validator_catches_soc_drift():
    prob, sol = _solved_small()
    b = sol.b.copy()
    b[0] += 0.05
    bad = validate_dispatch(prob, _replace(sol, b=b))
    assert any("SoC recursion drift" in msg for msg in bad)


def test_validator_catches_box_escape():
    prob, sol = _solved_small()
    xp = sol.x_plus.copy()
    xp[0] += 2.0 * prob.spec.delta_max_kw * prob.scenario.h
    bad = validate_dispatch(prob, _replace(sol, x_plus=xp))
    assert any("charge ramp exceeded" in msg for msg in bad)
    assert any("SoC recursion drift" in msg for msg in bad)


def test_validator_catches_mapping_error():
    prob, sol = _solved_small()
    s = sol.s.copy()
    s[1] += 0.01
    bad = validate_dispatch(prob, _replace(sol, s=s))
    assert any("grid-side mapping" in msg for msg in bad)


def test_validator_catches_underbilling():
    prob, sol = _solved_small()
    theta = sol.theta.copy()
    theta[0] -= 0.05  # bill less than the net import at a priced step
    bad = validate_dispatch(prob, _replace(sol, theta=theta))
    assert any("below net import" in msg for msg in bad)


def test_validator_catches_overbilling_at_priced_steps():
    prob, sol = _solved_small()
    theta = sol.theta.copy()
    theta[2] += 0.05
    bad = validate_dispatch(prob, _replace(sol, theta=theta))
    assert any("max(0, z+s)" in msg for msg in bad)


def test_validator_catches_peak_violation():
    scenario = mini_scenario([0.5, 0.5, 0.5], [0.2, 0.2, 0.2])
    spec = make_spec("1kwh-1c", 1.0, 1.0, 1.0, soc_init_frac=0.10)
    prob = DispatchProblem(scenario, spec, p_max_set=0.4)
    sol = solve_dispatch(DispatchProblem(scenario, spec))  # solved without the cap
    bad = validate_dispatch(prob, sol)
    assert any("peak cap exceeded" in msg for msg in bad)


def test_validator_catches_cost_mismatch():
    prob, sol = _solved_small()
    bad = validate_dispatch(prob, _replace(sol, energy_cost=sol.energy_cost + 1.0))
    assert any("energy_cost mismatch" in msg for msg in bad)


def test_validator_catches_terminal_soc_below_initial():
    prob, sol = _solved_small()  # solved without the rule, it ends at b_min
    held = replace(prob, terminal_soc=True)
    assert sol.b[-1] < prob.spec.b_0
    assert validate_dispatch(prob, sol) == []
    bad = validate_dispatch(held, sol)
    assert any("final SoC below initial" in msg for msg in bad)
    assert validate_dispatch(held, solve_dispatch(held)) == []


def test_validator_checks_negative_entries():
    prob, sol = _solved_small()
    xm = sol.x_minus.copy()
    xm[0] = -0.01
    bad = validate_dispatch(prob, _replace(sol, x_minus=xm))
    assert any("negative discharge" in msg for msg in bad)


# ------------------------------------------------------------ problem guards


def test_dispatch_problem_validation():
    scenario = mini_scenario([0.5], [0.2])
    spec = make_spec("g", 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        DispatchProblem(scenario, spec, eta_fric=0.0)
    with pytest.raises(ValueError):
        DispatchProblem(scenario, spec, eta_fric=1.5)
    with pytest.raises(ValueError):
        DispatchProblem(scenario, spec, p_max_set=-1.0)


def test_dp_oracle_refuses_oversized_problems():
    scenario = mini_scenario(np.full(60, 0.1), np.full(60, 0.2))
    spec = make_spec("g", 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="steps"):
        dp_oracle(DispatchProblem(scenario, spec), DP_GRID)
    small = mini_scenario([0.1, 0.2], [0.2, 0.2])
    with pytest.raises(ValueError, match="grid"):
        dp_oracle(DispatchProblem(small, spec), 1e-5)
    off_grid = make_spec("og", 1.0, 1.0, 1.0, soc_init_frac=0.3141)
    with pytest.raises(ValueError, match="grid"):
        dp_oracle(DispatchProblem(small, off_grid), DP_GRID)


# ------------------------------------------------------- contract selection


@pytest.fixture
def solved_caps(monkeypatch):
    """The cap of every problem that select_ppc solves, in order."""
    caps = []

    def counted(p):
        caps.append(p.p_max_set)
        return solve_dispatch(p)

    monkeypatch.setattr(optimizer, "solve_dispatch", counted)
    return caps


def _needle_scenario(n_days: int = 30, needle_kw: float = 5.8):
    n = n_days * 24
    load = np.full(n, 0.8)
    for d in range(n_days):
        load[d * 24 + 19] = needle_kw
    return mini_scenario(load, np.full(n, 0.2), name="needle")


def test_select_ppc_steps_down_two_levels():
    scenario = _needle_scenario()
    spec = make_spec("2kwh-1c", 2.0, 1.0, 1.0)
    res = select_ppc(DispatchProblem(scenario, spec), DEFAULT_PPC_SCHEDULE)
    assert res.old_level.kva == 6.90  # smallest level covering the 5.8 kW peak
    assert res.level.kva == 4.60  # 2 kW of discharge moves the needle below 4.6
    # thirty days of the 6.90 -> 4.60 daily price difference
    assert res.g_pd == pytest.approx(30 * (0.3080 - 0.2132), abs=1e-9)
    assert res.g_pd == pytest.approx(2.844, abs=1e-9)
    assert not validate_dispatch(
        DispatchProblem(scenario, spec, p_max_set=res.level.kva), res.dispatch
    )


def test_select_ppc_without_discharge_keeps_old_level():
    scenario = _needle_scenario()
    spec = make_spec("nodis", 2.0, 1.0, 0.0)
    res = select_ppc(DispatchProblem(scenario, spec), DEFAULT_PPC_SCHEDULE)
    assert res.level.kva == res.old_level.kva == 6.90
    assert res.g_pd == 0.0


def test_select_ppc_single_fine_needle():
    # one five-minute 6.2 kW needle: a 1C 2 kWh battery absorbs it entirely
    n = 288
    load_w = np.full(n, 500.0)
    load_w[200] = 6200.0
    z = load_w * H / 1000.0
    scenario = mini_scenario(z, np.full(n, 0.2), h=H, name="fine")
    spec = make_spec("2kwh-1c", 2.0, 1.0, 1.0)
    res = select_ppc(DispatchProblem(scenario, spec), DEFAULT_PPC_SCHEDULE)
    assert res.old_level.kva == 6.90
    assert res.level.kva == 4.60
    assert res.g_pd == pytest.approx((0.3080 - 0.2132) * scenario.day_count, abs=1e-9)


def test_select_ppc_respects_explicit_old_level():
    scenario = _needle_scenario()
    spec = make_spec("2kwh-1c", 2.0, 1.0, 1.0)
    res = select_ppc(DispatchProblem(scenario, spec), DEFAULT_PPC_SCHEDULE, old_level_kva=10.35)
    assert res.old_level.kva == 10.35
    assert res.level.kva == 4.60
    assert res.g_pd == pytest.approx(30 * (0.4532 - 0.2132), abs=1e-9)


def test_select_ppc_forced_low_cap_is_infeasible():
    scenario = _needle_scenario()
    spec = make_spec("1kwh-0.25c", 1.0, 0.25, 0.25)
    with pytest.raises(InfeasibleDispatchError):
        select_ppc(DispatchProblem(scenario, spec), DEFAULT_PPC_SCHEDULE, old_level_kva=3.45)


def test_select_ppc_never_raises_the_contract():
    # baseline peak 0.8 kW: the old level already is the cheapest feasible one
    scenario = mini_scenario(np.full(48, 0.8), np.full(48, 0.2), name="flatload")
    spec = make_spec("5kwh-2c", 5.0, 2.0, 2.0)
    res = select_ppc(DispatchProblem(scenario, spec), DEFAULT_PPC_SCHEDULE)
    assert res.old_level.kva == 3.45
    assert res.level.kva == 3.45
    assert res.g_pd == 0.0


@pytest.mark.parametrize("name,tried,skipped", [
    ("2kwh-2c", [13.8], [10.35]),
    ("5kwh-2c", [13.8], [4.6]),
])
def test_select_ppc_tries_no_level_below_the_discharge_reach(scenarios, catalog, solved_caps,
                                                             name, tried, skipped):
    # c3's 30-day peak less the full discharge power lies below the skipped
    # levels, and they fail. The screen solves no level below 13.8: there
    # 2kwh-2c's peak step is stuck, and so is 5kwh-2c's below 5.75; from 5.75
    # to 10.35 a run of steps above each level needs more than the 4.5 kWh
    # 5kwh-2c can store
    spec = next(spec for spec in catalog if spec.name == name)
    prob = DispatchProblem(scenarios["c3"], spec)
    for kva in skipped:
        assert float(np.max(prob.scenario.z)) / prob.scenario.h + spec.delta_min_kw <= kva
        with pytest.raises(InfeasibleDispatchError):
            solve_dispatch(replace(prob, p_max_set=kva))
    res = select_ppc(prob, DEFAULT_PPC_SCHEDULE)
    assert solved_caps == tried
    assert res.level.kva == 13.8
    assert res.problem == replace(prob, p_max_set=13.8)


def test_select_ppc_skips_a_level_a_run_above_it_would_overdraw(solved_caps):
    # a peak of 5 kW puts 3.45 kVA within the 2 kW discharge reach, and at
    # 3.45 kVA each 4.2 kW step alone draws 0.75/eta_dis = 0.79 kWh, within
    # the 0.9 kWh the battery holds, but the run of three draws 2.37 kWh
    scenario = mini_scenario([0.5, 0.5, 4.2, 4.2, 4.2, 0.5, 0.5, 5.0], np.full(8, 0.2), name="run")
    spec = make_spec("1kwh-2c", 1.0, 2.0, 2.0)
    prob = DispatchProblem(scenario, spec)
    assert float(np.max(scenario.z)) / scenario.h + spec.eta_dis * spec.delta_min_kw < 3.45
    with pytest.raises(InfeasibleDispatchError):
        solve_dispatch(replace(prob, p_max_set=3.45))
    assert select_ppc(prob, DEFAULT_PPC_SCHEDULE).level.kva == 4.6
    assert solved_caps == [4.6]
    # the current level is solved even when no dispatch can hold it
    with pytest.raises(InfeasibleDispatchError, match="at step 3"):
        select_ppc(prob, DEFAULT_PPC_SCHEDULE, old_level_kva=3.45)
    assert solved_caps == [4.6, 3.45]


def test_the_screen_skips_only_caps_the_solver_rejects():
    # Caps around each random instance's peak, three of them at the edge of
    # the discharge reach (the peak less eta_dis times the discharge power).
    # The screen skips every cap where _pieces leaves some step no move and
    # every cap more than _DUST/h below the reach, and each cap it skips
    # fails on both forward routes.
    rng = np.random.default_rng(26)
    counts = {True: 0, False: 0}
    for _ in range(200):
        prob = random_dispatch_instance(rng)
        scenario, spec = prob.scenario, prob.spec
        z_peak = float(np.max(scenario.z))
        peak_kw = z_peak / scenario.h
        reach = peak_kw + spec.eta_dis * spec.delta_min_kw
        caps = [*(peak_kw + spec.delta_min_kw * rng.uniform(0.0, 1.3, 4)),
                *(reach * (1 + d) for d in (-1e-15, 0.0, 1e-15))]
        for cap in (max(c, 0.0) for c in caps):
            capped = replace(prob, p_max_set=cap)
            lo_x, hi_x = optimizer._pieces(capped)[:2]
            screened = optimizer._unholdable(scenario, spec, cap, z_peak)
            assert screened >= bool(np.any(hi_x < lo_x - optimizer._DUST))
            assert screened >= (cap < reach - optimizer._DUST / scenario.h)
            if screened:
                for route in ROUTES:
                    with pytest.raises(InfeasibleDispatchError):
                        solve_by(route, capped)
            counts[screened] += 1
    assert min(counts.values()) > 200


def test_the_30_day_sweep_solves_once_per_pair(scenarios, catalog, solved_caps):
    # the screen skips every level below the chosen one, so no solve is infeasible
    for scenario in scenarios.values():
        for spec in catalog:
            select_ppc(DispatchProblem(scenario, spec), DEFAULT_PPC_SCHEDULE)
    assert len(solved_caps) == 36


# --------------------------------------------------------- panel regressions


def test_panel_contract_choices(panel):
    # the chosen level is the cheapest one that the screen keeps and the
    # solver holds
    assert panel[("c1", "1kwh-0.25c")].selection.level.kva == 5.75
    assert panel[("c1", "2kwh-1c")].selection.level.kva == 4.60
    assert panel[("c1", "5kwh-1c")].selection.level.kva == 3.45
    assert panel[("c2", "1kwh-0.25c")].selection.level.kva == 4.60  # no drop possible
    assert panel[("c2", "2kwh-1c")].selection.level.kva == 3.45
    assert panel[("c3", "1kwh-0.25c")].selection.level.kva == 17.25
    assert panel[("c4", "1kwh-1c")].selection.level.kva == 5.75


def test_panel_old_levels_cover_baseline_peaks(panel, scenarios):
    for (case, _), entry in panel.items():
        peak = float(np.max(scenarios[case].z)) / scenarios[case].h
        assert entry.selection.old_level.kva >= peak
        assert entry.selection.level.kva <= entry.selection.old_level.kva
        assert entry.selection.g_pd >= 0.0
