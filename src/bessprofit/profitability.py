"""Per-candidate storage economics: gains, per-cycle profit, payback, verdict.

The pipeline per battery candidate is: state the dispatch problem once,
choose the peak-contract level (a contract schedule is required), whose
``PpcSelection`` holds the problem capped at that level and its dispatch,
price the dispatch against the no-battery baseline (g_arb), add the
contract saving (g_pd), count equivalent 100%-DoD cycles on the SoC
trajectory, convert to per-cycle profit net of the battery's per-cycle
cost, and derive the expected payback. A candidate passes when the
per-cycle profit is positive and the payback beats the calendar life.
Every report carries both selection indices, p_cyc and expb_years.

One ``Conventions`` value carries every setting that changes a reported
number (contract level, damage exponent, payback convention, epsilon,
friction, terminal SoC rule); ``evaluate_candidate``, ``tune_friction``
and ``evaluate`` read their settings from it.

``tune_friction`` throttles an over-cycling candidate down to a cycle
budget by searching the friction coefficient; it re-solves the problem
of the selection made at eta_fric = 1 at other friction values, so the
peak-contract level holds and the cycle count responds to friction alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .battery import BatterySpec
from .cycles import break_even_cycles, check_damage_exp, count_cycles
from .optimizer import (
    DEFAULT_EPSILON,
    DispatchProblem,
    DispatchSolution,
    PpcSelection,
    select_ppc,
    solve_dispatch,
)
from .timeseries import PpcSchedule, ScenarioSeries, baseline_metrics, check_finite

__all__ = [
    "Conventions",
    "ProfitabilityReport",
    "TuningResult",
    "evaluate",
    "evaluate_candidate",
    "tune_friction",
    "HOURS_PER_YEAR",
]

HOURS_PER_YEAR = 365.25 * 24.0

# friction search: lowest eta_fric, hit tolerance (cycles), bracket width
# that ends the bisection
ETA_MIN = 1e-3
CYCLE_TOL = 0.5
INTERVAL_TOL = 1e-4


def _echo(v: float) -> str:
    """``v`` as ``%g`` if that reads back as ``v``, else ``repr``: no two settings echo alike."""
    return f"{v:g}" if float(f"{v:g}") == v else repr(v)


@dataclass(frozen=True)
class Conventions:
    """Settings that change reported numbers; echoed into every output."""

    step_minutes: float | None = None
    months_12: bool = False
    damage_exp: float = 1.0
    epsilon: float = DEFAULT_EPSILON
    eta_fric: float = 1.0
    contracted_kva: float | None = None
    terminal_soc: bool = False

    def __post_init__(self):
        check_damage_exp(self.damage_exp)  # a bad exponent fails here, before any solve

    def lines(self) -> tuple[str, ...]:
        return (
            f"step_minutes: {'auto' if self.step_minutes is None else _echo(self.step_minutes)}",
            f"expb_convention: {'months-12' if self.months_12 else 'calendar'}",
            f"damage_exp: {_echo(self.damage_exp)}",
            f"epsilon: {_echo(self.epsilon)}",
            f"eta_fric: {_echo(self.eta_fric)}",
            f"contracted_kva: {'auto' if self.contracted_kva is None else _echo(self.contracted_kva)}",
            f"terminal_soc: {'yes' if self.terminal_soc else 'no'}",
        )


@dataclass(frozen=True)
class ProfitabilityReport:
    """Economics of one battery candidate over one scenario window."""

    battery: BatterySpec
    g_arb: float
    g_pd: float
    g_t: float
    n_cyc_100: float
    p_cyc: float
    expb_years: float
    ss: float
    waste: float
    profitable: bool
    eta_fric_used: float
    level_kva: float

    @property
    def name(self) -> str:
        return self.battery.name


def _expected_payback_years(
    b_cost: float,
    g_t: float,
    window_hours: float,
    conventions: Conventions,
) -> float:
    """Payback = battery cost / annualized total gain.

    Calendar-exact: annualized gain = g_t·(hours per year)/(window hours).
    The months-12 convention instead treats a month as 30 days and a year
    as 12 such months, so a 30-day window pays back in B_cost/(12·G_T)
    years; the two conventions differ by the 8766/8640 hour ratio.
    """
    if g_t <= 0:
        return math.inf
    if conventions.months_12:
        months = window_hours / 720.0
        annualized = g_t * 12.0 / months
    else:
        annualized = g_t * HOURS_PER_YEAR / window_hours
    return b_cost / annualized


def _cycles_of(dispatch: DispatchSolution, spec: BatterySpec, conventions: Conventions) -> float:
    return count_cycles(np.concatenate(([spec.b_0], dispatch.b)), spec.b_rated, conventions.damage_exp)


def evaluate(selection: PpcSelection, dispatch: DispatchSolution,
             conventions: Conventions) -> ProfitabilityReport:
    """Score a dispatch of ``selection.problem`` at the selection's contract level.

    g_arb is the billing saved versus the no-battery baseline, g_pd the
    peak-contract saving (zero when the level did not change). Cycles are
    weighted by ``conventions.damage_exp`` and the payback follows
    ``conventions.months_12``. Self-sufficiency and waste are recomputed
    on the with-battery net load z + s. A non-positive total gain yields
    an infinite payback and an unprofitable verdict.
    """
    return _score(selection, dispatch, conventions,
                  _cycles_of(dispatch, selection.problem.spec, conventions))


def _score(selection: PpcSelection, dispatch: DispatchSolution, conventions: Conventions,
           n_cyc: float) -> ProfitabilityReport:
    """``evaluate`` with the dispatch's cycle count already taken."""
    scenario, spec = selection.problem.scenario, selection.problem.spec
    base = scenario.baseline

    g_arb = base.energy_cost - dispatch.energy_cost
    g_pd = selection.g_pd
    g_t = g_arb + g_pd

    # gain per cycle per kWh (0 without cycles) minus the cost of one; where
    # n_cyc·b_rated underflows to 0, dividing in turn gives inf, or 0 at g_t = 0
    per_kwh = n_cyc * spec.b_rated
    p_cyc = (g_t / per_kwh if per_kwh > 0 else (g_t / n_cyc / spec.b_rated if n_cyc > 0 else 0.0)) - spec.c_cyc

    expb = _expected_payback_years(spec.b_cost, g_t, scenario.total_hours, conventions)

    with_batt = baseline_metrics(scenario, dispatch.s)
    check_finite(f"battery {spec.name}", g_arb=g_arb, g_pd=g_pd, g_t=g_t, p_cyc=p_cyc, n_cyc_100=n_cyc,
                 ss=with_batt.ss, waste=with_batt.waste)  # expb is inf when g_t <= 0

    profitable = p_cyc > 0 and expb < spec.calendar_life_years
    return ProfitabilityReport(
        battery=spec,
        g_arb=g_arb,
        g_pd=g_pd,
        g_t=g_t,
        n_cyc_100=n_cyc,
        p_cyc=p_cyc,
        expb_years=expb,
        ss=with_batt.ss,
        waste=with_batt.waste,
        profitable=profitable,
        eta_fric_used=dispatch.eta_fric,
        level_kva=selection.level.kva,
    )


def evaluate_candidate(
    scenario: ScenarioSeries,
    spec: BatterySpec,
    ppc: PpcSchedule,
    conventions: Conventions = Conventions(),
) -> tuple[ProfitabilityReport, PpcSelection]:
    """Full single-candidate pipeline: contract choice, dispatch, scoring.

    The contract search starts from ``conventions.contracted_kva`` (None:
    the smallest level covering the baseline peak); the dispatch uses its
    eta_fric, epsilon and terminal_soc, and is ``selection.dispatch``.
    """
    prob = DispatchProblem(scenario, spec, eta_fric=conventions.eta_fric,
                           epsilon=conventions.epsilon, terminal_soc=conventions.terminal_soc)
    selection = select_ppc(prob, ppc, old_level_kva=conventions.contracted_kva)
    return evaluate(selection, selection.dispatch, conventions), selection


@dataclass(frozen=True)
class TuningResult:
    """Outcome of the friction search for one candidate."""

    eta_fric: float
    report: ProfitabilityReport
    dispatch: DispatchSolution
    untuned_report: ProfitabilityReport
    target_cycles: float
    warning: str | None
    # dispatch solves, the untuned one included: one per sample, so a search
    # that hits before it needs the floor ETA_MIN skips that solve, and an
    # unreachable budget takes three (untuned, 0.5005, ETA_MIN)
    n_solves: int


def tune_friction(
    scenario: ScenarioSeries,
    spec: BatterySpec,
    ppc: PpcSchedule,
    conventions: Conventions = Conventions(),
    target_cycles: float | None = None,
) -> TuningResult:
    """Search eta_fric so the cycle count meets a budget.

    The default budget is the break-even count for the window's day span;
    a given one must be finite and > 0. The search starts from the
    candidate as ``evaluate_candidate`` scores it at eta_fric = 1 (so
    ``conventions.eta_fric`` is not used); if that dispatch is already
    inside the budget, its report is returned unchanged. Otherwise it
    bisects (ETA_MIN, 1] while the bracket is wider than INTERVAL_TOL,
    assuming cycles non-decreasing in eta_fric, then scans five interior
    points of the last bracket, and returns the first sample within
    CYCLE_TOL of the budget. The floor ETA_MIN is sampled right after the
    first bisection point (0.5005) if that one is over budget, and
    otherwise only when no other sample hits, last. When ETA_MIN is over
    budget, it is returned with a warning. When no sample hits, the
    under-budget sample with the most cycles (the largest eta_fric among
    ties) is returned with a warning, which also says the cycle count was
    not monotone when some sample has more than CYCLE_TOL cycles above a
    sample at a larger eta_fric. Compared with sampling ETA_MIN first, the
    answer differs only where the count at ETA_MIN is >= budget - CYCLE_TOL
    and the count at 0.5005 is <= budget + CYCLE_TOL: with counts
    non-decreasing, both meet the budget and 0.5005 is returned. A search
    that hits without the floor takes one solve fewer; an unreachable
    budget takes one more (0.5005, then ETA_MIN). The contract level is
    selected once at eta_fric = 1, and every re-solve is that selection's
    capped problem (with the conventions' epsilon and terminal_soc) at
    another eta_fric.
    """
    if target_cycles is None:
        target_cycles = break_even_cycles(
            spec.cycle_life_100dod, spec.calendar_life_years, horizon_days=scenario.day_count
        )
    if not (math.isfinite(target_cycles) and target_cycles > 0):
        raise ValueError(f"target_cycles must be > 0 and finite, got {target_cycles}")

    # Fix the contract level at eta_fric = 1 so friction only affects billing.
    untuned = replace(conventions, eta_fric=1.0)
    untuned_report, selection = evaluate_candidate(scenario, spec, ppc, untuned)
    samples = [(1.0, untuned_report.n_cyc_100)]  # (eta_fric, cycles) of every solve

    def result(eta: float, dispatch: DispatchSolution, cycles: float, warning: str | None,
               report: ProfitabilityReport | None = None) -> TuningResult:
        # scored with the search's own cycle count, so each solve is counted once
        return TuningResult(
            eta_fric=eta,
            report=report or _score(selection, dispatch, conventions, cycles),
            dispatch=dispatch,
            untuned_report=untuned_report,
            target_cycles=target_cycles,
            warning=warning,
            n_solves=len(samples),
        )

    if untuned_report.n_cyc_100 <= target_cycles + CYCLE_TOL:
        return result(1.0, selection.dispatch, untuned_report.n_cyc_100, None, untuned_report)

    lo, hi = ETA_MIN, 1.0
    # most cycles under budget, the largest eta_fric among ties
    best: tuple[float, DispatchSolution, float] | None = None

    def etas():
        # reads lo, hi and best as the loop below updates them; the scan
        # points come from the bracket the bisection left. The floor is
        # needed at once only after an over-budget first sample, so it
        # comes second then, and otherwise last, if nothing hit.
        yield 0.5 * (lo + hi)
        floor_second = best is None
        if floor_second:
            yield ETA_MIN
        while hi - lo > INTERVAL_TOL:
            yield 0.5 * (lo + hi)
        yield from map(float, np.linspace(lo, hi, 7)[1:-1])
        if not floor_second:
            yield ETA_MIN

    for eta in etas():
        dispatch = solve_dispatch(replace(selection.problem, eta_fric=eta))
        cycles = _cycles_of(dispatch, spec, conventions)
        samples.append((eta, cycles))
        if abs(cycles - target_cycles) <= CYCLE_TOL:
            return result(eta, dispatch, cycles, None)
        if cycles > target_cycles:
            if eta == ETA_MIN:
                return result(eta, dispatch, cycles, f"cycle budget {target_cycles:.2f} unreachable: "
                                                     f"{cycles:.2f} cycles at eta_fric = {eta}")
            hi = eta
        else:
            lo = eta  # at the floor: lo is ETA_MIN already, or read no more
            if best is None or (cycles, eta) > (best[2], best[0]):
                best = (eta, dispatch, cycles)

    eta, dispatch, cycles = best
    warning = (
        f"bisection finished without meeting |cycles - target| <= {CYCLE_TOL}; "
        f"returning eta_fric = {eta:.6f} with {cycles:.2f} cycles "
        f"(target {target_cycles:.2f})"
    )
    by_eta = [c for _, c in sorted(samples)]
    if any(peak > c + CYCLE_TOL for peak, c in zip(accumulate(by_eta, max), by_eta[1:])):
        warning += "; cycle count was not monotone in eta_fric"
    return result(eta, dispatch, cycles, warning)
