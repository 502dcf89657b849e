"""Workload inputs, one pass of each workload, and the correctness checks.

Inputs come only from the seed: the four fixture CSVs from
``fixtures.gen_fixtures(seed)``, cut to their first ``DAYS`` days, and
the noisy-price windows. Their load and PV are fixture c1 at that seed;
their prices follow the AR(1) recipe of the test suite's
``noisy_price_slice``, with a noise seed that moves with the seed and is
that recipe's 7 at the default seed, so there one 10-day window is the
slice gate a7 tunes.

A pass is what the user waits for: one ``sweep`` over every fixture, one
``evaluate`` per fixture, or one ``tune_friction`` per catalog battery and
noisy-price window. How many bisection steps one tuning takes depends on
the input, so the pass tunes several consecutive windows of c1 and that
count averages out across seeds. Checks run after the pass and never
inside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import io
from dataclasses import dataclass
from datetime import timedelta
from pathlib import Path

import numpy as np

from bessprofit import cli, profitability
from bessprofit.battery import default_catalog
from bessprofit.fixtures import DEFAULT_SEED, fixture_arrays, gen_fixtures
from bessprofit.optimizer import DispatchProblem, validate_dispatch
from bessprofit.report import ReportHeader, render_csv
from bessprofit.timeseries import DEFAULT_PPC_SCHEDULE, ScenarioSeries, baseline_metrics

WORKLOADS = ("sweep-j1", "sweep-j2", "tune-noisy", "evaluate-each")

DAYS = 3  # fixture days per sweep / evaluate input
TUNE_DAYS = 2  # days per noisy-price window
TUNE_WINDOWS = 3  # consecutive noisy-price windows tuned per pass

STEPS_PER_DAY = 288
H = 5.0 / 60.0
NOISE_SEED = 7  # the AR(1) seed of tests/_support.noisy_price_slice
EVALUATE_BATTERY = "2kwh-1c"
CYCLE_TOL = 0.5  # tune_friction's default cycle tolerance


@dataclass(frozen=True)
class Inputs:
    fixtures: tuple[Path, ...]
    noisy: tuple[ScenarioSeries, ...]  # noisy-price windows
    batteries: tuple  # BatterySpec, in catalog order


def noisy_price_slice(seed: int, days: int, offset_days: int, name: str) -> ScenarioSeries:
    """`days` days of c1 at `seed` from `offset_days` on, priced by one
    seeded AR(1) series that starts at day 0. The noise seed is
    NOISE_SEED at DEFAULT_SEED and moves one for one with `seed`."""
    start, load_w, pv_w = fixture_arrays("c1", seed)
    lo = offset_days * STEPS_PER_DAY
    n = lo + days * STEPS_PER_DAY
    rng = np.random.default_rng((NOISE_SEED + seed - DEFAULT_SEED) % 2**32)
    rho = 0.97
    gain = np.sqrt(1.0 - rho * rho)
    acc = 0.0
    noise = np.empty(n)
    for i in range(n):
        acc = rho * acc + gain * rng.standard_normal()
        noise[i] = acc
    return ScenarioSeries(
        start_time=start + timedelta(days=offset_days),
        h=H,
        load=load_w[lo:n] * H / 1000.0,
        pv=pv_w[lo:n] * H / 1000.0,
        price=np.clip(0.25 + 0.12 * noise[lo:], 0.02, None),
        name=name,
    )


def make_inputs(workload: str, seed: int, work: Path) -> Inputs:
    """Generate the workload's inputs under `work`."""
    catalog = tuple(default_catalog())
    if workload == "tune-noisy":
        windows = tuple(noisy_price_slice(seed, TUNE_DAYS, k * TUNE_DAYS, f"c1noisy{k}")
                        for k in range(TUNE_WINDOWS))
        return Inputs((), windows, catalog)
    sliced = []
    for full in gen_fixtures(seed=seed, out_dir=work / "full"):
        lines = full.read_text().splitlines(keepends=True)
        header = sum(1 for line in lines if line.startswith("#")) + 1
        path = work / full.name
        path.write_text("".join(lines[: header + DAYS * STEPS_PER_DAY]), newline="")
        sliced.append(path)
    return Inputs(tuple(sliced), (), catalog)


def candidates(workload: str, inputs: Inputs) -> list[tuple[str, str]]:
    """(scenario, battery) pairs one pass attempts."""
    if workload == "tune-noisy":
        return [(w.name, s.name) for w in inputs.noisy for s in inputs.batteries]
    if workload == "evaluate-each":
        return [(p.stem, EVALUATE_BATTERY) for p in inputs.fixtures]
    return [(p.stem, s.name) for p in inputs.fixtures for s in inputs.batteries]


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        # looked up on the module so a tracer's wrapper is seen
        return cli.main(argv)


def run_pass(workload: str, inputs: Inputs, out: Path):
    """One pass of the workload; returns the exit codes or the tuning results."""
    if workload == "tune-noisy":
        return [profitability.tune_friction(window, spec, ppc=DEFAULT_PPC_SCHEDULE)
                for window in inputs.noisy for spec in inputs.batteries]
    if workload == "evaluate-each":
        return [_cli(["evaluate", str(p), "--battery", EVALUATE_BATTERY, "--out", str(out)])
                for p in inputs.fixtures]
    jobs = workload.removeprefix("sweep-j")
    return [_cli(["sweep", *map(str, inputs.fixtures), "--jobs", jobs, "--out", str(out)])]


def artifacts(workload: str, inputs: Inputs, out: Path, result) -> dict[str, bytes]:
    """Output files of one pass, by name. The tuning pass writes none, so its
    reports are rendered to CSV here, outside the timed region."""
    if workload == "tune-noisy":
        per_window = len(inputs.batteries)
        arts = {}
        for k, window in enumerate(inputs.noisy):
            header = ReportHeader(scenario=window.name, config_hash="-")
            reports = [r.report for r in result[k * per_window:(k + 1) * per_window]]
            text = render_csv(header, baseline_metrics(window), reports)
            arts[f"{window.name}-tuned-report.csv"] = text.encode()
        return arts
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _csv_rows(data: bytes) -> dict[str, list[str]]:
    lines = [line for line in data.decode().splitlines() if not line.startswith("#")]
    rows = list(csv.reader(lines))
    return {row[0]: row for row in rows[1:]}


def check_pass(workload: str, inputs: Inputs, result, arts: dict[str, bytes],
               reference: dict[str, bytes]) -> set[tuple[str, str]]:
    """Candidates of one pass that errored or failed a check."""
    failed: set[tuple[str, str]] = set()
    pairs = candidates(workload, inputs)
    if workload == "tune-noisy":
        tuned = [(w, spec) for w in inputs.noisy for spec in inputs.batteries]
        for (window, spec), res in zip(tuned, result):
            cycles = res.report.n_cyc_100
            within = (abs(cycles - res.target_cycles) <= CYCLE_TOL
                      or (res.eta_fric == 1.0 and cycles <= res.target_cycles + CYCLE_TOL))
            original = DispatchProblem(window, spec, p_max_set=res.report.level_kva)
            if not (within or res.warning) or validate_dispatch(original, res.dispatch):
                failed.add((window.name, spec.name))
    elif any(code != 0 for code in result):
        return set(pairs)
    for scenario, battery in pairs:
        for name, data in arts.items():
            if not name.startswith(f"{scenario}-"):
                continue
            if reference.get(name) != data:
                failed.add((scenario, battery))
            if name.endswith(("-sweep.csv", "-report.csv")) and battery not in _csv_rows(data):
                failed.add((scenario, battery))  # the candidate errored
    return failed


def check_against(workload: str, inputs: Inputs, arts: dict[str, bytes],
                  other: dict[str, bytes]) -> set[tuple[str, str]]:
    """Run-level checks against a second CLI run made after the timed passes.

    For a sweep, `other` holds the other --jobs variant's files, which must
    be byte-identical. For evaluate-each, `other` holds a sweep of the same
    fixtures, and each evaluate report row must equal that battery's row in
    the sweep CSV.
    """
    failed: set[tuple[str, str]] = set()
    for scenario, battery in candidates(workload, inputs):
        if workload == "evaluate-each":
            mine = _csv_rows(arts.get(f"{scenario}-{battery}-report.csv", b"")).get(battery)
            swept = _csv_rows(other.get(f"{scenario}-sweep.csv", b"")).get(battery)
            ok = mine is not None and mine == swept
        else:
            ok = all(other.get(name) == arts[name] for name in arts if name.startswith(f"{scenario}-"))
        if not ok:
            failed.add((scenario, battery))
    return failed


def check_dispatches(spans) -> set[tuple[str, str]]:
    """Every dispatch a traced pass produced: validator clean, bill <= baseline.

    The bill bound holds when the no-battery plan meets the peak cap, since
    that plan is then feasible for the LP. A cap below the baseline peak
    forces discharges whose charging can cost more than the baseline bill,
    so the bound is not checked there.
    """
    failed: set[tuple[str, str]] = set()
    for span in spans:
        if span.payload is None:
            continue
        prob, dispatch = span.payload
        scenario = prob.scenario
        z = scenario.load - scenario.pv
        base = baseline_metrics(scenario).energy_cost
        uncapped = float(np.max(z)) / scenario.h <= prob.p_max_set
        over_bill = dispatch.energy_cost > base + 1e-7 * (1.0 + abs(base))
        if validate_dispatch(prob, dispatch) or (uncapped and over_bill):
            failed.add((scenario.name, prob.spec.name))
    return failed
