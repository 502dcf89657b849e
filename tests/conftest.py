"""Session fixtures: the four synthetic scenarios, generated CSVs, the
default battery catalog, and a panel of solved (scenario x battery)
evaluations reused by the dispatch, profitability, and acceptance tests."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from bessprofit.battery import BatterySpec, default_catalog
from bessprofit.fixtures import FIXTURE_NAMES, gen_fixtures
from bessprofit.optimizer import DispatchSolution, PpcSelection
from bessprofit.profitability import ProfitabilityReport, evaluate_candidate
from bessprofit.timeseries import DEFAULT_PPC_SCHEDULE, ScenarioSeries

from _support import scenario_from_fixture


@pytest.fixture(scope="session")
def scenarios() -> dict[str, ScenarioSeries]:
    return {name: scenario_from_fixture(name) for name in FIXTURE_NAMES}


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixture-csv")
    gen_fixtures(out_dir=out)
    return out


@pytest.fixture(scope="session")
def catalog() -> tuple[BatterySpec, ...]:
    return default_catalog()


@dataclass(frozen=True)
class PanelEntry:
    """One (scenario, battery) evaluation with everything needed to audit it."""

    report: ProfitabilityReport
    dispatch: DispatchSolution
    selection: PpcSelection
    scenario: ScenarioSeries
    spec: BatterySpec


@pytest.fixture(scope="session")
def panel(scenarios, catalog) -> dict[tuple[str, str], PanelEntry]:
    """Contract choice + dispatch + scoring for every fixture x battery pair."""

    def entry(scenario, spec):
        report, selection = evaluate_candidate(scenario, spec, ppc=DEFAULT_PPC_SCHEDULE)
        return PanelEntry(report, selection.dispatch, selection, scenario, spec)

    return {
        (case, spec.name): entry(scenarios[case], spec)
        for case in FIXTURE_NAMES
        for spec in catalog
    }
