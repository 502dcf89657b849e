"""Scenario ingestion, tariff lookup, contract tables, and baseline metrics.

The baseline numbers for the four synthetic months are pinned against an
in-test direct summation (plain Python floats, per-timestamp lookup in the
tariff's minute table) so a regression in the vectorized path cannot hide.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

from bessprofit.errors import ConfigError, DegenerateScenarioError, ScenarioError
from bessprofit.fixtures import FIXTURE_NAMES, fixture_arrays
from bessprofit.timeseries import (
    DEFAULT_PPC_SCHEDULE,
    DEFAULT_TOU_TARIFF,
    PpcLevel,
    PpcSchedule,
    ScenarioSeries,
    TariffPeriod,
    TariffSchedule,
    baseline_metrics,
    iso_stamps,
    load_ppc,
    load_scenario,
    load_tariff,
)

from _support import H, mini_scenario, step_times

# Direct-summation reference values for the shipped synthetic months
# (plain-float loop over steps, tariff looked up per timestamp).
BASELINE = {
    "c1": dict(load=459.00000833333365, waste=40.47482499999999,
               ss=0.3039760293395785, cost=62.04485516666683, peak=5.9041),
    "c2": dict(load=719.9161916666791, waste=0.0,
               ss=0.16668562913626836, cost=118.26407579166745, peak=3.88),
    "c3": dict(load=1968.9689750000045, waste=51.361224999999926,
               ss=0.28372134033583557, cost=274.78408654166765, peak=14.200000000000001),
    "c4": dict(load=306.00008333333363, waste=162.4002083333331,
               ss=0.4660114743977478, cost=31.639085291666674, peak=6.164999999999999),
}


def direct_summation(scenario: ScenarioSeries) -> dict:
    """Independent per-step accumulation with scalar arithmetic."""
    total_load = 0.0
    waste = 0.0
    imported = 0.0
    cost = 0.0
    peak = 0.0
    times = step_times(scenario)
    for i in range(scenario.n):
        load = float(scenario.load[i])
        pv = float(scenario.pv[i])
        z = load - pv
        total_load += load
        if z < 0:
            waste += -z
        else:
            imported += z
            cost += DEFAULT_TOU_TARIFF._minute_prices[times[i].hour * 60 + times[i].minute] * z
            peak = max(peak, z / scenario.h)
    ss = (total_load - imported) / total_load
    return dict(load=total_load, waste=waste, ss=ss, cost=cost, peak=peak)


# -------------------------------------------------------------- baselines


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_baseline_metrics_match_direct_summation(scenarios, name):
    scenario = scenarios[name]
    ref = direct_summation(scenario)
    metrics = baseline_metrics(scenario)
    assert metrics.waste == pytest.approx(ref["waste"], abs=1e-9)
    assert metrics.ss == pytest.approx(ref["ss"], abs=1e-12)
    assert metrics.energy_cost == pytest.approx(ref["cost"], abs=1e-9)
    peak = float(np.max(scenario.z)) / scenario.h
    assert peak == pytest.approx(ref["peak"], abs=1e-9)
    # and against the frozen values, so the generator itself cannot drift
    frozen = BASELINE[name]
    assert float(np.sum(scenario.load)) == pytest.approx(frozen["load"], rel=1e-12)
    assert metrics.waste == pytest.approx(frozen["waste"], abs=1e-9)
    assert metrics.ss == pytest.approx(frozen["ss"], abs=1e-12)
    assert metrics.energy_cost == pytest.approx(frozen["cost"], rel=1e-12)
    assert peak == pytest.approx(frozen["peak"], abs=1e-9)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_import_minus_waste_equals_net_load_sum(scenarios, name):
    scenario = scenarios[name]
    z = scenario.load - scenario.pv
    imported = float(np.sum(np.maximum(z, 0.0)))
    waste = float(np.sum(np.maximum(-z, 0.0)))
    assert imported - waste == pytest.approx(float(np.sum(z)), abs=1e-9)


def test_fixture_shapes_and_window(scenarios):
    for name in FIXTURE_NAMES:
        scenario = scenarios[name]
        assert scenario.n == 8640
        assert scenario.h == pytest.approx(H)
        assert scenario.total_hours == pytest.approx(720.0)
        assert scenario.day_count == pytest.approx(30.0)
        assert scenario.start_time == datetime(2019, 6, 1)


def test_generator_self_checks(scenarios):
    # tracking case: essentially no spilled PV; oversized-PV case: heavy spill
    assert baseline_metrics(scenarios["c2"]).waste < 5.0
    assert baseline_metrics(scenarios["c4"]).waste >= 100.0


def test_net_load_sign_conventions(scenarios):
    z = scenarios["c1"].z
    np.testing.assert_allclose(z, scenarios["c1"].load - scenarios["c1"].pv)
    assert not z.flags.writeable
    assert float(np.sum(z)) > 0  # modest PV: net importer
    # oversized PV variant: scaling generation up flips the window to net export
    start, load_w, pv_w = fixture_arrays("c4")
    surplus = ScenarioSeries(
        start_time=start, h=H,
        load=load_w * H / 1000.0, pv=1.05 * pv_w * H / 1000.0,
        price=np.full(load_w.shape, 0.2), name="c4-surplus",
    )
    assert float(np.sum(surplus.z)) < 0


def test_self_sufficiency_edges():
    times_price = np.full(4, 0.25)
    balanced = ScenarioSeries(
        start_time=datetime(2019, 6, 1), h=1.0,
        load=np.array([1.0, 2.0, 1.5, 0.5]), pv=np.array([1.0, 2.0, 1.5, 0.5]),
        price=times_price, name="balanced",
    )
    m = baseline_metrics(balanced)
    assert m.ss == pytest.approx(1.0)
    assert m.waste == pytest.approx(0.0)
    assert m.energy_cost == pytest.approx(0.0)

    no_pv = ScenarioSeries(
        start_time=datetime(2019, 6, 1), h=1.0,
        load=np.array([1.0, 2.0, 1.5, 0.5]), pv=np.zeros(4),
        price=times_price, name="no-pv",
    )
    m2 = baseline_metrics(no_pv)
    assert m2.ss == pytest.approx(0.0)
    assert m2.energy_cost == pytest.approx(0.25 * 5.0)


def test_zero_load_window_is_degenerate():
    scenario = ScenarioSeries(
        start_time=datetime(2019, 6, 1), h=1.0,
        load=np.zeros(3), pv=np.array([1.0, 0.0, 2.0]),
        price=np.full(3, 0.2), name="pv-only",
    )
    with pytest.raises(DegenerateScenarioError):
        baseline_metrics(scenario)


def test_step_split_invariance():
    # halving the step at equal power must leave every energy total unchanged
    rng = np.random.default_rng(14)
    load_kw = rng.uniform(0.0, 3.0, 6)
    pv_kw = rng.uniform(0.0, 3.0, 6)
    price = rng.uniform(0.1, 0.4, 6)
    coarse = ScenarioSeries(
        start_time=datetime(2019, 6, 1), h=0.5,
        load=load_kw * 0.5, pv=pv_kw * 0.5, price=price, name="coarse",
    )
    fine = ScenarioSeries(
        start_time=datetime(2019, 6, 1), h=0.25,
        load=np.repeat(load_kw, 2) * 0.25, pv=np.repeat(pv_kw, 2) * 0.25,
        price=np.repeat(price, 2), name="fine",
    )
    mc, mf = baseline_metrics(coarse), baseline_metrics(fine)
    assert mf.waste == pytest.approx(mc.waste, abs=1e-12)
    assert mf.ss == pytest.approx(mc.ss, abs=1e-12)
    assert mf.energy_cost == pytest.approx(mc.energy_cost, abs=1e-12)
    assert float(np.max(fine.z)) / fine.h == pytest.approx(float(np.max(coarse.z)) / coarse.h, abs=1e-12)


def test_scenario_validation_errors():
    good = dict(start_time=datetime(2019, 6, 1), h=1.0, price=np.full(2, 0.2), name="x")
    with pytest.raises(ScenarioError):
        ScenarioSeries(load=np.array([1.0]), pv=np.zeros(2), **good)
    with pytest.raises(ScenarioError):
        ScenarioSeries(load=1.0, pv=np.zeros(2), **good)
    with pytest.raises(ScenarioError):
        ScenarioSeries(load=np.array([1.0, np.nan]), pv=np.zeros(2), **good)
    with pytest.raises(ScenarioError):
        ScenarioSeries(load=np.array([1.0, -0.1]), pv=np.zeros(2), **good)


# ---------------------------------------------------------------- loading


def _csv(tmp_path: Path, rows: list[str]) -> Path:
    path = tmp_path / "scenario.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def test_load_scenario_converts_power_to_energy(tmp_path):
    rows = ["timestamp,load_w,pv_w"]
    start = datetime(2019, 6, 1)
    for i in range(12):
        t = start + i * timedelta(minutes=5)
        rows.append(f"{t.isoformat()},300,120")
    scenario = load_scenario(_csv(tmp_path, rows))
    assert scenario.h == pytest.approx(H)
    assert float(np.sum(scenario.load)) == pytest.approx(0.3)  # 300 W for 1 h
    assert float(np.sum(scenario.pv)) == pytest.approx(0.12)
    assert scenario.price[0] == pytest.approx(0.185)  # midnight: off-peak


def test_load_scenario_skips_comment_rows_anywhere(tmp_path):
    rows = [
        "# generated for testing",
        "timestamp,load_w,pv_w",
        "2019-06-01T00:00:00,100,0",
        "# mid-file note",
        "2019-06-01T00:05:00,200,0",
    ]
    scenario = load_scenario(_csv(tmp_path, rows))
    assert scenario.n == 2


def test_load_scenario_header_must_match(tmp_path):
    with pytest.raises(ScenarioError, match="header"):
        load_scenario(_csv(tmp_path, ["time,load,pv", "2019-06-01T00:00:00,1,2"]))


@pytest.mark.parametrize(
    "row,pattern",
    [
        ("2019-06-01T00:05:00,100", "3 columns"),
        ("not-a-time,100,0", "bad timestamp"),
        ("2019-06-01T00:05:00,abc,0", "bad power"),
        ("2019-06-01T00:05:00,-5,0", "negative"),
        ("2019-06-01T00:05:00,inf,0", "non-finite"),
    ],
)
def test_load_scenario_reports_bad_lines(row, pattern, tmp_path):
    rows = ["timestamp,load_w,pv_w", "2019-06-01T00:00:00,100,0", row]
    with pytest.raises(ScenarioError, match=pattern):
        load_scenario(_csv(tmp_path, rows))


def test_load_scenario_needs_two_rows(tmp_path):
    with pytest.raises(ScenarioError, match="two rows"):
        load_scenario(_csv(tmp_path, ["timestamp,load_w,pv_w", "2019-06-01T00:00:00,100,0"]))


def _spacing_case(second: str, third: str, message: str, kind: str):
    return pytest.param(f"2019-{second}:00,100,0", f"2019-{third}:00,100,0", message, id=kind)


@pytest.mark.parametrize(
    "second,third,message",
    [
        _spacing_case("06-01T00:05", "06-01T00:15", "line 4: gap in measurements (0:10:00 vs expected 0:05:00)",
                      "2019-06-01T00:15:00,100,0-gap"),
        _spacing_case("06-01T00:05", "06-01T00:08", "line 4: non-uniform spacing (0:03:00 vs expected 0:05:00)",
                      "2019-06-01T00:08:00,100,0-non-uniform"),
        _spacing_case("06-01T00:05", "06-01T00:05", "line 4: duplicate timestamp 2019-06-01T00:05:00",
                      "2019-06-01T00:05:00,100,0-duplicate"),
        _spacing_case("06-01T00:05", "06-01T00:01", "line 4: timestamps not increasing",
                      "2019-06-01T00:01:00,100,0-not increasing"),
        # the first pair sets the spacing, so it is checked before any later row
        _spacing_case("06-01T00:00", "06-01T00:05", "line 3: duplicate timestamp 2019-06-01T00:00:00",
                      "first-pair-duplicate"),
        _spacing_case("05-31T23:55", "06-01T00:05", "line 3: timestamps not increasing",
                      "first-pair-not-increasing"),
    ],
)
def test_load_scenario_spacing_errors(second, third, message, tmp_path):
    rows = ["timestamp,load_w,pv_w", "2019-06-01T00:00:00,100,0", second, third]
    with pytest.raises(ScenarioError) as info:
        load_scenario(_csv(tmp_path, rows))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "rows,message",
    [
        (["# a", "# b", "timestamp,load_w,pv_w", "2019-06-01T00:00:00,100,0",
          "2019-06-01T00:05:00,100,0", "2019-06-01T00:15:00,100,0"],
         "line 6: gap in measurements (0:10:00 vs expected 0:05:00)"),
        (["# a", "timestamp,load_w,pv_w", "2019-06-01T00:00:00,100,0",
          "2019-06-01T00:05:00+00:00,100,0"],
         "line 4: timestamps mix naive and UTC-offset times"),
        (["timestamp,load_w,pv_w", "2019-06-01T00:00:00,100,0", "",
          "# note", "2019-06-01T00:00:00,100,0"],
         "line 5: duplicate timestamp 2019-06-01T00:00:00"),
        # five minutes apart across a summer-time switch; checked before the spacing
        (["timestamp,load_w,pv_w", "2019-03-31T00:55:00+00:00,100,0", "# switch",
          "2019-03-31T02:00:00+01:00,100,0", "2019-03-31T02:15:00+01:00,100,0"],
         "line 4: UTC offset changes from +00:00 to +01:00"),
        # each row is checked as it is read, so the first faulty line in the file is named
        (["timestamp,load_w,pv_w", "2019-06-01T00:00:00,100,0", "2019-06-01T00:05:00,100,0",
          "2019-06-01T00:15:00,100,0", "2019-06-01T00:20:00,100,0", "2019-06-01T00:25:00,-5,0"],
         "line 4: gap in measurements (0:10:00 vs expected 0:05:00)"),
        (["timestamp,load_w,pv_w", "2019-06-01T00:00:00,100,0", "2019-06-01T00:05:00+00:00,100,0",
          "oops,100,0"],
         "line 3: timestamps mix naive and UTC-offset times"),
    ],
    ids=["gap-after-comments", "mixed-after-comment", "duplicate-after-blank", "offset-change-after-comment",
         "gap-before-negative", "mixed-before-bad-stamp"],
)
def test_load_scenario_errors_count_comment_and_blank_lines(rows, message, tmp_path):
    with pytest.raises(ScenarioError) as info:
        load_scenario(_csv(tmp_path, rows))
    assert str(info.value) == message


def test_load_scenario_step_must_match_file(tmp_path):
    rows = [
        "timestamp,load_w,pv_w",
        "2019-06-01T00:00:00,100,0",
        "2019-06-01T00:05:00,100,0",
    ]
    with pytest.raises(ScenarioError, match="does not match file spacing"):
        load_scenario(_csv(tmp_path, rows), h=0.25)
    assert load_scenario(_csv(tmp_path, rows), h=H).n == 2


def test_load_scenario_reads_generated_files(fixture_dir, scenarios):
    for name in FIXTURE_NAMES:
        scenario = load_scenario(fixture_dir / f"{name}.csv")
        assert scenario.name == name
        np.testing.assert_allclose(scenario.load, scenarios[name].load, atol=1e-12)
        np.testing.assert_allclose(scenario.pv, scenarios[name].pv, atol=1e-12)
        np.testing.assert_allclose(scenario.price, scenarios[name].price)


@pytest.mark.parametrize(
    "start,h,n",
    [
        (datetime(2019, 12, 31, 22, 0), 7 / 60, 60),
        (datetime(2019, 6, 1, 23, 59, 58, 123), 1.5 / 3600, 10),
        (datetime(2019, 6, 1), 1 / 7, 3 * 24 * 7 + 5),
        (datetime(2019, 6, 1), 2 / 7, 3 * 24 * 7 + 5),
        (datetime(2019, 6, 1, 0, 10, tzinfo=timezone(-timedelta(hours=5, minutes=30))), 0.25, 200),
        (datetime(2020, 2, 28, 20, 0, tzinfo=timezone(timedelta(hours=1))), 1.0, 60),
        (datetime(2019, 6, 1, 3, 0, tzinfo=timezone(timedelta(hours=5, seconds=30))), 1.0, 30),
        (datetime(2019, 6, 1, 5, 30), 26.0, 40),
        (datetime(2019, 6, 1, 12, 0, 0, 500), H, 1),
        (datetime(2019, 6, 1), H, 8640),
    ],
    ids=["7-min-over-year-end", "1.5-s-from-123-us", "1/7-h-rounded-us", "2/7-h-rounded-up-us",
         "offset-minus-05:30", "offset-plus-01:00-over-29-feb", "offset-with-seconds", "26-h",
         "one-step", "fixture-grid"],
)
def test_step_stamps_are_the_isoformat_of_each_step(start, h, n):
    scenario = replace(mini_scenario(np.ones(n), np.zeros(n), h=h), start_time=start)
    want = [t.isoformat() for t in step_times(scenario)]
    assert scenario.step_stamps() == want
    assert iso_stamps(start, timedelta(hours=h), n) == want


# ----------------------------------------------------------------- tariff


def _price_at(tariff: TariffSchedule, t: datetime) -> float:
    """The price of one step that starts at t."""
    return tariff.prices(t, timedelta(minutes=5), 1)[0]


def test_default_tariff_boundaries():
    day = datetime(2019, 6, 1)
    assert _price_at(DEFAULT_TOU_TARIFF, day.replace(hour=7, minute=59)) == 0.185
    assert _price_at(DEFAULT_TOU_TARIFF, day.replace(hour=8, minute=0)) == 0.20
    assert _price_at(DEFAULT_TOU_TARIFF, day.replace(hour=21, minute=59)) == 0.20
    assert _price_at(DEFAULT_TOU_TARIFF, day.replace(hour=22, minute=0)) == 0.185


NIGHT_TARIFF = TariffSchedule(
    periods=(TariffPeriod(start_minute=23 * 60, end_minute=6 * 60, price=0.10),),
    fallback_price=0.30,
)
THREE_PERIODS = TariffSchedule(
    periods=(TariffPeriod(22 * 60 + 1, 7 * 60 + 13, 0.05), TariffPeriod(8 * 60, 22 * 60, 0.25)),
    fallback_price=0.15,
)


@pytest.mark.parametrize("tariff", [DEFAULT_TOU_TARIFF, NIGHT_TARIFF, THREE_PERIODS],
                         ids=["default", "wraps-midnight", "one-of-two-wraps"])
@pytest.mark.parametrize(
    "start,step,n",
    [
        (datetime(2019, 6, 1, 7, 3), timedelta(minutes=7), 500),
        (datetime(2019, 12, 31, 21, 58, 30, tzinfo=timezone(timedelta(hours=1))), timedelta(seconds=90), 2000),
        (datetime(2019, 6, 1, 7, 59, 58, 123), timedelta(seconds=1.5, microseconds=7), 60_000),
        (datetime(2019, 6, 1, 23, 59, 58, 123, tzinfo=timezone(-timedelta(hours=5, minutes=30))),
         timedelta(seconds=1.5, microseconds=7), 60_000),
        (datetime(2019, 6, 1, 21, 59, 59, 999_999), timedelta(minutes=5), 1),
    ],
    ids=["7-min", "90-s-offset-plus-01:00-over-year-end", "1.5-s-7-us", "1.5-s-7-us-offset-minus-05:30",
         "one-step"],
)
def test_grid_prices_match_each_stamps_minute(tariff, start, step, n):
    # no step divides a minute or a day; every window but the one-step one
    # crosses midnight, 08:00 and 22:00
    want = [tariff._minute_prices[t.hour * 60 + t.minute] for t in (start + i * step for i in range(n))]
    assert tariff.prices(start, step, n).tolist() == want


def test_tariff_wrap_across_midnight():
    day = datetime(2019, 6, 1)
    assert _price_at(NIGHT_TARIFF, day.replace(hour=23, minute=30)) == 0.10
    assert _price_at(NIGHT_TARIFF, day.replace(hour=2, minute=0)) == 0.10
    assert _price_at(NIGHT_TARIFF, day.replace(hour=6, minute=0)) == 0.30
    assert _price_at(NIGHT_TARIFF, day.replace(hour=12, minute=0)) == 0.30


def test_tariff_rejects_overlap_and_empties():
    with pytest.raises(ConfigError, match="overlap"):
        TariffSchedule(
            periods=(
                TariffPeriod(start_minute=0, end_minute=600, price=0.1),
                TariffPeriod(start_minute=599, end_minute=700, price=0.2),
            ),
            fallback_price=0.1,
        )
    with pytest.raises(ConfigError, match="empty"):
        TariffSchedule(periods=(TariffPeriod(60, 60, 0.1),), fallback_price=0.1)
    with pytest.raises(ConfigError):
        TariffSchedule(periods=(), fallback_price=-0.1)
    with pytest.raises(ConfigError):
        TariffSchedule(periods=(TariffPeriod(0, 60, -0.5),), fallback_price=0.1)


@pytest.mark.parametrize(
    "periods,fallback",
    [
        ((), math.nan),
        ((), math.inf),
        ((TariffPeriod(3 * 60 + 1, 3 * 60 + 2, math.inf),), 0.1),
        ((TariffPeriod(0, 60, math.nan),), 0.1),
    ],
    ids=["fallback-nan", "fallback-inf", "period-inf", "period-nan"],
)
def test_tariff_rejects_non_finite_prices(periods, fallback):
    with pytest.raises(ConfigError, match="must be finite"):
        TariffSchedule(periods=periods, fallback_price=fallback)


def test_load_tariff_roundtrip(tmp_path):
    path = tmp_path / "tariff.json"
    path.write_text(json.dumps({
        "periods": [{"start": "08:00", "end": "24:00", "price": 0.3}],
        "fallback_price": 0.1,
    }))
    tariff = load_tariff(path)
    assert _price_at(tariff, datetime(2019, 6, 1, 7, 59)) == 0.1
    assert _price_at(tariff, datetime(2019, 6, 1, 23, 59)) == 0.3


@pytest.mark.parametrize(
    "payload",
    [
        "not json",
        json.dumps([1, 2, 3]),
        json.dumps({"periods": []}),  # fallback missing
        json.dumps({"periods": [{"start": "8h"}], "fallback_price": 0.1}),
        json.dumps({"periods": [{"start": "25:00", "end": "26:00", "price": 1}],
                    "fallback_price": 0.1}),
    ],
)
def test_load_tariff_rejects_bad_files(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    with pytest.raises(ConfigError):
        load_tariff(path)


def test_load_tariff_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_tariff("/nonexistent/tariff.json")


# ------------------------------------------------------------------- PPC


def test_default_ppc_table_exact():
    expected = [
        (3.45, 0.1643), (4.60, 0.2132), (5.75, 0.2590), (6.90, 0.3080),
        (10.35, 0.4532), (13.80, 0.5981), (17.25, 0.7436), (20.70, 0.8892),
    ]
    assert [(lv.kva, lv.eur_per_day) for lv in DEFAULT_PPC_SCHEDULE.levels] == expected


def test_ppc_lookups():
    sched = DEFAULT_PPC_SCHEDULE
    assert sched.smallest_covering(5.8).kva == 6.90
    assert sched.smallest_covering(0.1).kva == 3.45
    assert sched.smallest_covering(3.45).kva == 3.45
    assert sched.smallest_covering(25.0) is None
    assert sched.level_for(4.6).eur_per_day == 0.2132
    with pytest.raises(ConfigError, match="no PPC level"):
        sched.level_for(4.0)


def test_ppc_rejects_disorder():
    with pytest.raises(ConfigError):
        PpcSchedule(())
    with pytest.raises(ConfigError, match="strictly increasing"):
        PpcSchedule((PpcLevel(3.45, 0.2), PpcLevel(3.45, 0.3)))
    with pytest.raises(ConfigError, match="strictly increasing"):
        PpcSchedule((PpcLevel(3.45, 0.3), PpcLevel(4.6, 0.2)))
    with pytest.raises(ConfigError):
        PpcSchedule((PpcLevel(-1.0, 0.1),))


@pytest.mark.parametrize("level", [
    {"kva": 3.45, "eur_per_day": math.nan}, {"kva": math.inf, "eur_per_day": 0.1},
    {"kva": math.nan, "eur_per_day": 0.1}, {"kva": 3.45, "eur_per_day": math.inf},
])
def test_ppc_rejects_non_finite_levels(tmp_path, level):
    path = tmp_path / "ppc.json"
    path.write_text(json.dumps({"levels": [{"kva": 2.0, "eur_per_day": 0.05}, level]}))
    with pytest.raises(ConfigError, match="both finite"):
        load_ppc(path)


def test_load_ppc_roundtrip_and_errors(tmp_path):
    path = tmp_path / "ppc.json"
    path.write_text(json.dumps({"levels": [
        {"kva": 2.0, "eur_per_day": 0.1}, {"kva": 4.0, "eur_per_day": 0.2},
    ]}))
    sched = load_ppc(path)
    assert sched.smallest_covering(3.0).kva == 4.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"levels": [{"kva": 2.0}]}))
    with pytest.raises(ConfigError):
        load_ppc(bad)
    with pytest.raises(ConfigError, match="cannot read"):
        load_ppc(tmp_path / "missing.json")


# ------------------------------------------------------------- mini builder


def test_mini_scenario_splits_signed_net_load():
    scenario = mini_scenario([0.5, -0.8, 0.0], [0.1, 0.2, 0.3])
    np.testing.assert_allclose(scenario.load, [0.5, 0.0, 0.0])
    np.testing.assert_allclose(scenario.pv, [0.0, 0.8, 0.0])
    np.testing.assert_allclose(scenario.z, [0.5, -0.8, 0.0])
