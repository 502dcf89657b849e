"""Battery model: cost, power limits, spec validation, and the catalog."""

from __future__ import annotations

import json

import pytest

from bessprofit.battery import (
    BatterySpec,
    catalog_by_name,
    default_catalog,
    load_catalog,
    make_spec,
)
from bessprofit.errors import ConfigError


# ------------------------------------------------------------------ costs


def test_per_cycle_cost_constants():
    # installed cost per kWh (cells + power electronics) over cycle life:
    # 0.25C: (400+25)/4000, 1C: (600+100)/4000, 2C: (700+200)/4000
    assert make_spec("a", 1.0, 0.25, 0.25).c_cyc == pytest.approx(0.10625, abs=1e-12)
    assert make_spec("b", 1.0, 1.0, 1.0).c_cyc == pytest.approx(0.17500, abs=1e-12)
    assert make_spec("c", 1.0, 2.0, 2.0).c_cyc == pytest.approx(0.22500, abs=1e-12)


def test_total_cost_scales_with_capacity():
    small = make_spec("s", 1.0, 1.0, 1.0)
    big = make_spec("b", 5.0, 1.0, 1.0)
    assert small.b_cost == pytest.approx(700.0)
    assert big.b_cost == pytest.approx(3500.0)


def test_per_cycle_cost_inverse_in_cycle_life():
    base = make_spec("x", 1.0, 1.0, 1.0, cycle_life_100dod=4000)
    double = make_spec("y", 1.0, 1.0, 1.0, cycle_life_100dod=8000)
    assert double.c_cyc == pytest.approx(base.c_cyc / 2.0)


def test_unknown_ramp_class_requires_explicit_costs():
    with pytest.raises(ConfigError, match="ramp class"):
        make_spec("odd", 1.0, 0.5, 0.5)
    spec = make_spec("odd", 1.0, 0.5, 0.5, cost_per_kwh=500.0, inverter_cost_per_kwh=50.0)
    assert spec.b_cost == pytest.approx(550.0)


# ------------------------------------------------------------- invariants


def test_spec_invariant_errors():
    with pytest.raises(ConfigError):
        make_spec("bad", 1.0, 1.0, 1.0, soc_min_frac=0.6, soc_init_frac=0.5)
    with pytest.raises(ConfigError):
        make_spec("bad", 1.0, 1.0, 1.0, soc_init_frac=0.5, soc_max_frac=0.4)
    with pytest.raises(ConfigError):
        make_spec("bad", 1.0, 1.0, 1.0, eta_ch=0.0)
    with pytest.raises(ConfigError):
        make_spec("bad", 1.0, 1.0, 1.0, eta_dis=1.2)
    with pytest.raises(ConfigError):
        make_spec("bad", -1.0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        make_spec("bad", 1.0, 1.0, 1.0, cycle_life_100dod=0)
    with pytest.raises(ConfigError):
        make_spec("bad", 1.0, 1.0, 1.0, calendar_life_years=0.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "field",
    ["b_rated", "charge_rate_c", "discharge_rate_c", "cycle_life_100dod",
     "calendar_life_years", "cost_per_kwh", "inverter_cost_per_kwh"],
)
def test_spec_rejects_non_finite_values(field, value):
    args = dict(name="bad", b_rated=1.0, charge_rate_c=1.0, discharge_rate_c=1.0,
                cost_per_kwh=600.0, inverter_cost_per_kwh=100.0)
    args[field] = value
    with pytest.raises(ConfigError, match="finite"):
        make_spec(**args)


def test_spec_power_properties():
    spec = make_spec("p", 2.0, 1.0, 0.25)
    assert spec.delta_max_kw == pytest.approx(2.0)  # 1C charge on 2 kWh
    assert spec.delta_min_kw == pytest.approx(-0.5)  # 0.25C discharge
    assert spec.b_min == pytest.approx(0.2)
    assert spec.b_0 == pytest.approx(1.0)
    assert spec.b_max == pytest.approx(2.0)


# ---------------------------------------------------------------- catalog


def test_default_catalog_grid():
    catalog = default_catalog()
    names = [spec.name for spec in catalog]
    assert names == [
        "1kwh-0.25c", "1kwh-1c", "1kwh-2c",
        "2kwh-0.25c", "2kwh-1c", "2kwh-2c",
        "5kwh-0.25c", "5kwh-1c", "5kwh-2c",
    ]
    for spec in catalog:
        assert spec.eta_ch == 0.95 and spec.eta_dis == 0.95
        assert spec.b_min == pytest.approx(0.1 * spec.b_rated)
        assert spec.b_0 == pytest.approx(0.5 * spec.b_rated)
        assert spec.b_max == pytest.approx(spec.b_rated)
        assert spec.cycle_life_100dod == 4000
        assert spec.calendar_life_years == 7.0


def test_catalog_by_name_round_trip():
    catalog = default_catalog()
    table = catalog_by_name(catalog)
    assert table["2kwh-1c"].b_rated == 2.0
    assert table["5kwh-0.25c"].delta_max_kw == pytest.approx(1.25)


def test_load_catalog_happy_path(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"batteries": [
        {"name": "big", "b_rated_kwh": 10.0, "charge_rate_c": 1.0, "discharge_rate_c": 1.0},
    ]}))
    catalog = load_catalog(path)
    assert len(catalog) == 1
    assert catalog[0].name == "big"
    assert catalog[0].b_rated == 10.0


def test_load_catalog_errors(tmp_path):
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps({"batteries": [
        {"name": "x", "b_rated_kwh": 1.0, "charge_rate_c": 1.0, "discharge_rate_c": 1.0},
        {"name": "x", "b_rated_kwh": 2.0, "charge_rate_c": 1.0, "discharge_rate_c": 1.0},
    ]}))
    with pytest.raises(ConfigError, match="duplicate"):
        load_catalog(dup)

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"batteries": [{"name": "x"}]}))
    with pytest.raises(ConfigError):
        load_catalog(missing)

    odd = tmp_path / "odd.json"
    odd.write_text(json.dumps({"batteries": [
        {"name": "x", "b_rated_kwh": 1.0, "charge_rate_c": 0.5, "discharge_rate_c": 0.5},
    ]}))
    with pytest.raises(ConfigError, match="ramp class"):
        load_catalog(odd)

    with pytest.raises(ConfigError, match="cannot read"):
        load_catalog(tmp_path / "absent.json")

    # 1e400 parses as an infinite float
    huge = tmp_path / "huge.json"
    huge.write_text('{"batteries": [{"name": "x", "b_rated_kwh": 1e400, '
                    '"charge_rate_c": 1, "discharge_rate_c": 1}]}')
    with pytest.raises(ConfigError, match="b_rated must be > 0 and finite"):
        load_catalog(huge)


def test_spec_is_immutable():
    spec = make_spec("frozen", 1.0, 1.0, 1.0)
    with pytest.raises(Exception):
        spec.b_rated = 2.0  # type: ignore[misc]
