"""Battery electrical and cost model.

Energies are kWh. A battery is rated "xC-yC": it charges fully in 1/x
hours and discharges fully in 1/y hours, so the power limits are
delta_max = x·b_rated kW (charging) and delta_min = −y·b_rated kW
(discharging). Charging stores eta_ch of what the grid side supplies;
discharging delivers eta_dis of what storage releases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .timeseries import json_number, json_str, read_config

__all__ = [
    "BatterySpec",
    "make_spec",
    "default_catalog",
    "load_catalog",
    "DEFAULT_CYCLE_LIFE_100DOD",
    "DEFAULT_CALENDAR_LIFE_YEARS",
]

DEFAULT_CYCLE_LIFE_100DOD = 4000
DEFAULT_CALENDAR_LIFE_YEARS = 7.0
DEFAULT_ETA_CH = 0.95
DEFAULT_ETA_DIS = 0.95

# Default per-kWh costs by ramp class max(x, y): (battery €/kWh, inverter €/kWh).
_COSTS_BY_RAMP_CLASS = {
    0.25: (400.0, 25.0),
    1.0: (600.0, 100.0),
    2.0: (700.0, 200.0),
}


@dataclass(frozen=True)
class BatterySpec:
    """Electrical limits, lifetime, and cost breakdown of one battery candidate."""

    b_rated: float
    b_min: float
    b_max: float
    b_0: float
    eta_ch: float
    eta_dis: float
    charge_rate_c: float
    discharge_rate_c: float
    cycle_life_100dod: float = DEFAULT_CYCLE_LIFE_100DOD
    calendar_life_years: float = DEFAULT_CALENDAR_LIFE_YEARS
    cost_per_kwh: float = 0.0
    inverter_cost_per_kwh: float = 0.0
    name: str = ""

    def __post_init__(self):
        if not 0 < self.b_rated < math.inf:
            raise ConfigError("b_rated must be > 0 and finite")
        if not (0 <= self.b_min <= self.b_0 <= self.b_max <= self.b_rated):
            raise ConfigError("need 0 <= b_min <= b_0 <= b_max <= b_rated")
        for label, eta in (("eta_ch", self.eta_ch), ("eta_dis", self.eta_dis)):
            if not (0 < eta <= 1):
                raise ConfigError(f"{label} must be in (0, 1]")
        if not (0 <= self.charge_rate_c < math.inf and 0 <= self.discharge_rate_c < math.inf):
            raise ConfigError("C-rates must be >= 0 and finite")
        if not 0 < self.cycle_life_100dod < math.inf:
            raise ConfigError("cycle_life_100dod must be > 0 and finite")
        if not 0 < self.calendar_life_years < math.inf:
            raise ConfigError("calendar_life_years must be > 0 and finite")
        if not (0 <= self.cost_per_kwh < math.inf and 0 <= self.inverter_cost_per_kwh < math.inf):
            raise ConfigError("costs must be >= 0 and finite")
        # finite factors can still overflow: 2C of 1e308 kWh is inf kW
        if not (math.isfinite(self.delta_max_kw) and math.isfinite(self.delta_min_kw)):
            raise ConfigError("C-rate times b_rated must be finite")
        # and so can the costs: two costs of 1e308 €/kWh sum to inf
        if not (math.isfinite(self.c_cyc) and math.isfinite(self.b_cost)):
            raise ConfigError("costs per cycle and times b_rated must be finite")
        if not 1.0 / self.eta_ch < math.inf:  # eta_ch = 1e-320 is in (0, 1]
            raise ConfigError(f"1/eta_ch must be finite, got eta_ch {self.eta_ch:g}")

    @property
    def delta_max_kw(self) -> float:
        """Maximum charging power in kW."""
        return self.charge_rate_c * self.b_rated

    @property
    def delta_min_kw(self) -> float:
        """Maximum discharging power in kW, expressed as a negative number."""
        return -self.discharge_rate_c * self.b_rated

    @property
    def c_cyc(self) -> float:
        """Cost in € of one 100%-DoD cycle per rated kWh."""
        return (self.cost_per_kwh + self.inverter_cost_per_kwh) / self.cycle_life_100dod

    @property
    def b_cost(self) -> float:
        """Cost in € of the unit, battery and inverter."""
        return (self.cost_per_kwh + self.inverter_cost_per_kwh) * self.b_rated


def make_spec(
    name: str,
    b_rated: float,
    charge_rate_c: float,
    discharge_rate_c: float,
    *,
    soc_min_frac: float = 0.10,
    soc_init_frac: float = 0.50,
    soc_max_frac: float = 1.00,
    eta_ch: float = DEFAULT_ETA_CH,
    eta_dis: float = DEFAULT_ETA_DIS,
    cycle_life_100dod: float = DEFAULT_CYCLE_LIFE_100DOD,
    calendar_life_years: float = DEFAULT_CALENDAR_LIFE_YEARS,
    cost_per_kwh: float | None = None,
    inverter_cost_per_kwh: float | None = None,
) -> BatterySpec:
    """Build a BatterySpec with SoC fractions and ramp-class default costs."""
    if cost_per_kwh is None or inverter_cost_per_kwh is None:
        ramp_class = max(charge_rate_c, discharge_rate_c)
        defaults = _COSTS_BY_RAMP_CLASS.get(ramp_class)
        if defaults is None:
            raise ConfigError(
                f"no default costs for ramp class {ramp_class}C; "
                "give cost_per_kwh and inverter_cost_per_kwh explicitly"
            )
        cost_per_kwh = defaults[0] if cost_per_kwh is None else cost_per_kwh
        inverter_cost_per_kwh = defaults[1] if inverter_cost_per_kwh is None else inverter_cost_per_kwh
    return BatterySpec(
        b_rated=b_rated,
        b_min=soc_min_frac * b_rated,
        b_max=soc_max_frac * b_rated,
        b_0=soc_init_frac * b_rated,
        eta_ch=eta_ch,
        eta_dis=eta_dis,
        charge_rate_c=charge_rate_c,
        discharge_rate_c=discharge_rate_c,
        cycle_life_100dod=cycle_life_100dod,
        calendar_life_years=calendar_life_years,
        cost_per_kwh=cost_per_kwh,
        inverter_cost_per_kwh=inverter_cost_per_kwh,
        name=name,
    )


def _rate_label(rate: float) -> str:
    return f"{rate:g}c"


def default_catalog() -> tuple[BatterySpec, ...]:
    """The nine default candidates: {1, 2, 5} kWh × {0.25C, 1C, 2C} symmetric ramps."""
    specs = []
    for b_rated in (1.0, 2.0, 5.0):
        for rate in (0.25, 1.0, 2.0):
            name = f"{b_rated:g}kwh-{_rate_label(rate)}"
            specs.append(make_spec(name, b_rated, rate, rate))
    return tuple(specs)


# keys a catalog entry may leave out; make_spec holds their defaults
_OPTIONAL_KEYS = (
    "soc_min_frac", "soc_init_frac", "soc_max_frac", "eta_ch", "eta_dis",
    "cycle_life_100dod", "calendar_life_years", "cost_per_kwh", "inverter_cost_per_kwh",
)
_FIELDS = {"name": json_str,
           **dict.fromkeys(("b_rated_kwh", "charge_rate_c", "discharge_rate_c", *_OPTIONAL_KEYS), json_number)}


def load_catalog(path: str | Path) -> tuple[BatterySpec, ...]:
    """Read a battery catalog: {"batteries": [{name, b_rated_kwh, ...}, ...]}.

    Per-entry optional keys (defaults in parentheses): soc_min_frac (0.10),
    soc_init_frac (0.50), soc_max_frac (1.00), eta_ch (0.95), eta_dis (0.95),
    cycle_life_100dod (4000), calendar_life_years (7), cost_per_kwh and
    inverter_cost_per_kwh (by ramp class when omitted). Any other key is
    an error.
    """
    values, entries = read_config(path, "catalog", {}, "batteries", _FIELDS, _OPTIONAL_KEYS)
    if not entries:
        raise ConfigError(f"catalog file {path} has no 'batteries' entries")
    specs = []
    seen: set[str] = set()
    for raw, entry in zip(values["batteries"], entries):
        name = entry.pop("name")
        try:
            spec = make_spec(name, entry.pop("b_rated_kwh"), entry.pop("charge_rate_c"),
                             entry.pop("discharge_rate_c"), **entry)
        except ConfigError as exc:
            raise ConfigError(f"bad catalog entry {raw!r}: {exc}") from exc
        if name in seen:
            raise ConfigError(f"duplicate battery name {name!r} in catalog")
        seen.add(name)
        specs.append(spec)
    return tuple(specs)


def catalog_by_name(catalog: tuple[BatterySpec, ...]) -> dict[str, BatterySpec]:
    return {spec.name: spec for spec in catalog}
