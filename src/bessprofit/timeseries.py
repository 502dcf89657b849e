"""Scenario ingestion and baseline (no-battery) metrics.

A scenario is a pair of aligned load/PV measurement series at a uniform
step length, priced by a time-of-use tariff. Measurements arrive as
instantaneous power in W and are converted to per-step energies in kWh.
Peak-power contract (PPC) levels are expressed in kVA and compared
against kW assuming unity power factor.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, DegenerateScenarioError, ScenarioError

__all__ = [
    "TariffPeriod",
    "TariffSchedule",
    "PpcLevel",
    "PpcSchedule",
    "ScenarioSeries",
    "BaselineMetrics",
    "DEFAULT_TOU_TARIFF",
    "DEFAULT_PPC_SCHEDULE",
    "load_tariff",
    "load_ppc",
    "load_scenario",
    "baseline_metrics",
]

MINUTES_PER_DAY = 1440
US_PER_MINUTE = 60_000_000
US_PER_DAY = MINUTES_PER_DAY * US_PER_MINUTE
# how close a kVA value must be to a PPC level's ceiling to name it
KVA_TOL = 1e-9


def _parse_daily_minute(text: str) -> int:
    """Parse 'HH:MM' into a minute-of-day; '24:00' is accepted as end of day."""
    hour, minute = map(int, text.split(":"))
    if not (0 <= minute < 60 and 0 <= hour <= 24) or (hour == 24 and minute != 0):
        raise ValueError(f"time of day {text!r} out of range")
    return hour * 60 + minute


def json_number(value) -> float:
    """A JSON number (int or float, not a bool) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"not a number: {value!r}")
    return float(value)


def json_str(value) -> str:
    """A JSON string, as is."""
    if not isinstance(value, str):
        raise TypeError(f"not a string: {value!r}")
    return value


def _utc_offset(stamp: datetime) -> str:
    """The UTC offset that ``stamp.isoformat()`` ends with, '' for a naive stamp."""
    return stamp.isoformat()[len(stamp.replace(tzinfo=None).isoformat()):]


def _convert(where: str, obj, fields: dict, optional: tuple, context: str = "") -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: entry {obj!r} must be an object")
    unknown = sorted(obj.keys() - fields.keys())
    if unknown:
        raise ConfigError(f"{where}: unknown key {unknown[0]!r}{context}")
    missing = [key for key in fields if key not in obj and key not in optional]
    if missing:
        raise ConfigError(f"{where}: missing key {missing[0]!r}{context}")
    values = {}
    for key, value in obj.items():
        try:
            values[key] = fields[key](value)
        # AttributeError: a non-string time; OverflowError: an integer past the float range
        except (TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise ConfigError(f"{where}: bad {key} {value!r}") from exc
    return values


def read_config(path: str | Path, kind: str, top: dict, list_key: str, fields: dict,
                optional: tuple = ()) -> tuple[dict, list[dict]]:
    """Read a JSON object with the keys of ``top`` and an optional list
    ``list_key`` of objects with the keys of ``fields``, less any of
    ``optional``; each dict maps a key to the converter of its value.

    Returns the converted top-level values, holding the list as read, and
    the converted entries. A bad file, key or value is one ConfigError that
    names the file, as "{kind} file {path}", and the key.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    # ValueError: not JSON, not UTF-8, or an integer past the digit limit
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {kind} file {path}: {exc}") from exc
    where = f"{kind} file {path}"
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must hold a JSON object")
    entries = raw.get(list_key, [])
    if not isinstance(entries, list):
        raise ConfigError(f"{where}: {list_key!r} must be a list")
    values = _convert(where, raw, {**top, list_key: list}, (list_key,))
    return values, [_convert(where, entry, fields, optional, f" in entry {entry!r}") for entry in entries]


@dataclass(frozen=True)
class TariffPeriod:
    """Half-open daily window [start_minute, end_minute) with a fixed price.

    A period with end_minute <= start_minute wraps across midnight.
    """

    start_minute: int
    end_minute: int
    price: float


@dataclass(frozen=True)
class TariffSchedule:
    """Time-of-use buy prices; minutes not covered by a period use fallback_price."""

    periods: tuple[TariffPeriod, ...]
    fallback_price: float

    def __post_init__(self):
        # written so that a NaN price fails the checks
        if not 0 <= self.fallback_price < math.inf:
            raise ConfigError("fallback_price must be finite and >= 0")
        table = np.full(MINUTES_PER_DAY, self.fallback_price, dtype=float)
        claimed = np.zeros(MINUTES_PER_DAY, dtype=bool)
        for period in self.periods:
            if not 0 <= period.price < math.inf:
                raise ConfigError("tariff prices must be finite and >= 0")
            if not (0 <= period.start_minute < MINUTES_PER_DAY):
                raise ConfigError(f"period start {period.start_minute} out of range")
            if not (0 <= period.end_minute <= MINUTES_PER_DAY):
                raise ConfigError(f"period end {period.end_minute} out of range")
            if period.end_minute == period.start_minute:
                raise ConfigError("tariff period must not be empty")
            if period.end_minute > period.start_minute:
                spans = ((period.start_minute, period.end_minute),)
            else:
                # wraps past midnight
                spans = ((period.start_minute, MINUTES_PER_DAY), (0, period.end_minute))
            for lo, hi in spans:
                taken = np.flatnonzero(claimed[lo:hi])
                if taken.size:
                    raise ConfigError(f"tariff periods overlap at minute {lo + taken[0]}")
                claimed[lo:hi] = True
                table[lo:hi] = period.price
        table.flags.writeable = False
        object.__setattr__(self, "_minute_prices", table)

    def prices(self, start: datetime, step: timedelta, n: int) -> np.ndarray:
        """The price of each of the n steps ``start + i * step``, by its minute of the day."""
        return self._minute_prices[_days_and_times(start, step, n)[1] // US_PER_MINUTE]


@dataclass(frozen=True)
class PpcLevel:
    """One peak-power contract level: power ceiling and daily price."""

    kva: float
    eur_per_day: float


@dataclass(frozen=True)
class PpcSchedule:
    """Ordered PPC levels, strictly increasing in both ceiling and price."""

    levels: tuple[PpcLevel, ...]

    def __post_init__(self):
        if not self.levels:
            raise ConfigError("PPC schedule needs at least one level")
        prev_kva, prev_cost = -np.inf, -np.inf
        for level in self.levels:
            if not (0 < level.kva < math.inf and 0 <= level.eur_per_day < math.inf):
                raise ConfigError("PPC levels must have positive kVA and non-negative cost, both finite")
            if level.kva <= prev_kva or level.eur_per_day <= prev_cost:
                raise ConfigError("PPC levels must be strictly increasing in kVA and cost")
            prev_kva, prev_cost = level.kva, level.eur_per_day

    def smallest_covering(self, kw: float) -> PpcLevel | None:
        """Smallest level whose ceiling is >= kw, or None if all are below."""
        for level in self.levels:
            if level.kva >= kw:
                return level
        return None

    def level_for(self, kva: float) -> PpcLevel:
        for level in self.levels:
            if abs(level.kva - kva) <= KVA_TOL:
                return level
        raise ConfigError(f"no PPC level with ceiling {kva} kVA")


# Madeira-style 8-level peak-power-contract table (kVA ceiling, €/day).
DEFAULT_PPC_SCHEDULE = PpcSchedule(
    (
        PpcLevel(3.45, 0.1643),
        PpcLevel(4.60, 0.2132),
        PpcLevel(5.75, 0.2590),
        PpcLevel(6.90, 0.3080),
        PpcLevel(10.35, 0.4532),
        PpcLevel(13.80, 0.5981),
        PpcLevel(17.25, 0.7436),
        PpcLevel(20.70, 0.8892),
    )
)

# Documented default two-period tariff: peak 08:00-22:00, off-peak otherwise.
# The ratio 0.20/0.185 sits below the round-trip loss factor 1/(0.95*0.95),
# so pure grid arbitrage never pays under the default battery efficiencies;
# storage value then comes from surplus self-consumption and peak shaving.
# Steeper schedules are fully supported via tariff config files.
DEFAULT_TOU_TARIFF = TariffSchedule(
    periods=(TariffPeriod(start_minute=8 * 60, end_minute=22 * 60, price=0.20),),
    fallback_price=0.185,
)


def load_tariff(path: str | Path) -> TariffSchedule:
    """Read {"periods": [{"start","end","price"}...], "fallback_price": x}; "periods" is optional."""
    values, entries = read_config(path, "tariff", {"fallback_price": json_number}, "periods",
                                  {"start": _parse_daily_minute, "end": _parse_daily_minute, "price": json_number})
    periods = tuple(TariffPeriod(e["start"], e["end"], e["price"]) for e in entries)
    try:
        return TariffSchedule(periods=periods, fallback_price=values["fallback_price"])
    except ConfigError as exc:
        raise ConfigError(f"tariff file {path}: {exc}") from exc


def load_ppc(path: str | Path) -> PpcSchedule:
    """Read a PPC config: {"levels": [{"kva": x, "eur_per_day": y}, ...]}."""
    _, entries = read_config(path, "PPC", {}, "levels", {"kva": json_number, "eur_per_day": json_number})
    try:
        return PpcSchedule(levels=tuple(PpcLevel(e["kva"], e["eur_per_day"]) for e in entries))
    except ConfigError as exc:
        raise ConfigError(f"PPC file {path}: {exc}") from exc


def _days_and_times(start: datetime, step: timedelta, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The day (0 on start's date) and microsecond of the day of each ``start + i * step``, i < n,
    in start's own time; a timedelta is whole microseconds, so this is exact for any step."""
    step_us = step // timedelta(microseconds=1)
    start_us = ((start.hour * 60 + start.minute) * 60 + start.second) * 1_000_000 + start.microsecond
    return np.divmod(start_us + step_us * np.arange(n, dtype=np.int64), US_PER_DAY)


def iso_stamps(start: datetime, step: timedelta, n: int) -> list[str]:
    """``[(start + i * step).isoformat() for i in range(n)]``: microseconds
    only when not zero, and the UTC offset of start (a scenario file holds
    one fixed offset) on every stamp.

    Each distinct date and time of day is rendered once and the two joined.
    """
    day, tod = _days_and_times(start, step, n)
    days, day_at = np.unique(day, return_inverse=True)
    tods, tod_at = np.unique(tod, return_inverse=True)
    first = start.toordinal()
    offset = _utc_offset(start)
    dates = np.array([date.fromordinal(first + d).isoformat() + "T" for d in days.tolist()], dtype=object)
    # the time of day us microseconds after midnight
    times = np.array([(datetime.min + timedelta(microseconds=us)).time().isoformat() + offset
                      for us in tods.tolist()], dtype=object)
    return (dates[day_at] + times[tod_at]).tolist()


@dataclass(frozen=True)
class ScenarioSeries:
    """Aligned per-step energy series over a uniform-step horizon.

    load, pv are per-step energies in kWh; price is the buy price in €/kWh
    applying to that step. h is the step length in hours; the step count n
    and the net load z = load - pv in kWh (negative means surplus) are
    derived once. All four arrays are read-only.
    """

    start_time: datetime
    h: float
    load: np.ndarray
    pv: np.ndarray
    price: np.ndarray
    name: str = ""
    n: int = field(init=False)
    z: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.h <= 0:
            raise ScenarioError("step length h must be > 0")
        object.__setattr__(self, "n", np.size(self.load))
        if self.n < 1:
            raise ScenarioError("scenario needs at least one step")
        for label, arr in (("load", self.load), ("pv", self.pv), ("price", self.price)):
            arr = np.array(arr, dtype=float)
            if arr.shape != (self.n,):
                raise ScenarioError(f"{label} must have shape ({self.n},)")
            if not np.all(np.isfinite(arr)):
                raise ScenarioError(f"{label} contains non-finite values")
            if np.any(arr < 0):
                raise ScenarioError(f"{label} contains negative values")
            arr.flags.writeable = False
            object.__setattr__(self, label, arr)
        z = self.load - self.pv
        z.flags.writeable = False
        object.__setattr__(self, "z", z)

    @property
    def total_hours(self) -> float:
        return self.h * self.n

    @property
    def day_count(self) -> float:
        """Length of the window in days; drives €/day PPC accounting."""
        return self.total_hours / 24.0

    def step_stamps(self) -> list[str]:
        """``iso_stamps(start_time, timedelta(hours=h), n)``."""
        return iso_stamps(self.start_time, timedelta(hours=self.h), self.n)

    @cached_property
    def baseline(self) -> BaselineMetrics:
        """The no-battery ``baseline_metrics``, derived on first use."""
        metrics = baseline_metrics(self)
        check_finite("baseline", ss=metrics.ss, waste=metrics.waste, energy_cost=metrics.energy_cost)
        return metrics


@dataclass(frozen=True)
class BaselineMetrics:
    """No-battery metrics: self-sufficiency, wasted surplus, and import cost."""

    ss: float
    waste: float
    energy_cost: float


def baseline_metrics(s: ScenarioSeries, storage: np.ndarray | None = None) -> BaselineMetrics:
    """Metrics of the scenario without storage, or with a battery whose
    grid-side energy per step is ``storage`` (net load z + storage).

    waste is the surplus PV energy (exports earn nothing and are lost),
    self-sufficiency the share of consumption not imported, energy_cost the
    per-step-priced cost of all imports.
    """
    z = s.z if storage is None else s.z + storage
    waste = float(np.sum(np.maximum(0.0, -z)))
    grid_import = float(np.sum(np.maximum(0.0, z)))
    total_load = float(np.sum(s.load))
    if total_load == 0.0:
        raise DegenerateScenarioError("total load is zero; self-sufficiency undefined")
    ss = (total_load - grid_import) / total_load
    energy_cost = float(np.sum(s.price * np.maximum(0.0, z)))
    return BaselineMetrics(ss=ss, waste=waste, energy_cost=energy_cost)


def check_finite(owner: str, **numbers: float) -> None:
    """Raise ConfigError naming ``owner`` and the first of ``numbers`` that overflowed to inf or nan."""
    for name, value in numbers.items():
        if not math.isfinite(value):
            raise ConfigError(f"{owner}: {name} overflows to {value}")


def _step_to(lineno: int, stamp: datetime, prev: datetime, first: datetime, spacing: timedelta | None) -> timedelta:
    """The step from ``prev`` to ``stamp`` when no pair has set the spacing yet (None); else the
    ScenarioError, naming ``lineno``, of the first rule ``stamp`` breaks: the first row's kind and
    UTC offset, then a step forward, then the spacing."""
    if (stamp.tzinfo is None) != (first.tzinfo is None):
        raise ScenarioError(f"line {lineno}: timestamps mix naive and UTC-offset times")
    # every stamp is written with the first row's offset, so a file keeps one
    if stamp.utcoffset() != first.utcoffset():
        raise ScenarioError(f"line {lineno}: UTC offset changes from {_utc_offset(first)} "
                            f"to {_utc_offset(stamp)}")
    delta = stamp - prev
    if delta == timedelta(0):
        raise ScenarioError(f"line {lineno}: duplicate timestamp {stamp.isoformat()}")
    if delta < timedelta(0):
        raise ScenarioError(f"line {lineno}: timestamps not increasing")
    if spacing is None:
        return delta
    kind = "gap in measurements" if delta > spacing else "non-uniform spacing"
    raise ScenarioError(f"line {lineno}: {kind} ({delta} vs expected {spacing})")


def load_scenario(
    path: str | Path,
    h: float | None = None,
    tariff: TariffSchedule | None = None,
) -> ScenarioSeries:
    """Load a measurement CSV with header ``timestamp,load_w,pv_w``.

    Rows carry instantaneous power in W at uniform spacing; per-step energy
    is power·h/1000 kWh. When h (hours) is given it must match the file
    spacing; otherwise the spacing is inferred. Each step is priced by the
    tariff (default: the shipped two-period schedule) at its minute of the
    day on the step grid. The scenario is named after the file stem.

    Each row is checked as it is read, so the ScenarioError names the first
    line that breaks a rule: a malformed header, the row's own columns and
    values, then the first row's kind (naive or not) and UTC offset, then a
    step forward of the spacing that the first pair set.
    """
    if tariff is None:
        tariff = DEFAULT_TOU_TARIFF

    load_w: list[float] = []
    pv_w: list[float] = []
    first = prev = spacing = None

    with open(path, "r", encoding="utf-8-sig", newline="") as stream:
        reader = csv.reader(stream)
        try:
            # leading '#' lines are generator provenance, not data
            header = None
            for row in reader:
                if not row or row[0].lstrip().startswith("#"):
                    continue
                header = row
                break
            if header is None or [c.strip().lower() for c in header] != ["timestamp", "load_w", "pv_w"]:
                raise ScenarioError("expected CSV header 'timestamp,load_w,pv_w'")
            for row in reader:
                lineno = reader.line_num
                if not row or row[0].lstrip().startswith("#"):
                    continue
                if len(row) != 3:
                    raise ScenarioError(f"line {lineno}: expected 3 columns, got {len(row)}")
                try:
                    stamp = datetime.fromisoformat(row[0].strip())
                except ValueError as exc:
                    raise ScenarioError(f"line {lineno}: bad timestamp {row[0]!r}") from exc
                try:
                    lw, pw = float(row[1]), float(row[2])
                except ValueError as exc:
                    raise ScenarioError(f"line {lineno}: bad power value") from exc
                if not (math.isfinite(lw) and math.isfinite(pw)):
                    raise ScenarioError(f"line {lineno}: non-finite measurement")
                if lw < 0 or pw < 0:
                    raise ScenarioError(f"line {lineno}: negative measurement")
                if first is None:
                    first, offset = stamp, stamp.utcoffset()
                # a naive stamp's utcoffset() is None, so one test holds the kind and the offset
                elif stamp.utcoffset() != offset or stamp - prev != spacing:
                    spacing = _step_to(lineno, stamp, prev, first, spacing)
                prev = stamp
                load_w.append(lw)
                pv_w.append(pw)
        except csv.Error as exc:
            raise ScenarioError(f"line {reader.line_num}: {exc}") from exc

    if spacing is None:
        raise ScenarioError("scenario needs at least two rows to establish spacing")

    h_file = spacing.total_seconds() / 3600.0
    # written so that a NaN h fails the match
    if h is not None and not abs(h - h_file) <= 1e-9:
        raise ScenarioError(f"requested step {h * 60:.6g} min does not match file spacing {h_file * 60:.6g} min")

    load, pv = (np.asarray(w, dtype=float) * h_file / 1000.0 for w in (load_w, pv_w))
    # each row is first + i·spacing in the first row's offset, so the grid gives its minute of the day
    return ScenarioSeries(start_time=first, h=h_file, load=load, pv=pv,
                          price=tariff.prices(first, spacing, len(load_w)), name=Path(path).stem)
