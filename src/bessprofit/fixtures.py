"""Deterministic synthetic prosumer fixtures.

Four 30-day, 5-minute household profiles (June 2019) spanning the
interesting regimes: a PV-light home (c1), a PV-tracking home with a
nightly EV-charging block (c2), a shop with a high base load and a wide
evening peak (c3), and a PV-heavy home generating about as much as it
consumes (c4). Each day carries an evening needle or block so
peak-contract selection has something to shave.

Generation is reproducible byte for byte for a given seed: every random
draw comes from one ``default_rng(seed + case index)`` stream, and the
powers are rounded to 0.1 W after the scaling to each case's totals.
Each "\n"-ended row is one ``"%s,%.1f,%.1f"`` %-format of a stamp from
the ``timeseries.iso_stamps`` table and the two powers in W.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from .timeseries import iso_stamps

__all__ = ["FIXTURE_NAMES", "DEFAULT_SEED", "fixture_arrays", "gen_fixtures"]

FIXTURE_NAMES = ("c1", "c2", "c3", "c4")
DEFAULT_SEED = 2019

_DAYS = 30
_STEPS_PER_DAY = 288
_N = _DAYS * _STEPS_PER_DAY
_H = 5.0 / 60.0
_START = datetime(2019, 6, 1, 0, 0, 0)

# Default daily needle: two 5-minute steps at 19:50 and 19:55.
_NEEDLE_SLOTS = (238, 239)
# Wide late-evening needle (20:30-21:55) for the shop case: enough energy
# above the lower contract levels that no catalog battery can shave past
# one level down.
_WIDE_NEEDLE_SLOTS = tuple(range(246, 263))
# Long evening charging block (18:20-21:40) for the EV case: the energy
# above the bottom contract level exceeds what a 1 kWh battery can deliver
# in one evening, while 2 kWh and larger shave it at any ramp.
_BLOCK_NEEDLE_SLOTS = tuple(range(220, 260))


def _smooth_noise(rng: np.random.Generator, n: int, rho: float = 0.96) -> np.ndarray:
    """Zero-mean AR(1) series, unit-ish scale."""
    out = []
    acc = 0.0
    gain = float(np.sqrt(1.0 - rho * rho))
    for shock in rng.standard_normal(n).tolist():
        acc = rho * acc + gain * shock
        out.append(acc)
    return np.array(out)


def _gauss_bump(hour: np.ndarray, center: float, width: float) -> np.ndarray:
    return np.exp(-0.5 * ((hour - center) / width) ** 2)


def _pv_shape(rng: np.random.Generator, cloud_conc: float, pv_noise: float) -> np.ndarray:
    """Clear-sky arc times per-day cloudiness times slow intra-day noise."""
    hour = (np.arange(_N) % _STEPS_PER_DAY) / 12.0
    arc = np.sin(np.pi * (hour - 6.0) / 15.0)
    arc = np.where((hour > 6.0) & (hour < 21.0), np.maximum(arc, 0.0) ** 1.35, 0.0)
    cloud = rng.beta(7.0 * cloud_conc, 2.2 * cloud_conc, _DAYS)
    factor = np.clip(1.0 + pv_noise * _smooth_noise(rng, _N), 0.25, 1.25)
    return arc * np.repeat(cloud, _STEPS_PER_DAY) * factor


@dataclass(frozen=True)
class _CaseParams:
    pv_total_kwh: float
    load_total_kwh: float
    base_kw: float
    morning_kw: float
    day_kw: float
    evening_kw: float
    evening_center: float
    needle_kw: float
    noise_scale: float
    tracking: float = 0.0  # fraction of PV mirrored into the load
    cloud_conc: float = 1.0  # higher = less day-to-day PV spread
    pv_noise: float = 0.35
    needle_slots: tuple[int, ...] = _NEEDLE_SLOTS


_CASES: dict[str, _CaseParams] = {
    # needle heights put each baseline peak just above a contract-level
    # boundary (5.75 / 3.45 / 13.8 / 5.75 kVA), so a battery that can shave
    # the needle below the boundary captures a cheaper power contract
    "c1": _CaseParams(
        pv_total_kwh=180.0, load_total_kwh=459.0,
        base_kw=0.30, morning_kw=0.85, day_kw=0.26, evening_kw=1.85,
        evening_center=20.3, needle_kw=5.98, noise_scale=0.16,
        cloud_conc=6.0, pv_noise=0.10,
    ),
    "c2": _CaseParams(
        pv_total_kwh=120.0, load_total_kwh=720.0,
        base_kw=0.30, morning_kw=0.25, day_kw=0.0, evening_kw=0.35,
        evening_center=20.6, needle_kw=3.88, noise_scale=0.10, tracking=0.93,
        needle_slots=_BLOCK_NEEDLE_SLOTS,
    ),
    "c3": _CaseParams(
        pv_total_kwh=610.0, load_total_kwh=1969.0,
        base_kw=1.10, morning_kw=0.9, day_kw=0.0, evening_kw=1.5,
        evening_center=19.6, needle_kw=14.20, noise_scale=0.12,
        tracking=0.18, cloud_conc=6.0, pv_noise=0.10,
        needle_slots=_WIDE_NEEDLE_SLOTS,
    ),
    "c4": _CaseParams(
        pv_total_kwh=305.0, load_total_kwh=306.0,
        base_kw=0.26, morning_kw=0.25, day_kw=0.08, evening_kw=1.05,
        evening_center=20.6, needle_kw=6.20, noise_scale=0.14, tracking=0.22,
    ),
}


def fixture_arrays(name: str, seed: int = DEFAULT_SEED) -> tuple[datetime, np.ndarray, np.ndarray]:
    """Return (start, load_w, pv_w) for one case, rounded to 0.1 W."""
    if name not in _CASES:
        raise KeyError(f"unknown fixture {name!r}; expected one of {FIXTURE_NAMES}")
    params = _CASES[name]
    rng = np.random.default_rng(seed + FIXTURE_NAMES.index(name))
    hour = (np.arange(_N) % _STEPS_PER_DAY) / 12.0

    pv_kw = _pv_shape(rng, params.cloud_conc, params.pv_noise)
    pv_kw *= params.pv_total_kwh / (pv_kw.sum() * _H)

    smooth = (
        params.base_kw
        + params.morning_kw * _gauss_bump(hour, 7.6, 1.1)
        + params.day_kw * _gauss_bump(hour, 13.2, 3.2)
        + params.evening_kw * _gauss_bump(hour, params.evening_center, 1.55)
    )
    smooth = smooth * np.clip(1.0 + params.noise_scale * _smooth_noise(rng, _N), 0.45, 1.9)
    smooth = smooth + params.tracking * pv_kw * (1.0 - 0.1 * rng.random(_N))

    # The evening needle lifts the affected slots to a fixed level so the
    # monthly peak stays deterministic; scaling targets the grand total.
    slot = np.arange(_N) % _STEPS_PER_DAY
    on_needle = np.isin(slot, params.needle_slots)

    def with_needle(base: np.ndarray) -> np.ndarray:
        return np.where(on_needle, np.maximum(base, params.needle_kw), base)

    scale = 1.0
    for _ in range(8):  # fixed-point for total incl. the clamped needle slots
        total = with_needle(smooth * scale).sum() * _H
        scale *= params.load_total_kwh / total
    load_kw = with_needle(smooth * scale)

    load_w = np.round(load_kw * 1000.0, 1)
    pv_w = np.round(pv_kw * 1000.0, 1)
    return _START, load_w, pv_w


def _fixture_hash(name: str, seed: int) -> str:
    return hashlib.sha256(f"fixture:{name}:{seed}".encode()).hexdigest()[:12]


def gen_fixtures(seed: int = DEFAULT_SEED, out_dir: str | Path = ".") -> list[Path]:
    """Write c1.csv .. c4.csv into out_dir, made at the first write; returns the paths."""
    out = Path(out_dir)
    stamps = iso_stamps(_START, timedelta(minutes=5), _N)
    paths = []
    for name in FIXTURE_NAMES:
        _, load_w, pv_w = fixture_arrays(name, seed)
        rows = map("%s,%.1f,%.1f".__mod__, zip(stamps, load_w.tolist(), pv_w.tolist()))
        head = f"# fixture: {name} seed={seed}\n# config_hash: {_fixture_hash(name, seed)}\ntimestamp,load_w,pv_w\n"
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{name}.csv"
        path.write_text(head + "\n".join(rows) + "\n", newline="")
        paths.append(path)
    return paths
