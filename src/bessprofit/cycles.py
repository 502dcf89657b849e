"""Equivalent 100%-DoD cycle counting on an SoC trajectory.

Cycles are extracted from the normalized SoC signal with the standard
four-point rainflow method: matched full cycles weigh 1.0, the residual
half-cycles weigh 0.5, and each extracted range d contributes
weight·d**kp for a damage exponent kp. With the default kp = 1 the
count reduces exactly to charge throughput / (2·capacity).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError

__all__ = ["count_cycles", "break_even_cycles"]


def check_damage_exp(kp: float) -> None:
    """Refuse a damage exponent kp that is not >= 1 and finite."""
    if not (math.isfinite(kp) and kp >= 1):
        raise ConfigError(f"damage exponent kp must be >= 1 and finite, got {kp:g}")


def _turning_points(u: np.ndarray) -> np.ndarray:
    """Collapse plateaus and monotone runs, keeping endpoints.

    Preserves the total variation of the signal, which is what the
    throughput identity relies on.
    """
    if u.size <= 1:
        return u
    # drop consecutive duplicates
    keep = np.concatenate(([True], np.diff(u) != 0.0))
    u = u[keep]
    if u.size <= 2:
        return u
    d = np.diff(u)
    # sign change -> local extremum; d has no zeros here, and comparing signs
    # instead of testing d[:-1] * d[1:] < 0 survives products that underflow
    interior = (d[:-1] > 0) != (d[1:] > 0)
    mask = np.concatenate(([True], interior, [True]))
    return u[mask]


def count_cycles(b, b_rated: float, kp: float = 1.0) -> float:
    """Count equivalent 100%-DoD cycles of an SoC series b (kWh), each
    range d weighted by d**kp.

    The series must stay within [0, b_rated]; a constant series counts
    zero cycles. Full cycles found by the four-point rule carry weight
    1.0; the residual alternating tail contributes one 0.5-weighted half
    cycle per adjacent range. The sum is ``math.fsum``, exactly rounded,
    so the count does not depend on how the Python version adds floats.
    """
    check_damage_exp(kp)
    if b_rated <= 0:
        raise ValueError("b_rated must be > 0")
    b = np.asarray(b, dtype=float)
    if b.ndim != 1:
        raise ValueError("SoC series must be one-dimensional")
    if b.size and (np.min(b) < -1e-9 * max(1.0, b_rated) or np.max(b) > b_rated * (1 + 1e-9) + 1e-12):
        raise ValueError("SoC series leaves [0, b_rated]")

    pairs = _rainflow(np.clip(b / b_rated, 0.0, 1.0))
    return math.fsum(weight * r**kp for r, weight in pairs)


def _rainflow(u: np.ndarray) -> list[tuple[float, float]]:
    """The cycles of a normalized SoC series u as (DoD fraction, weight)
    pairs: the four-point rule's full cycles at 1.0, then the residual
    tail's adjacent ranges at 0.5. Zero ranges are dropped."""
    ranges_full: list[float] = []
    stack: list[float] = []
    for value in _turning_points(u):
        stack.append(float(value))
        while len(stack) >= 4:
            r_left = abs(stack[-3] - stack[-4])
            r_inner = abs(stack[-2] - stack[-3])
            r_right = abs(stack[-1] - stack[-2])
            if r_inner <= r_left and r_inner <= r_right:
                ranges_full.append(r_inner)
                del stack[-3:-1]
            else:
                break

    pairs: list[tuple[float, float]] = [(r, 1.0) for r in ranges_full if r > 0.0]
    for left, right in zip(stack, stack[1:]):
        r = abs(right - left)
        if r > 0.0:
            pairs.append((r, 0.5))
    return pairs


def break_even_cycles(cycle_life: float, calendar_life_years: float, horizon_days: float) -> float:
    """Cycle budget for a horizon of days so cycling and calendar aging expire
    together: cycle_life·days/(years·365.25).
    """
    if cycle_life <= 0 or calendar_life_years <= 0:
        raise ValueError("cycle_life and calendar_life_years must be > 0")
    if horizon_days <= 0:
        raise ValueError("horizon_days must be > 0")
    return cycle_life * horizon_days / (calendar_life_years * 365.25)
