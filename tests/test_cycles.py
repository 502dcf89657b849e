"""Rainflow cycle counting, damage weighting, and the break-even budget.

Anchors: hand-traced trajectories with known half/full cycle splits, and
the closed-form identity that at unit damage exponent the weighted count
equals total throughput over twice the capacity.
"""

from __future__ import annotations

import builtins
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bessprofit import cycles
from bessprofit.cycles import _rainflow, break_even_cycles, count_cycles
from bessprofit.errors import ConfigError


def throughput_cycles(b: np.ndarray, b_rated: float) -> float:
    """Independent reference: sum of |SoC changes| over twice the capacity."""
    return float(np.sum(np.abs(np.diff(b)))) / (2.0 * b_rated)


# ------------------------------------------------------------ hand traces


def test_half_cycle_decomposition_of_peak_valley_swing():
    # 50% -> 100% -> 10% -> 50% on a unit battery:
    # halves of DoD 0.5, 0.9, 0.4 at weight 0.5 each -> 0.9 equivalent cycles
    b = np.array([0.5, 1.0, 0.1, 0.5])
    assert count_cycles(b, 1.0) == pytest.approx(0.9, abs=1e-12)
    assert sorted(_rainflow(b)) == [(0.4, 0.5), (0.5, 0.5), (0.9, 0.5)]


def test_inner_cycle_extracted_as_full():
    # an inner 0.4-0.8 excursion closes as one full cycle; the outer swing
    # remains as residual halves: 1.0*0.4 + 0.5*(0.5+0.9+0.4) = 1.3
    b = np.array([0.5, 1.0, 0.4, 0.8, 0.1, 0.5])
    assert count_cycles(b, 1.0) == pytest.approx(1.3, abs=1e-12)
    assert (0.4, 1.0) in _rainflow(b)


def test_constant_and_trivial_trajectories():
    assert count_cycles(np.full(5, 0.7), 1.0) == 0.0
    assert count_cycles(np.array([0.3]), 1.0) == 0.0
    assert _rainflow(np.array([0.3, 0.3, 0.3])) == []


def test_single_ramp_is_one_half_cycle():
    b = np.array([0.2, 0.9])
    assert _rainflow(b) == [(0.7, 0.5)]
    assert count_cycles(b, 1.0) == pytest.approx(0.35)


def test_plateaus_and_monotone_runs_collapse():
    direct = np.array([0.2, 0.9, 0.1])
    padded = np.array([0.2, 0.2, 0.5, 0.7, 0.9, 0.9, 0.9, 0.6, 0.3, 0.1])
    assert count_cycles(padded, 1.0) == pytest.approx(
        count_cycles(direct, 1.0), abs=1e-12)
    assert sorted(_rainflow(padded)) == sorted(_rainflow(direct))


def test_capacity_normalizes_depth():
    b = np.array([1.0, 4.0, 1.0])
    count = count_cycles(b, 4.0)
    assert count == pytest.approx(0.75)  # two 0.75-DoD halves


# ------------------------------------------------------- throughput identity


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_unit_exponent_count_equals_throughput(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 300))
    b = np.clip(np.cumsum(rng.uniform(-0.3, 0.3, n)) + 0.5, 0.0, 1.0)
    count = count_cycles(b, 1.0)
    assert count == pytest.approx(throughput_cycles(b, 1.0), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=2.0, allow_nan=False), min_size=1, max_size=60))
# a minimum between two steps whose product underflows to -0.0
@example(values=[1.0, 2.7421641149600613e-302, 0.0, 2.472350273092783e-201, 1.0])
def test_unit_exponent_count_equals_throughput_hypothesis(values):
    b = np.asarray(values)
    count = count_cycles(b, 2.0)
    assert count == pytest.approx(throughput_cycles(b, 2.0), abs=1e-9)


@pytest.mark.parametrize("kp", [1.0, 2.0])
def test_reversal_invariance(kp):
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 120))
        b = np.clip(np.cumsum(rng.uniform(-0.3, 0.3, n)) + 0.5, 0.0, 1.0)
        fwd = count_cycles(b, 1.0, kp)
        rev = count_cycles(b[::-1], 1.0, kp)
        assert rev == pytest.approx(fwd, abs=1e-9)


@pytest.mark.parametrize("kp", [1.0, 2.0])
def test_mirror_concatenation_bound(kp):
    # walking a trajectory forward then backward doubles the damage, up to
    # at most the largest single residual half-cycle's worth of slack
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(2, 120))
        b = np.clip(np.cumsum(rng.uniform(-0.3, 0.3, n)) + 0.5, 0.0, 1.0)
        one = count_cycles(b, 1.0, kp)
        both = count_cycles(np.concatenate([b, b[::-1]]), 1.0, kp)
        halves = [d**kp * w for d, w in _rainflow(b) if w == 0.5]
        slack = max(halves) if halves else 0.0
        assert abs(both - 2.0 * one) <= slack + 1e-9


def test_progressive_exponent_penalizes_deep_cycles():
    deep = np.array([0.0, 1.0, 0.0])  # one full 100% cycle
    shallow = np.tile(np.array([0.0, 0.1]), 10)  # ten 10% swings
    for kp in (1.0, 1.5, 2.0):
        d_deep = count_cycles(deep, 1.0, kp)
        d_shallow = count_cycles(shallow, 1.0, kp)
        if kp == 1.0:
            assert d_deep == pytest.approx(1.0)
            assert d_shallow == pytest.approx(0.95, abs=1e-9)  # 19 swings of 10%
        else:
            assert d_shallow < d_deep  # shallow swings hurt less superlinearly


def test_damage_model_validation():
    swing = np.array([0.0, 0.5, 0.0])  # one full cycle of DoD 0.5
    assert count_cycles(swing, 1.0) == count_cycles(swing, 1.0, 1.0) == 0.5
    assert count_cycles(swing, 1.0, 2.0) == pytest.approx(0.25)
    for kp in (0.5, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="damage exponent kp must be >= 1 and finite"):
            count_cycles(swing, 1.0, kp)


def test_count_is_not_the_builtin_float_sum(monkeypatch):
    # From CPython 3.12 sum() compensates float additions, so a count that
    # sums with it depends on the Python version; this one must not call it
    def no_float_sum(values, start=0):
        values = list(values)
        if any(isinstance(v, float) for v in [start, *values]):
            raise AssertionError("built-in sum() over floats")
        return builtins.sum(values, start)

    monkeypatch.setattr(cycles, "sum", no_float_sum, raising=False)
    rng = np.random.default_rng(13)
    for _ in range(20):
        b = np.clip(np.cumsum(rng.uniform(-0.3, 0.3, 60)) + 0.5, 0.0, 1.0)
        assert count_cycles(b, 1.0) == math.fsum(w * d for d, w in _rainflow(b))


def test_count_cycles_input_validation():
    with pytest.raises(ValueError):
        count_cycles(np.array([0.5, 0.7]), 0.0)
    with pytest.raises(ValueError):
        count_cycles(np.array([[0.5], [0.7]]), 1.0)
    with pytest.raises(ValueError):
        count_cycles(np.array([0.5, 1.2]), 1.0)
    with pytest.raises(ValueError):
        count_cycles(np.array([-0.1, 0.5]), 1.0)


# -------------------------------------------------------------- break-even


MONTH_DAYS = 365.25 / 12  # one twelfth of a calendar year


def test_break_even_monthly_budget():
    assert break_even_cycles(4000, 7.0, horizon_days=MONTH_DAYS) == pytest.approx(47.6, abs=0.1)
    assert break_even_cycles(4000, 7.0, horizon_days=365.25) == pytest.approx(571.4, abs=0.1)
    assert break_even_cycles(700, 5.0, horizon_days=MONTH_DAYS) == pytest.approx(700 / 60, abs=0.05)
    assert break_even_cycles(700, 5.0, horizon_days=MONTH_DAYS) == pytest.approx(11.67, abs=0.01)


def test_break_even_day_form_uses_calendar_days():
    by_days = break_even_cycles(4000, 7.0, horizon_days=30.0)
    assert by_days == pytest.approx(4000 * 30.0 / (7.0 * 365.25), abs=1e-9)
    assert by_days == pytest.approx(46.93, abs=0.01)
    # a 30-day budget and a one-month budget deliberately differ
    assert by_days != pytest.approx(break_even_cycles(4000, 7.0, horizon_days=MONTH_DAYS), abs=0.1)


def test_break_even_argument_validation():
    with pytest.raises(TypeError):
        break_even_cycles(4000, 7.0)  # the horizon is required
    with pytest.raises(ValueError):
        break_even_cycles(0, 7.0, horizon_days=30.0)
    with pytest.raises(ValueError):
        break_even_cycles(4000, 0.0, horizon_days=30.0)
    with pytest.raises(ValueError):
        break_even_cycles(4000, 7.0, horizon_days=-1.0)
