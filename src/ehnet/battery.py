"""Slotted energy buffer for transmitters that run off harvested power.

Within one slot a node first powers its transmissions out of the energy
banked in earlier slots, then banks whatever arrived during the slot:

    out_j = min(desired_j, remaining)             sequentially over receivers
    level' = min(capacity, level - sum(out) + harvested)

Power drawn in a slot therefore never exceeds the buffer level at the start
of the slot, and energy harvested while transmitting only becomes usable in
the next slot.  Overflow past the capacity is discarded silently.

Slots have unit length, so per-slot energy and average power coincide and
the two words are used interchangeably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "BatteryState",
    "Regime",
    "classify_regime",
    "deposit",
    "extract",
    "extract_many",
    "trajectory",
]

# Tolerated floating-point undershoot before a negative level is clamped to 0.
_NEG_TOL = 1e-12


def _check_power(value: float, name: str) -> float:
    value = float(value)
    if not value >= 0.0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    if math.isinf(value) or math.isnan(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


@dataclass(frozen=True)
class BatteryState:
    """Stored energy `level` in a buffer of size `capacity` (may be inf)."""

    level: float
    capacity: float = math.inf

    def __post_init__(self) -> None:
        if math.isnan(self.level) or self.level < 0.0:
            raise ValueError(f"battery level must be >= 0, got {self.level}")
        if math.isinf(self.level):
            raise ValueError("battery level must be finite")
        if math.isnan(self.capacity) or self.capacity <= 0.0:
            raise ValueError(f"battery capacity must be > 0, got {self.capacity}")
        if self.level > self.capacity:
            raise ValueError(
                f"battery level {self.level} exceeds capacity {self.capacity}"
            )


def extract(state: BatteryState, desired: float) -> tuple[float, BatteryState]:
    """Draw up to `desired` power from the buffer.

    Returns the power actually drawn (``min(desired, level)``) and the state
    after the draw.  The draw is exact: when the level covers the request the
    returned power equals `desired` bit for bit.
    """
    desired = _check_power(desired, "desired power")
    actual = desired if desired <= state.level else state.level
    remaining = state.level - actual
    if remaining < 0.0:
        if remaining < -_NEG_TOL:
            raise AssertionError(f"battery undershoot {remaining} below tolerance")
        remaining = 0.0
    return actual, BatteryState(remaining, state.capacity)


def extract_many(
    state: BatteryState, desired: "list[float] | tuple[float, ...]"
) -> tuple[list[float], BatteryState]:
    """Serve several receivers from one buffer, in list order.

    Earlier entries have priority: each receiver gets its full request while
    the remaining level covers it, the first receiver that does not fit gets
    whatever is left, and everyone after that gets zero.
    """
    actual = []
    for j, d in enumerate(desired):
        a, state = extract(state, _check_power(d, f"desired power [{j}]"))
        actual.append(a)
    return actual, state


def deposit(state: BatteryState, harvested: float) -> BatteryState:
    """Bank `harvested` power at the end of a slot, clipping at the capacity."""
    harvested = _check_power(harvested, "harvested power")
    level = state.level + harvested
    if level > state.capacity:
        level = state.capacity
    return BatteryState(level, state.capacity)


class Regime(Enum):
    """Long-run behaviour of the buffer under an average outflow limit.

    ABSORBING: the outflow limit sits strictly below the average inflow, so
    surplus energy accumulates and the level grows without bound (until a
    finite capacity clips it).  NON_ABSORBING: the limit is at or above the
    inflow and the buffer keeps returning to low levels; the long-run output
    average then equals the inflow average.
    """

    ABSORBING = "absorbing"
    NON_ABSORBING = "non_absorbing"


def classify_regime(p_in_avg: float, p_lim_avg: float) -> Regime:
    """Classify the buffer regime from average inflow and outflow limit."""
    p_in_avg = float(p_in_avg)
    if not (p_in_avg > 0.0 and math.isfinite(p_in_avg)):
        raise ValueError(f"average inflow must be finite and > 0, got {p_in_avg}")
    p_lim_avg = float(p_lim_avg)
    if not p_lim_avg >= 0.0:
        raise ValueError(f"average outflow limit must be >= 0, got {p_lim_avg}")
    return Regime.ABSORBING if p_lim_avg < p_in_avg else Regime.NON_ABSORBING


# Below this many lanes, `trajectory` runs each lane through the scalar
# loop; from it on, one pass over the slots with numpy calls across the
# lanes is faster (measured break-even: 12 to 16 lanes, at 100 slots).
VECTOR_LANES = 14


def trajectory(
    desired: np.ndarray,
    harvested: np.ndarray,
    *,
    capacity: float = math.inf,
    initial: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the extract/deposit cycle over whole per-slot arrays.

    Parameters
    ----------
    desired : (n,) or (n, links) array of requested powers per slot.
    harvested : (n,) array of powers banked at the end of each slot, or
        (n, k) for k independent single-link buffers ("lanes"): lane j
        serves ``desired[:, j]`` from ``harvested[:, j]``, and `desired`
        must then be (n, k) too.
    capacity, initial : buffer size and level before the first slot,
        shared by all lanes.

    Returns
    -------
    actual : array like `desired` with the powers actually drawn.
    levels : (n,) buffer level after each slot's deposit; (n, k) for lanes.

    Slot i of this function is exactly ``extract_many`` followed by
    ``deposit`` on scalars; the loop is just the array form of the two.
    Each lane gets the result of its own 1-D call, bit for bit.
    """
    desired = np.asarray(desired, dtype=float)
    harvested = np.asarray(harvested, dtype=float)
    single = desired.ndim == 1
    rows = desired[:, None] if single else desired
    n = rows.shape[0]
    lanes = harvested.ndim == 2
    expected = desired.shape if lanes else (n,)
    if harvested.shape != expected:
        raise ValueError(
            f"harvested shape {harvested.shape} does not match {expected}"
        )
    if np.any(rows < 0.0) or not np.all(np.isfinite(rows)):
        raise ValueError("desired powers must be finite and >= 0")
    if np.any(harvested < 0.0) or not np.all(np.isfinite(harvested)):
        raise ValueError("harvested powers must be finite and >= 0")
    # Validate capacity/initial through the state type, then run on floats.
    BatteryState(float(initial), capacity)
    initial = float(initial)

    if lanes:
        return _lanes(rows, harvested, capacity, initial)
    if rows.shape[1] == 1:
        out, levels = _single_link(rows[:, 0].tolist(), harvested.tolist(),
                                   capacity, initial)
        actual = np.array(out)
        return (actual if single else actual[:, None]), np.array(levels)

    # Zero requests draw nothing, so only the nonzero ones are walked.
    # `np.nonzero` lists them slot by slot in link order, which is the
    # service order; `ends[i]` is one past slot i's last entry.
    harv = harvested.tolist()
    level = initial
    levels = [0.0] * n
    slot_of, link_of = np.nonzero(rows)
    want = rows[slot_of, link_of].tolist()
    got = [0.0] * len(want)
    ends = np.bincount(slot_of, minlength=n).cumsum().tolist()
    k = 0
    for i in range(n):
        end = ends[i]
        while k < end:
            d = want[k]
            a = d if d <= level else level
            got[k] = a
            level -= a
            k += 1
        level += harv[i]
        if level > capacity:
            level = capacity
        levels[i] = level
    actual = np.zeros(rows.shape)
    actual[slot_of, link_of] = got
    return actual, np.array(levels)


def _single_link(want: list, harv: list, capacity: float, level: float):
    """The slot loop of one single-link buffer, on lists."""
    n = len(want)
    out = [0.0] * n
    levels = [0.0] * n
    for i in range(n):
        d = want[i]
        a = d if d <= level else level
        out[i] = a
        level = level - a + harv[i]
        if level > capacity:
            level = capacity
        levels[i] = level
    return out, levels


def _lanes(want: np.ndarray, harv: np.ndarray, capacity: float,
           initial: float):
    """k single-link buffers side by side: the columns of `want`/`harv`."""
    n, k = want.shape
    actual = np.empty((n, k))
    levels = np.empty((n, k))
    if k < VECTOR_LANES:
        for j in range(k):
            out, lev = _single_link(want[:, j].tolist(), harv[:, j].tolist(),
                                    capacity, initial)
            actual[:, j] = out
            levels[:, j] = lev
        return actual, levels
    # The scalar loop's operations in its order, applied across the lanes.
    # `minimum(level, d)` returns d on a tie, as `d if d <= level` does,
    # which keeps even the sign of a zero grant.
    want = np.ascontiguousarray(want)
    harv = np.ascontiguousarray(harv)
    bounded = not math.isinf(capacity)
    minimum, subtract, add = np.minimum, np.subtract, np.add
    level = np.full(k, initial)
    for d, h, a, lev in zip(want, harv, actual, levels):
        minimum(level, d, out=a)
        subtract(level, a, out=lev)
        add(lev, h, out=lev)
        if bounded:
            minimum(lev, capacity, out=lev)
        level = lev
    return actual, levels


if __name__ == "__main__":
    # Quick self-check of the slot cycle.
    s = BatteryState(0.0, 10.0)
    s = deposit(s, 5.0)
    drawn, s = extract_many(s, [3.0, 4.0])
    print("drawn", drawn, "level", s.level)
    assert drawn == [3.0, 2.0] and s.level == 0.0
    s = deposit(s, 20.0)
    assert s.level == 10.0
    print("battery self-check ok")
