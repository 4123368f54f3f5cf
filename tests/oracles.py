"""The scalar battery recursion that the tests compare the simulator's
array code against: one Python float per step, one step per request.

Within one slot a node draws ``min(desired, level)`` for each of its
requests in link order, then banks the slot's harvest, clipping at the
capacity (see `ehnet.battery`).  `extract_many` followed by `deposit` is
one slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


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
        # Python floats, so arithmetic on a numpy scalar given here
        # overflows to inf silently instead of with a RuntimeWarning; a
        # level of -0.0 is stored as +0.0, as `trajectory` starts it.
        object.__setattr__(self, "level", float(self.level) + 0.0)
        object.__setattr__(self, "capacity", float(self.capacity))
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
    returned power equals `desired` bit for bit, and ``level - drawn`` is
    never negative, since IEEE subtraction of a smaller or equal number is
    at least +0.0.
    """
    desired = _check_power(desired, "desired power")
    actual = desired if desired <= state.level else state.level
    return actual, BatteryState(state.level - actual, state.capacity)


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
