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

A single-link buffer runs as a walk over running sums, exact bit for bit
(see `_single_link`).  So does a multi-link buffer that asks for power on
at most one link per slot, such as a broadcast transmitter serving its
strongest receiver: it walks that one request per slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BatteryState",
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


# Below this many lanes, `trajectory` runs each lane on its own; from it
# on, one pass over the slots with numpy calls across the lanes is faster.
# On the fig5 benchmark's 100-slot batches (median of 11) the pass across
# the lanes took 375-384 us per batch for 8 to 20 lanes, against 355, 438,
# 524 and 612 us one lane at a time (each by the walk) for 8, 10, 12 and
# 14 lanes: the break-even is 8 to 10 lanes.  The simulator passes one
# lane per trial it runs side by side (`simulator.CHUNK_SLOT_LINKS`): the
# shipped configs and the benchmark make groups of 1, 3, 5, 35, 37, 65,
# 100, 163 or 200 lanes, so any value from 6 to 35 routes them alike.
VECTOR_LANES = 14

# The single-link walk (`_single_link`) accumulates a window of WALK_FIRST
# slots, doubles it after each clip-free window up to WALK_MAX, and steps
# WALK_STEPS slots with the scalar loop from each clip on.  On the fig2
# benchmark's battery inputs (280 runs of 10^4 slots, 1% of slots clip,
# mostly in clusters), first windows of 64 to 512, caps of 1024 to 8192
# and 16 to 64 steps all took 103-115 ms (best of 9) against 570 ms for
# the scalar loop; 8 steps took 127 ms and 128 steps 121 ms.  A fixed
# window of 256, 512 or 1024 slots took 132-149 ms against 117-124 ms for
# the growing one (best of 9 and of 15, interleaved, on a busier host).
WALK_FIRST = 128
WALK_MAX = 4096
WALK_STEPS = 32


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
    capacity : buffer size, shared by all lanes.
    initial : level before the first slot: a scalar, or for lanes one
        level per lane, a (k,) array.  Each must be a valid
        `BatteryState` level, except that an unbounded buffer may start
        at inf, where its level goes when a sum overflows; so a run split
        at any slot and resumed from the levels its first part returned
        gives the whole run's results.  A level of -0.0 starts as +0.0,
        as in `BatteryState`.

    Returns
    -------
    actual : array like `desired` with the powers actually drawn.
    levels : (n,) buffer level after each slot's deposit; (n, k) for lanes.

    Slot i of this function is exactly ``extract_many`` followed by
    ``deposit`` on scalars, bit for bit, and each lane gets the result of
    its own 1-D call; a single-link buffer, and a multi-link one with at
    most one nonzero request per slot, take clip-free stretches whole (see
    `_single_link`).
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
    start = np.asarray(initial, dtype=float) + 0.0  # -0.0 becomes +0.0
    if start.shape not in ((), rows.shape[1:] if lanes else ()):
        raise ValueError(f"initial shape {start.shape} does not match "
                         f"{rows.shape[1:] if lanes else ()}")
    _check_levels(start.ravel(), capacity)

    # Levels near the float maximum overflow to inf, as the scalar loop's
    # Python floats do silently; the walk's sums past a clip are discarded.
    with np.errstate(over="ignore"):
        if lanes:
            return _lanes(rows, harvested, capacity,
                          np.broadcast_to(start, rows.shape[1:]))
        initial = float(start)
        if rows.shape[1] == 1:
            actual, levels = _single_link(rows[:, 0], harvested, capacity,
                                          initial)
            return (actual if single else actual[:, None]), levels

    # Zero requests draw nothing.  When no slot asks on more than one
    # link, each slot's largest request is its only one, and the walk over
    # those is the loop below bit for bit: a slot without a request draws
    # a zero from its first link, which leaves a level of +0.0 or more as
    # it is, and no level starts or becomes -0.0.
    if rows.shape[1]:
        slot = np.arange(n)
        link_of = rows.argmax(axis=1)
        want = rows[slot, link_of]
        if np.count_nonzero(want) == np.count_nonzero(rows):
            got, levels = _single_link(want, harvested, capacity, initial)
            actual = rows.copy()
            actual[slot, link_of] = got
            return actual, levels

    # Otherwise only the nonzero requests are walked, slot by slot.
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
    # A zero request is granted as itself, sign and all.
    actual = rows.copy()
    actual[slot_of, link_of] = got
    return actual, np.array(levels)


def _check_levels(levels: np.ndarray, capacity: float) -> None:
    """Raise `BatteryState`'s error for the first of `levels` that cannot
    start a buffer of `capacity`, or for the capacity itself.  A level of
    inf passes in an unbounded buffer only: `BatteryState` takes no inf
    level, but an unbounded level that overflowed stays there."""
    bad = np.flatnonzero(~((levels >= 0.0) & (levels <= capacity)))
    BatteryState(float(levels[bad[0]]) if len(bad) else 0.0, capacity)


def _single_link(want: np.ndarray, harv: np.ndarray, capacity: float,
                 level: float):
    """One single-link buffer: the scalar loop's results, by a walk.

    Between clips, slot i sets ``level = (level - d_i) + h_i``, and IEEE
    754 defines ``x - d`` as ``x + (-d)``.  So the running sums of
    ``[level, -d_i, h_i, -d_{i+1}, h_{i+1}, ...]``, added left to right by
    `np.add.accumulate`, are that stretch's levels bit for bit, and its
    grants are the requests themselves.  A slot clips when its post-draw
    sum is negative (``d_i > level``, the grant is the level) or its
    post-deposit sum exceeds the capacity.  The walk accumulates a window
    of slots, commits those before its first clip, steps the clip and a
    few slots after it with the scalar loop, and accumulates again from
    the level that left, written over the slot's spent harvest.
    """
    n = want.shape[0]
    out = want.copy()
    events = np.empty(2 * n + 1)
    # Negate the contiguous copy: numpy 2.4's `negative` writes wrong values
    # into a strided output from an input with a stride of 64 bytes, the
    # column of a lane among 8 links.
    np.negative(out, out=events[1::2])
    events[2::2] = harv
    sums = np.empty(2 * n + 1)
    bounded = not math.isinf(capacity)
    i = 0
    size = WALK_FIRST
    while i < n:
        end = min(n, i + size)
        events[2 * i] = level
        window = sums[2 * i:2 * end + 1]
        np.add.accumulate(events[2 * i:2 * end + 1], out=window)
        clips = window[1::2] < 0.0
        if bounded:
            clips |= window[2::2] > capacity
        j = int(clips.argmax())
        if not clips[j]:
            level = float(window[-1])
            i = end
            size = min(2 * size, WALK_MAX)
            continue
        i += j
        stop = min(n, i + WALK_STEPS)
        got, levels = _steps(want[i:stop].tolist(), harv[i:stop].tolist(),
                             capacity, float(window[2 * j]))
        out[i:stop] = got
        sums[2 * i + 2:2 * stop + 1:2] = levels
        level = levels[-1]
        i = stop
        size = WALK_FIRST
    return out, sums[2::2].copy()


def _steps(want: list, harv: list, capacity: float, level: float):
    """The scalar slot loop over lists: grants and post-deposit levels."""
    out = []
    levels = []
    for d, h in zip(want, harv):
        a = d if d <= level else level
        out.append(a)
        level = level - a + h
        if level > capacity:
            level = capacity
        levels.append(level)
    return out, levels


def _lanes(want: np.ndarray, harv: np.ndarray, capacity: float,
           initial: np.ndarray):
    """k single-link buffers side by side: the columns of `want`/`harv`,
    lane j starting from ``initial[j]``."""
    n, k = want.shape
    actual = np.empty((n, k))
    levels = np.empty((n, k))
    if k < VECTOR_LANES:
        for j in range(k):
            actual[:, j], levels[:, j] = _single_link(
                want[:, j], harv[:, j], capacity, float(initial[j]))
        return actual, levels
    # The scalar loop's operations in its order, applied across the lanes.
    # `minimum(level, d)` returns d on a tie, as `d if d <= level` does,
    # which keeps even the sign of a zero grant.
    want = np.ascontiguousarray(want)
    harv = np.ascontiguousarray(harv)
    bounded = not math.isinf(capacity)
    minimum, subtract, add = np.minimum, np.subtract, np.add
    level = initial
    for d, h, a, lev in zip(want, harv, actual, levels):
        minimum(level, d, out=a)
        subtract(level, a, out=lev)
        add(lev, h, out=lev)
        if bounded:
            minimum(lev, capacity, out=lev)
        level = lev
    return actual, levels

