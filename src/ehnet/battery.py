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

One buffer, with one link or many, runs as a walk over running sums,
exact bit for bit (see `trajectory` and `_single_link`): over its slots
when no slot asks on more than one link, else over one sub-slot per
nonzero request.  Many single-link buffers side by side, each with its
own capacity, step across the lanes.  The scalar recursion that tests
compare both against is in `tests/oracles.py`.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["trajectory"]


def check_start(levels, capacity) -> None:
    """Raise a one-line `ValueError` for the first of `levels` that cannot
    start a buffer of `capacity`, or for the capacity itself.  `capacity`
    is one size for every level, or one size per level.

    A level must lie in ``[0, capacity]`` and a capacity must be above 0.
    So inf passes in an unbounded buffer only, where a level goes when a
    sum overflows and from where a run may resume.  A level outside its
    range is reported first, with its own capacity; then a capacity.  A
    bool, a string or any other non-number, alone, in an array or in a
    list, is refused first."""
    for name, value in (("level", levels), ("capacity", capacity)):
        # A list's items one by one: `np.asarray` makes [1.0, True] floats.
        for item in value if isinstance(value, (list, tuple)) else (value,):
            dtype = np.asarray(item).dtype
            if dtype.kind not in "iuf":
                shown = (repr(item) if np.ndim(item) == 0
                         else f"{dtype} array")
                raise ValueError(
                    f"battery {name} must be a number, got {shown}")
    capacity = capacity if np.ndim(capacity) else float(capacity)
    lev = np.asarray(levels, dtype=float)
    cap = np.asarray(capacity, dtype=float)
    fits = (lev >= 0.0) & (lev <= cap)
    if fits.all() and (cap > 0.0).all():
        return
    lev, cap, fits = (a.ravel() for a in np.broadcast_arrays(lev, cap, fits))
    bad = np.flatnonzero(~fits)
    if not len(bad):
        bad = np.flatnonzero(~(cap > 0.0))
    # With no levels at all, only a scalar capacity is left to fail.
    level, capacity = ((float(lev[bad[0]]), float(cap[bad[0]])) if len(bad)
                       else (0.0, capacity))
    if not level >= 0.0:
        raise ValueError(f"battery level must be >= 0, got {level}")
    if math.isinf(level):
        raise ValueError("battery level must be finite")
    if not capacity > 0.0:
        raise ValueError(f"battery capacity must be > 0, got {capacity}")
    if level > capacity:
        raise ValueError(f"battery level {level} exceeds capacity {capacity}")


def finite_nonnegative(x: np.ndarray) -> bool:
    """Whether every value of `x` is finite and >= 0: one `min` and one
    `max`, since NaN fails both comparisons; an empty `x` passes."""
    return x.size == 0 or bool(x.min() >= 0.0 and x.max() < np.inf)


# Below this many lanes, `trajectory` runs each lane on its own; from it
# on, one pass over the slots with numpy calls across the lanes is faster.
# On the fig5 benchmark's 100-slot batches (median of 11) the pass across
# the lanes took 375-384 us per batch for 8 to 20 lanes, against 355, 438,
# 524 and 612 us one lane at a time (each by the walk) for 8, 10, 12 and
# 14 lanes: the break-even is 8 to 10 lanes.  The simulator passes one
# lane per trial it runs side by side per single-link node
# (`simulator._battery`), so lanes count trials x single-link nodes.  The
# shipped configs make 1, 2, 3 or 5 lanes at 10^4 slots and 100, 175, 200
# or 325 at 100 slots; the benchmark's fig5 sweep makes 200 (one sender),
# 326 and 74 (two) and 325 and 25 (five), and its fig2 sweep 1 or 3.  So
# any value from 6 to 25 routes them alike.
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
    capacity=math.inf,
    initial=0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the draw-then-bank cycle over whole per-slot arrays.

    Parameters
    ----------
    desired : (n,) or (n, links) array of requested powers per slot.
    harvested : (n,) array of powers banked at the end of each slot, or
        (n, k) for k independent single-link buffers ("lanes"): lane j
        serves ``desired[:, j]`` from ``harvested[:, j]``, and `desired`
        must then be (n, k) too.
    capacity : buffer size: a scalar, or for lanes one size per lane, a
        (k,) array.
    initial : level before the first slot: a scalar, or for lanes one
        level per lane, a (k,) array, each as `check_start` allows; so a
        run split at any slot and resumed from the levels its first part
        returned gives the whole run's results.  A level of -0.0 starts
        as +0.0.

    Returns
    -------
    actual : array like `desired` with the powers actually drawn.
    levels : (n,) buffer level after each slot's deposit; (n, k) for lanes.

    Slot i of this function is the scalar recursion of `tests/oracles.py`
    (``extract_many`` then ``deposit``), bit for bit, and each lane gets
    the result of its own 1-D call.

    One buffer runs as one walk (`_single_link`).  When no slot has more
    than one nonzero request, as for a single link or fig4's broadcast
    transmitter, the walk runs over the slots themselves: each asks its
    one request, or 0.0 if it has none, and banks its harvest.  Otherwise
    it runs over sub-slots: one per nonzero request, in slot and link
    order, or one asking 0.0 for a slot without any.  Each slot banks its
    harvest on its last sub-slot, whose level is the slot's, and 0.0 on
    the others.  Both are the slot loop bit for bit: a zero request of
    either sign is granted as itself and draws nothing, since a level is
    never -0.0 (the start is normalised and ``x - x`` is +0.0); so asking
    or banking 0.0 leaves a level as it is, and a sub-slot that banks 0.0
    never clips.
    """
    desired = np.asarray(desired, dtype=float)
    harvested = np.asarray(harvested, dtype=float)
    rows = desired[:, None] if desired.ndim == 1 else desired
    n, width = rows.shape
    lanes = harvested.ndim == 2
    expected = desired.shape if lanes else (n,)
    if harvested.shape != expected:
        raise ValueError(
            f"harvested shape {harvested.shape} does not match {expected}"
        )
    for role, powers in (("desired", rows), ("harvested", harvested)):
        if not finite_nonnegative(powers):
            raise ValueError(f"{role} powers must be finite and >= 0")
    start = np.asarray(initial, dtype=float) + 0.0  # -0.0 becomes +0.0
    per_lane = rows.shape[1:] if lanes else ()
    for name, value in (("initial", start), ("capacity", capacity)):
        if np.shape(value) not in ((), per_lane):
            raise ValueError(f"{name} shape {np.shape(value)} does not "
                             f"match {per_lane}")
    check_start(initial, capacity)

    # Levels near the float maximum overflow to inf, as the scalar loop's
    # Python floats do silently; the walk's sums past a clip are discarded.
    with np.errstate(over="ignore"):
        if lanes:
            return _lanes(rows, harvested, capacity,
                          np.broadcast_to(start, per_lane))
        # `asked` lists the nonzero requests in service order.
        asked = np.flatnonzero(rows != 0.0)
        slot = asked // width
        if (slot[1:] > slot[:-1]).all():
            # At most one request per slot: each slot is its own sub-slot.
            at, last, harv = slot, slice(None), harvested
        else:
            # `ends[i]` is one past slot i's last sub-slot; a request's
            # sub-slot `at` is its rank plus the number of empty slots up
            # to its own.
            counts = np.bincount(slot, minlength=n)
            ends = np.maximum(counts, 1).cumsum()
            at = np.arange(len(asked)) + (ends - counts.cumsum())[slot]
            last = ends - 1
            harv = np.zeros(int(ends[-1]))
            harv[last] = harvested
        actual = rows.copy()
        flat = actual.reshape(-1)
        want = np.zeros(len(harv))
        want[at] = flat[asked]
        got, levels = _single_link(want, harv, capacity, float(start))
    flat[asked] = got[at]
    return actual.reshape(desired.shape), levels[last]


def _single_link(want: np.ndarray, harv: np.ndarray, capacity: float,
                 level: float):
    """One request per slot (a lane, or one buffer's sub-slots): the
    scalar loop's grants and levels, by a walk.

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


def _lanes(want: np.ndarray, harv: np.ndarray, capacity,
           initial: np.ndarray):
    """k single-link buffers side by side: the columns of `want`/`harv`,
    lane j starting from ``initial[j]`` in a buffer of its own capacity,
    `capacity` or ``capacity[j]``."""
    n, k = want.shape
    actual = np.empty((n, k))
    levels = np.empty((n, k))
    if k < VECTOR_LANES:
        sizes = np.broadcast_to(capacity, (k,))
        for j in range(k):
            actual[:, j], levels[:, j] = _single_link(
                want[:, j], harv[:, j], float(sizes[j]), float(initial[j]))
        return actual, levels
    # The scalar loop's operations in its order, applied across the lanes.
    # `minimum(level, d)` returns d on a tie, as `d if d <= level` does,
    # which keeps even the sign of a zero grant; `minimum(level, inf)` is
    # the level, so an unbounded lane among bounded ones never clips.  The
    # rows of `want` and `harv` are read where they lie, strided or not:
    # only the outputs are written, and they are contiguous.
    bounded = not np.isinf(capacity).all()
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

