"""What the tests compare the simulator's array code against: the scalar
battery recursion, one Python float per step and one step per request;
`reference_run`, a whole run slot by slot on it; `bits`, which compares
runs' results bit for bit; and `constant_request_means`, the exact expected `eh` row of a single link
with a constant request, from the battery level's law.

Within one slot a node draws ``min(desired, level)`` for each of its
requests in link order, then banks the slot's harvest, clipping at the
capacity (see `ehnet.battery`).  `extract_many` followed by `deposit` is
one slot.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, fields

import numpy as np

from ehnet.simulator import Trials
from ehnet.stochastic import Stream


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


def bits(trials: Trials) -> list:
    """Every column of `trials` with its shape and its bytes, so that a
    sign of zero or a last-digit change shows."""
    out = []
    for f in fields(Trials):
        value = getattr(trials, f.name)
        if isinstance(value, np.ndarray):
            value = (value.dtype.str, value.shape, value.tobytes())
        out.append((f.name, value))
    return out


def reference_run(config, seed: int, with_battery: bool = True) -> Trials:
    """The one-trial `Trials` of `config`'s run on `seed`, slot by slot in
    plain Python, sharing no code with `ehnet.simulator`'s walk: `run_eh`
    (or `run_non_eh` without the battery) on ``[seed]`` should give it bit
    for bit.

    Each stream key draws one value per slot from its own `Stream`.  Per
    slot, in transmitter order, each node asks its policy for one row,
    and its battery grants the row in link order with `extract_many`,
    then banks the harvest with `deposit`.  Each link's delay line is a `deque` of (gain, request,
    grant) holding its last `delay` slots, zeros before slot 1.  The
    utility sees one delayed row per slot, and its values are summed
    with `math.fsum`."""
    def draw(process, key):
        stream = Stream(seed, key)
        return lambda: float(process.sample(stream, 1)[0])

    harvests = {t.node: draw(t.harvest, (0, t.node, 0))
                for t in config.transmitters}
    fadings = [draw(link.fading, (1, link.tx, link.rx))
               for link in config.links]
    columns = {t.node: [i for i, link in enumerate(config.links)
                        if link.tx == t.node] for t in config.transmitters}
    states = {t.node: BatteryState(t.initial_level, t.capacity)
              for t in config.transmitters}
    lines = [deque([(0.0, 0.0, 0.0)] * link.delay) for link in config.links]
    misses = dict.fromkeys(columns, 0)
    union = 0
    u_eh, u_non_eh = [], []

    def utility(slot, rows, i):
        powers = np.array([[row[i] for row in rows]])
        gains = np.array([[row[0] for row in rows]])
        u = config.utility.evaluate(np.array([slot]), powers, gains)
        return float(np.asarray(u, dtype=float)[0])

    for slot in range(1, config.n_slots + 1):
        gains = [fading() for fading in fadings]
        desired, actual = [0.0] * len(gains), [0.0] * len(gains)
        hit = False
        for t in config.transmitters:
            cols = columns[t.node]
            row = t.policy.desired_powers(np.array([slot]),
                                          np.array([[gains[c] for c in cols]]))
            asked = [float(x) for x in np.asarray(row, dtype=float)[0]]
            harvest = harvests[t.node]()
            got = asked
            if with_battery:
                got, state = extract_many(states[t.node], asked)
                states[t.node] = deposit(state, harvest)
            if any(a != d for a, d in zip(got, asked)):
                misses[t.node] += 1
                hit = True
            for c, d, a in zip(cols, asked, got):
                desired[c], actual[c] = d, a
        union += hit
        delayed = []
        for line, now in zip(lines, zip(gains, desired, actual)):
            line.append(now)
            delayed.append(line.popleft())
        u_non_eh.append(utility(slot, delayed, 1))
        u_eh.append(utility(slot, delayed, 2))

    n = config.n_slots
    nodes = tuple(t.node for t in config.transmitters)
    return Trials(
        n_slots=n,
        nodes=nodes,
        avg_utility=np.array([math.fsum(u_eh) / n]),
        non_eh_utility=np.array([math.fsum(u_non_eh) / n]),
        mismatch_fraction=np.array([[misses[node] / n for node in nodes]]),
        mismatch_union=np.array([union / n]),
        final_level=np.array([[states[node].level for node in nodes]]),
    )


def constant_request_means(request: float, harvest_mean: float,
                           capacity: float, n_slots: int, expected_utility,
                           cells: int = 100) -> tuple[float, float]:
    """The expected mean utility and mismatch fraction over `n_slots` slots
    of a single-link buffer that starts empty, requests `request` every
    slot and banks an exponential harvest of mean `harvest_mean`, capped
    at `capacity`.  `expected_utility(a)` is the utility at granted power
    `a`, averaged over the gain, for an array of `a`.

    The level before each slot's draw is a Markov chain on [0, capacity]
    (Moran's finite dam), so the law of that level at slot t gives the
    exact expected utility, ``expected_utility(min(request, level))``, and
    mismatch probability, ``P(level < request)``, of slot t.  The law is
    held as masses on a grid of step h = request / `cells`, the top cell
    being the atom at `capacity`, which must be a whole number of steps.
    Each slot shifts it down by the request, folding the mass below 0 into
    0, then convolves it with the harvest rounded down to the grid,
    folding the mass above `capacity` into the top cell.  Rounding is an
    O(h) error, which Richardson extrapolation over h and h/2 removes."""
    coarse = _law_means(request, harvest_mean, capacity, n_slots,
                        expected_utility, cells)
    fine = _law_means(request, harvest_mean, capacity, n_slots,
                      expected_utility, 2 * cells)
    return tuple(2.0 * f - c for f, c in zip(fine, coarse))


def _law_means(request, harvest_mean, capacity, n_slots, expected_utility,
               cells):
    """`constant_request_means` on one grid, with `cells` steps per
    request."""
    h = request / cells
    top = round(capacity / h)
    if not math.isclose(top * h, capacity):
        raise ValueError(f"capacity {capacity} is not a whole number of "
                         f"steps of {h}")
    steps = np.arange(top + 1)
    utility = expected_utility(np.minimum(steps * h, request))
    tail = np.exp(-steps * (h / harvest_mean))  # P(harvest >= j h)
    pmf = tail[:top] * -math.expm1(-h / harvest_mean)  # P(j h <= it < j h + h)
    law = np.zeros(top + 1)
    law[0] = 1.0
    u_sum = miss_sum = 0.0
    for _ in range(n_slots):
        u_sum += law @ utility
        miss_sum += law[:cells].sum()
        drawn = np.zeros(top + 1)
        drawn[0] = law[:cells + 1].sum()
        drawn[1:max(1, top + 1 - cells)] = law[cells + 1:]
        law = np.empty(top + 1)
        law[:top] = np.convolve(drawn, pmf)[:top]
        law[top] = drawn @ tail[::-1]
    return u_sum / n_slots, miss_sum / n_slots
