"""Transmit power policies and the average-power budget solver.

A policy decides, slot by slot, how much power a node would like to send to
each of its receivers.  Policies only see the current channel gains of their
own links and the slot number; they never see the future, other nodes'
buffers, or the realized draws of the battery.  Feasibility against the
battery is the simulator's job: the battery grants what it can and the
difference shows up as mismatch.

The threshold policies (`WaterfillPolicy`, `MaxGainBroadcastPolicy`) carry
a gain threshold `lam`, and each states its request at a gain above the
threshold once, in its `request` method; `desired_powers` and the budget
both call it.  The budget is the expected request at a threshold:
`expected_desired_power(policy, gain_pdf)` integrates `request` over the
density of the gain the policy compares with `lam` by quadrature, and
each policy's `expected_request_rayleigh` gives it for unit-mean
exponential gains without quadrature: `WaterfillPolicy`'s in closed
form, `MaxGainBroadcastPolicy`'s on fixed Gauss-Legendre nodes.
`solve_lambda(target_avg, budget)` picks the threshold: it bisects on
`lam` until `budget(lam)`, any of them, equals `target_avg`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .stochastic import (check_count, check_real, expectation_quadrature,
                         is_integer, load_compiled)

__all__ = [
    "AlternatingRelayPolicy",
    "AmplifierModel",
    "ConstantPolicy",
    "InfeasibleTargetError",
    "MaxGainBroadcastPolicy",
    "ThresholdSolverError",
    "WaterfillPolicy",
    "expected_desired_power",
    "solve_lambda",
]

LAMBDA_BRACKET = (1e-9, 1e9)
LAMBDA_MAX_ITER = 200
LAMBDA_REL_TOL = 1e-8


@dataclass(frozen=True)
class AmplifierModel:
    """Power amplifier with slope `epsilon` >= 1 and static draw `circuit_power`.

    Radiated power for a supply power p is ``(p - circuit_power) / epsilon``
    when p clears the static draw, zero otherwise.
    """

    epsilon: float = 1.0
    circuit_power: float = 0.0

    def __post_init__(self) -> None:
        check_real("epsilon", self.epsilon, 1.0)
        check_real("circuit_power", self.circuit_power)


@dataclass(frozen=True)
class ConstantPolicy:
    """Request the same power every slot, ignoring the channel."""

    power: float
    num_links: int = 1

    def __post_init__(self) -> None:
        check_real("power", self.power)
        check_count("num_links", self.num_links)

    def desired_powers(self, slots: np.ndarray, gains: np.ndarray) -> np.ndarray:
        return np.full((len(slots), self.num_links), self.power)


@dataclass(frozen=True)
class WaterfillPolicy:
    """Channel-adaptive single-link policy for a lossy amplifier.

    Above the gain threshold `lam` the node requests `request(gain)`; at or
    below the threshold it stays silent.  With `lam` from `solve_lambda`
    the long-run request average equals the power budget.
    """

    amplifier: AmplifierModel
    lam: float
    num_links = 1

    def __post_init__(self) -> None:
        if not isinstance(self.amplifier, AmplifierModel):
            raise ValueError(f"amplifier must be an AmplifierModel, got "
                             f"{self.amplifier!r}")
        check_real("lam", self.lam, strict=True)

    def request(self, g):
        """``circuit_power + (1/lam - 1/g)/epsilon``, for floats or arrays."""
        amp = self.amplifier
        return amp.circuit_power + (1.0 / self.lam - 1.0 / g) / amp.epsilon

    def expected_request_rayleigh(self) -> float:
        """The mean request over a unit-mean exponential gain, in closed
        form: ``circuit_power e^-lam + (e^-lam / lam - E1(lam)) / epsilon``
        (Goldsmith & Varaiya, IEEE Trans. IT 1997), the integral of
        `request` times ``e^-g`` over ``g > lam``.  E1 is scipy's `exp1`
        ufunc, loaded on first use like `utilities.qfunc`'s `erfc`."""
        exp1 = load_compiled("scipy.special._special_ufuncs").exp1
        amp, lam = self.amplifier, self.lam
        tail = math.exp(-lam)
        return (amp.circuit_power * tail
                + (tail / lam - float(exp1(lam))) / amp.epsilon)

    def desired_powers(self, slots: np.ndarray, gains: np.ndarray) -> np.ndarray:
        g = np.asarray(gains, dtype=float).reshape(len(slots), 1)
        with np.errstate(divide="ignore"):
            fill = self.request(g)
        np.copyto(fill, 0.0, where=~(g > self.lam))
        return fill


@dataclass(frozen=True)
class MaxGainBroadcastPolicy:
    """Serve only the strongest of several receivers, when strong enough.

    The receiver with the largest gain (lowest index on ties) gets
    `request(gain)` if its gain reaches the threshold `lam`; everyone
    else, and every slot whose best gain falls short, gets +0.0.
    """

    lam: float
    num_links: int

    def __post_init__(self) -> None:
        check_real("lam", self.lam, strict=True)
        check_count("num_links", self.num_links)

    def request(self, g):
        """``1/lam - 1/g``, for floats or arrays."""
        return 1.0 / self.lam - 1.0 / g

    def expected_request_rayleigh(self) -> float:
        """The mean request when the largest of `num_links` = m unit-mean
        exponential gains is the one compared with `lam`.

        Integrated by parts it is ``integral over g > lam of
        (1 - (1 - e^-g)^m) / g^2``, whose integrand is positive and, as
        ``-expm1(m log1p(-e^-g))``, accurate to a few ulps at every g;
        the closed form, an alternating binomial sum, cancels at m = 25.
        With ``g = lam e^s`` it is summed over `_PANEL_NODES`-point
        Gauss-Legendre panels of width at most 1/2 in s, up to
        ``g = lam + 45 + ln m``: the rest is below e^-44 of the whole.
        """
        lam, m = self.lam, self.num_links
        top = math.log1p((45.0 + math.log(m)) / lam)
        panels = math.ceil(2.0 * top)
        width = top / panels
        nodes, weights = _gauss_legendre(_PANEL_NODES)
        s = (np.arange(panels)[:, None] + 0.5 * (nodes + 1.0)) * width
        g = lam * np.exp(s)
        tail = -np.expm1(m * np.log1p(-np.exp(-g)))
        return 0.5 * width * float(np.sum(tail / g * weights))

    def desired_powers(self, slots: np.ndarray, gains: np.ndarray) -> np.ndarray:
        """One row of requests per slot, laid out as `gains` is.

        Each row's largest gain comes from a `max` across the links, and
        the request goes where a gain equals it; only rows where that is
        not exactly one link (a tie, or a NaN gain) are searched for
        their first maximum.  So no step depends on the memory order of
        `gains`, and on a link-major array the `max` runs down contiguous
        columns."""
        g = np.asarray(gains, dtype=float).reshape(len(slots), self.num_links)
        best = g.max(axis=1)
        with np.errstate(divide="ignore"):
            power = np.where(best >= self.lam, self.request(best), 0.0)
        won = g == best[:, None]
        # A NaN row matches nowhere, so a tie elsewhere may hide in the count.
        if np.count_nonzero(won) != len(g) or np.isnan(best).any():
            rows = np.flatnonzero(np.count_nonzero(won, axis=1) != 1)
            won[rows] = False
            won[rows, np.argmax(g[rows], axis=1)] = True  # first maximum
        # 1.0 * power is the power and 0.0 * power is +0.0: power >= 0.
        out = won.astype(float)
        out *= power[:, None]
        return out


@dataclass(frozen=True)
class AlternatingRelayPolicy:
    """Half-duplex schedule: full power on matching slot parity, else silent.

    A node at position k in a chain transmits in slots i with
    ``i % 2 == k % 2`` and requests `active_power` there.  Feeding it
    twice the node's average budget makes the long-run request average
    equal the budget, since the node is active every other slot.
    """

    node_parity: int
    active_power: float
    num_links = 1

    def __post_init__(self) -> None:
        if not (is_integer(self.node_parity) and self.node_parity in (0, 1)):
            raise ValueError(f"node_parity must be 0 or 1, got "
                             f"{self.node_parity!r}")
        check_real("active_power", self.active_power)

    def desired_powers(self, slots: np.ndarray, gains: np.ndarray) -> np.ndarray:
        slots = np.asarray(slots)
        active = (slots % 2) == self.node_parity
        return np.where(active, self.active_power, 0.0)[:, None]


# ---------------------------------------------------------------------------
# Budget equation for the threshold lam
# ---------------------------------------------------------------------------

# Nodes per panel of `MaxGainBroadcastPolicy.expected_request_rayleigh`,
# and the Newton steps that find them: from the starting guesses, 24
# nodes converge to rounding in four.
_PANEL_NODES = 24
_NEWTON_STEPS = 6


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    The nodes are the roots of the Legendre polynomial P_n, found by
    Newton's method from ``cos(pi (i - 1/4) / (n + 1/2))``; the weights
    are ``2 / ((1 - x^2) P_n'(x)^2)``.  It runs only code that a sweep
    runs anyway: a LAPACK call (Golub-Welsch) or ``np.cos`` or ``@`` on
    these arrays would page in code that adds up to 1 MB to the peak RSS
    of a sweep.  The arrays are read-only, as every caller shares them.
    """
    def legendre(x):
        """P_n(x) and P_n'(x), by the three-term recurrence."""
        previous, p = np.ones_like(x), x
        for j in range(2, n + 1):
            previous, p = p, ((2 * j - 1) * x * p - (j - 1) * previous) / j
        return p, n * (x * p - previous) / (x * x - 1.0)

    nodes = np.array([math.cos(math.pi * (i - 0.25) / (n + 0.5))
                      for i in range(n, 0, -1)])
    for _ in range(_NEWTON_STEPS):
        p, slope = legendre(nodes)
        nodes = nodes - p / slope
    slope = legendre(nodes)[1]
    weights = 2.0 / ((1.0 - nodes) * (1.0 + nodes) * slope * slope)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


class InfeasibleTargetError(ValueError):
    """The budget equation has no solution inside the search bracket."""


class ThresholdSolverError(RuntimeError):
    """Bisection failed to reach the requested tolerance."""


def expected_desired_power(policy, gain_pdf: Callable[[float], float]) -> float:
    """Expected per-slot request of a threshold policy, by quadrature.

    `gain_pdf` is the density of the gain the policy compares with its
    threshold: the link's gain for `WaterfillPolicy`, the largest of the
    receivers' gains for `MaxGainBroadcastPolicy` (only the winner
    requests power).
    """
    return expectation_quadrature(policy.request, gain_pdf, lower=policy.lam)


def solve_lambda(target_avg: float,
                 budget: Callable[[float], float]) -> float:
    """Find the threshold `lam` whose `budget(lam)` equals `target_avg`.

    `budget(lam)` is the expected request of the threshold policy at
    `lam`: `expected_desired_power` of it, or its
    `expected_request_rayleigh` for unit-mean exponential gains.  It
    decreases in the threshold, so plain bisection on the fixed
    `LAMBDA_BRACKET` is enough.  Raises `InfeasibleTargetError` when the
    bracket does not straddle the target and `ThresholdSolverError` when
    `LAMBDA_MAX_ITER` bisections do not reach the relative tolerance
    `LAMBDA_REL_TOL`.
    """
    check_real("target_avg", target_avg, strict=True)

    def residual(lam: float) -> float:
        return budget(lam) - target_avg

    lo, hi = LAMBDA_BRACKET
    r_lo, r_hi = residual(lo), residual(hi)
    if r_lo < 0.0 or r_hi > 0.0:
        raise InfeasibleTargetError(
            f"average budget {target_avg} not reachable for thresholds in "
            f"[{lo:g}, {hi:g}] (endpoint residuals {r_lo:g}, {r_hi:g})"
        )
    tol = LAMBDA_REL_TOL * target_avg
    for _ in range(LAMBDA_MAX_ITER):
        mid = math.sqrt(lo * hi) if hi / lo > 4.0 else 0.5 * (lo + hi)
        r_mid = residual(mid)
        if abs(r_mid) <= tol:
            return mid
        if r_mid > 0.0:
            lo = mid
        else:
            hi = mid
    raise ThresholdSolverError(
        f"no threshold within tolerance after {LAMBDA_MAX_ITER} bisections"
    )
