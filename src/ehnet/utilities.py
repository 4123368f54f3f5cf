"""Per-slot link qualities: rates, outage flags, error probabilities.

Free functions compute the per-slot value from realized transmit powers and
channel gains; they are vectorized over slots.  The small wrapper classes at
the bottom bind parameters and present the uniform interface the simulator
consumes: ``evaluate(slots, powers, gains)`` over ``(n, links)`` arrays.

Convention: a slot's value is averaged over *all* slots of a run, including
slots where a utility is structurally zero (for example the odd slots and
the warm-up of a relay chain, where the destination decodes nothing).  A
relay chain that delivers one codeword every other slot therefore shows
roughly half its per-delivery rate as the run average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stochastic import load_compiled

__all__ = [
    "AmplifierRateUtility",
    "BroadcastSumRateUtility",
    "ChainRateUtility",
    "MacBpskBerUtility",
    "OutageUtility",
    "amplifier_rate",
    "broadcast_sum_rate",
    "chain_rate",
    "mac_bpsk_ber",
    "outage_indicator",
    "qfunc",
    "rayleigh_bpsk_ber",
]

_SQRT2 = math.sqrt(2.0)


def qfunc(x):
    """Gaussian tail probability Q(x), via the complementary error function."""
    # scipy's `erfc` ufunc alone, loaded on first use like QUADPACK in
    # `stochastic`: it is the object `scipy.special.erfc` names.
    erfc = load_compiled("scipy.special._special_ufuncs").erfc
    return 0.5 * erfc(np.asarray(x, dtype=float) / _SQRT2)


def outage_indicator(power, gain, rate_threshold: float):
    """1.0 when the slot rate ``log2(1 + power * gain)`` falls short of the
    threshold, else 0.0.  Exactly meeting the threshold is not an outage."""
    rate = np.log2(1.0 + np.asarray(power, dtype=float) * np.asarray(gain, dtype=float))
    return (rate < rate_threshold).astype(float)


def amplifier_rate(power, gain, amplifier):
    """Rate through a lossy amplifier: ``log2(1 + (p - P_C)+ * gain / eps)``.

    Supply power at or below the static draw `amplifier.circuit_power`
    radiates nothing and yields zero rate.  The rate is computed in one
    array, in place, by the same IEEE operations in the same order.
    """
    power = np.asarray(power, dtype=float)
    gain = np.asarray(gain, dtype=float)
    rate = np.empty(np.broadcast_shapes(power.shape, gain.shape))
    np.subtract(power, amplifier.circuit_power, out=rate)
    np.clip(rate, 0.0, None, out=rate)
    np.multiply(rate, gain, out=rate)
    np.divide(rate, amplifier.epsilon, out=rate)
    np.add(rate, 1.0, out=rate)
    return np.log2(rate, out=rate)


def broadcast_sum_rate(powers, gains):
    """Sum rate of one transmitter serving several receivers:
    ``log2(1 + sum_k p_k * g_k)`` over the last axis."""
    prod = np.asarray(powers, dtype=float) * np.asarray(gains, dtype=float)
    return np.log2(1.0 + prod.sum(axis=-1))


def mac_bpsk_ber(powers, gains):
    """BPSK error probability when several transmitters add coherently at one
    receiver: ``Q(sqrt(2 * sum_k g_k * p_k))`` over the last axis."""
    prod = np.asarray(powers, dtype=float) * np.asarray(gains, dtype=float)
    return qfunc(np.sqrt(2.0 * prod.sum(axis=-1)))


def chain_rate(powers, gains, slots, num_nodes: int):
    """End-to-end rate of an amplify-and-forward half-duplex chain.

    `powers` and `gains` hold, per destination slot i (1-based values in
    `slots`), the already delay-aligned hop powers and gains -- hop m's
    entries are the ones it transmitted with, `num_nodes - 1 - m` slots
    before i.  The destination decodes only in even slots from slot
    ``num_nodes - 1`` on; everywhere else the rate is zero, and a hop with
    zero received power kills the whole slot:

        rate = log2(1 + 1 / (prod_m (1 + 1/(p_m g_m)) - 1))
    """
    p = np.asarray(powers, dtype=float)
    g = np.asarray(gains, dtype=float)
    slots = np.asarray(slots)
    x = p * g
    alive = (x > 0.0).all(axis=-1)
    with np.errstate(divide="ignore", over="ignore"):
        grown = np.prod(1.0 + 1.0 / np.where(x > 0.0, x, 1.0), axis=-1)
        snr = np.where(grown > 1.0, 1.0 / (grown - 1.0), np.inf)
        rate = np.log2(1.0 + snr)
    eligible = alive & (slots >= num_nodes - 1) & (slots % 2 == 0)
    return np.where(eligible, rate, 0.0)


def rayleigh_bpsk_ber(power: float, branches: int = 1) -> float:
    """Average BPSK error rate over `branches` independent Rayleigh paths of
    equal average receive power `power` (the classical diversity formula).

    For one branch this is ``(1 - sqrt(p / (1 + p))) / 2``.
    """
    if not (power > 0.0 and math.isfinite(power)):
        raise ValueError(f"power must be finite and > 0, got {power}")
    branches = int(branches)
    if branches < 1:
        raise ValueError(f"branches must be >= 1, got {branches}")
    mu = math.sqrt(power / (1.0 + power))
    acc = 0.0
    for k in range(branches):
        acc += math.comb(branches - 1 + k, k) * ((1.0 + mu) / 2.0) ** k
    return ((1.0 - mu) / 2.0) ** branches * acc


# ---------------------------------------------------------------------------
# Bound wrappers with the simulator-facing interface
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OutageUtility:
    rate_threshold: float
    num_links = 1

    def evaluate(self, slots, powers, gains):
        return outage_indicator(powers[:, 0], gains[:, 0], self.rate_threshold)


@dataclass(frozen=True)
class AmplifierRateUtility:
    amplifier: "object"
    num_links = 1

    def evaluate(self, slots, powers, gains):
        return amplifier_rate(powers[:, 0], gains[:, 0], self.amplifier)


@dataclass(frozen=True)
class BroadcastSumRateUtility:
    num_links: int

    def evaluate(self, slots, powers, gains):
        return broadcast_sum_rate(powers, gains)


@dataclass(frozen=True)
class MacBpskBerUtility:
    num_links: int

    def evaluate(self, slots, powers, gains):
        return mac_bpsk_ber(powers, gains)


@dataclass(frozen=True)
class ChainRateUtility:
    """Rate of a relay chain with `num_links` hops (`num_links + 1` nodes)."""

    num_links: int

    def evaluate(self, slots, powers, gains):
        return chain_rate(powers, gains, slots, self.num_links + 1)
