"""Per-slot link qualities: rates, outage flags, error probabilities.

Each utility is one small class that binds its parameters and computes
its per-slot value in one method, ``evaluate(slots, powers, gains)``,
vectorized over the ``(n, links)`` arrays of realized transmit powers
and channel gains that the simulator hands it.  `num_links` is how many
link columns it reads.  `qfunc` and `rayleigh_bpsk_ber` are the scalar
pieces a utility and the closed-form baselines share.

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

from .battery import lone_entries
from .policies import AmplifierModel
from .stochastic import check_count, check_real, load_compiled

__all__ = [
    "AmplifierRateUtility",
    "BroadcastSumRateUtility",
    "ChainRateUtility",
    "MacBpskBerUtility",
    "OutageUtility",
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


def rayleigh_bpsk_ber(power: float, branches: int = 1) -> float:
    """Average BPSK error rate over `branches` independent Rayleigh paths of
    equal average receive power `power` (the classical diversity formula).

    For one branch this is ``(1 - sqrt(p / (1 + p))) / 2``.
    """
    check_real("power", power, strict=True)
    check_count("branches", branches)
    mu = math.sqrt(power / (1.0 + power))
    acc = 0.0
    for k in range(branches):
        acc += math.comb(branches - 1 + k, k) * ((1.0 + mu) / 2.0) ** k
    return ((1.0 - mu) / 2.0) ** branches * acc


@dataclass(frozen=True)
class OutageUtility:
    """1.0 when the slot rate ``log2(1 + power * gain)`` falls short of
    `rate_threshold`, else 0.0.  Exactly meeting it is not an outage."""

    rate_threshold: float
    num_links = 1

    def __post_init__(self) -> None:
        check_real("rate_threshold", self.rate_threshold, strict=True)

    def evaluate(self, slots, powers, gains):
        rate = np.log2(1.0 + np.asarray(powers[:, 0], dtype=float)
                       * np.asarray(gains[:, 0], dtype=float))
        return (rate < self.rate_threshold).astype(float)


@dataclass(frozen=True)
class AmplifierRateUtility:
    """Rate through a lossy amplifier: ``log2(1 + (p - P_C)+ * gain / eps)``.

    Supply power at or below the static draw `amplifier.circuit_power`
    radiates nothing and yields zero rate.  The rate is computed in one
    array, in place.
    """

    amplifier: AmplifierModel
    num_links = 1

    def __post_init__(self) -> None:
        if not isinstance(self.amplifier, AmplifierModel):
            raise ValueError(f"amplifier must be an AmplifierModel, got "
                             f"{self.amplifier!r}")

    def evaluate(self, slots, powers, gains):
        power = np.asarray(powers[:, 0], dtype=float)
        gain = np.asarray(gains[:, 0], dtype=float)
        rate = np.empty(np.broadcast_shapes(power.shape, gain.shape))
        np.subtract(power, self.amplifier.circuit_power, out=rate)
        np.clip(rate, 0.0, None, out=rate)
        np.multiply(rate, gain, out=rate)
        np.divide(rate, self.amplifier.epsilon, out=rate)
        np.add(rate, 1.0, out=rate)
        return np.log2(rate, out=rate)


@dataclass(frozen=True)
class _MultiLink:
    """A utility of `num_links` link columns, an integer >= 1."""

    num_links: int

    def __post_init__(self) -> None:
        check_count("num_links", self.num_links)


@dataclass(frozen=True)
class BroadcastSumRateUtility(_MultiLink):
    """Sum rate of one transmitter serving `num_links` receivers:
    ``log2(1 + sum_k p_k * g_k)``.

    Each slot's products are summed by `np.einsum`, which builds no array
    of them.  A slot with at most two nonzero products, as every slot of
    fig4's policy (one receiver per slot), gets the rate of
    ``(p * g).sum(axis=-1)`` bit for bit; with three or more, `einsum`
    adds them in its own order, and the rate may differ in the last digit.
    That order is the one of C-ordered rows, whatever the layout of the
    arrays: where some slot has two or more nonzero powers, arrays in
    another layout are summed from C-ordered copies.  Where none has,
    each sum is its one product, or a zero, in any order, and nothing is
    copied.
    """

    def evaluate(self, slots, powers, gains):
        p = np.asarray(powers, dtype=float)
        g = np.asarray(gains, dtype=float)
        if not (p.flags.c_contiguous and g.flags.c_contiguous
                or lone_entries(p) is not None):
            p, g = np.ascontiguousarray(p), np.ascontiguousarray(g)
        return np.log2(1.0 + np.einsum("...j,...j->...", p, g))


@dataclass(frozen=True)
class MacBpskBerUtility(_MultiLink):
    """BPSK error probability when `num_links` transmitters add coherently
    at one receiver: ``Q(sqrt(2 * sum_k g_k * p_k))``."""

    def evaluate(self, slots, powers, gains):
        # numpy sums a contiguous run of 8 or more values pairwise and a
        # strided one in order, so the products are made C-ordered: each
        # row sums in the same order whatever the layout of the arrays.
        prod = np.multiply(np.asarray(powers, dtype=float),
                           np.asarray(gains, dtype=float), order="C")
        return qfunc(np.sqrt(2.0 * prod.sum(axis=-1)))


@dataclass(frozen=True)
class ChainRateUtility(_MultiLink):
    """End-to-end rate of an amplify-and-forward half-duplex chain with
    `num_links` hops (`num_links + 1` nodes).

    `powers` and `gains` hold, per destination slot i (1-based values in
    `slots`), the already delay-aligned hop powers and gains -- hop m's
    entries are the ones it transmitted with, `num_links - m` slots
    before i.  The destination decodes only in even slots from slot
    `num_links` on; everywhere else the rate is zero, and a hop with
    zero received power kills the whole slot:

        rate = log2(1 + 1 / (prod_m (1 + 1/(p_m g_m)) - 1))
    """

    def evaluate(self, slots, powers, gains):
        x = np.asarray(powers, dtype=float) * np.asarray(gains, dtype=float)
        slots = np.asarray(slots)
        alive = (x > 0.0).all(axis=-1)
        with np.errstate(divide="ignore", over="ignore"):
            grown = np.prod(1.0 + 1.0 / np.where(x > 0.0, x, 1.0), axis=-1)
            snr = np.where(grown > 1.0, 1.0 / (grown - 1.0), np.inf)
            rate = np.log2(1.0 + snr)
        eligible = alive & (slots >= self.num_links) & (slots % 2 == 0)
        return np.where(eligible, rate, 0.0)

    def decoding_slots(self, n: int) -> int:
        """How many of slots 1..n the destination decodes in: the even
        ones from slot `num_links` on, as `evaluate`'s mask has them."""
        return max(0, n // 2 - (self.num_links - 1) // 2)
