"""Unit tests for the per-slot utilities and their closed-form references.

Each utility is checked through `evaluate(slots, powers, gains)`, with
(slots, links) arrays as the simulator passes them."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehnet.policies import AmplifierModel
from ehnet.stochastic import expectation_quadrature
from ehnet.utilities import (
    AmplifierRateUtility,
    BroadcastSumRateUtility,
    ChainRateUtility,
    MacBpskBerUtility,
    OutageUtility,
    qfunc,
    rayleigh_bpsk_ber,
)


def column(values):
    """`values` as the one link column of a single-link utility."""
    return np.asarray(values, dtype=float).reshape(-1, 1)


# ---------------------------------------------------------------------------
# Q function, outage, amplifier, broadcast and multi-access utilities


def test_qfunc_reference_values():
    assert qfunc(0.0) == 0.5
    assert float(qfunc(2.0)) == pytest.approx(0.022750131948179216, rel=1e-14)
    assert float(qfunc(math.sqrt(8.0))) == pytest.approx(
        0.002338867490523633, rel=1e-14)
    assert float(qfunc(-100.0)) == pytest.approx(1.0, abs=1e-15)


def test_outage_strict_below_threshold():
    # product 1.0 gives rate exactly 1.0: meeting the threshold is success
    out = OutageUtility(1.0).evaluate(
        np.array([1, 2, 3]), column([1.0, 0.999, 2.0]), column(np.ones(3)))
    assert out.tolist() == [0.0, 1.0, 0.0]
    out = OutageUtility(1.0).evaluate(np.array([2, 3]), column([1.0, 0.5]),
                                      column([1.0, 1.0]))
    assert out.tolist() == [0.0, 1.0]


def test_outage_zero_power_is_always_out():
    out = OutageUtility(0.5).evaluate(np.array([1, 2]), column(np.zeros(2)),
                                      column([5.0, 1e9]))
    assert out.tolist() == [1.0, 1.0]


def test_amplifier_rate_worked_example():
    amp = AmplifierModel(epsilon=3.0, circuit_power=0.5)
    # (2 - 0.5) * 2 / 3 = 1 -> log2(2) = 1
    val = AmplifierRateUtility(amp).evaluate(np.array([1]), column([2.0]),
                                             column([2.0]))
    assert float(val[0]) == pytest.approx(1.0, rel=1e-15)


def test_amplifier_rate_zero_at_or_below_circuit_draw():
    amp = AmplifierModel(epsilon=1.0, circuit_power=0.5)
    rates = AmplifierRateUtility(amp).evaluate(
        np.array([1, 2, 3]), column([0.0, 0.25, 0.5]), column(np.full(3, 7.0)))
    assert rates.tolist() == [0.0, 0.0, 0.0]


def test_broadcast_sum_rate_worked_example():
    val = BroadcastSumRateUtility(2).evaluate(
        np.array([1]), np.array([[1.0, 2.0]]), np.array([[3.0, 0.5]]))
    assert float(val[0]) == pytest.approx(math.log2(5.0), rel=1e-15)


@pytest.mark.parametrize("links", [1, 2, 3, 25])
def test_broadcast_sum_rate_of_up_to_two_products_is_the_plain_sum(links):
    # Adding zeros is exact and one addition rounds once, in any order:
    # rows with at most two nonzero products, like fig4's one per slot,
    # get the rate of `(p * g).sum(axis=-1)` bit for bit.  The zeros are
    # of either sign.
    rng = np.random.default_rng(links)
    n = 20_000
    powers = rng.choice([0.0, -0.0], size=(n, links))
    gains = rng.exponential(1.0, (n, links))
    for _ in range(min(2, links)):
        on = rng.random(n) < 0.6
        cols = rng.integers(0, links, n)
        powers[on, cols[on]] = rng.exponential(3.0, int(on.sum())) * 10.0 ** (
            rng.integers(-8, 9, int(on.sum())))
    want = np.log2(1.0 + (powers * gains).sum(axis=-1))
    got = BroadcastSumRateUtility(links).evaluate(
        np.arange(1, n + 1), powers, gains)
    assert got.tobytes() == want.tobytes()


def test_mac_ber_worked_example():
    # 2 * (2*1 + 2*1) = 8
    val = MacBpskBerUtility(2).evaluate(
        np.array([1]), np.array([[2.0, 2.0]]), np.array([[1.0, 1.0]]))
    assert float(val[0]) == pytest.approx(0.002338867490523633, rel=1e-14)


def test_mac_ber_with_no_power_is_half():
    val = MacBpskBerUtility(3).evaluate(np.array([1]), np.zeros((1, 3)),
                                        np.ones((1, 3)))
    assert float(val[0]) == 0.5


# ---------------------------------------------------------------------------
# relay chain


def test_chain_rate_worked_example():
    # two hops at p*g = 10 each: (1.1^2 - 1)^-1 = 100/21
    val = ChainRateUtility(2).evaluate(
        np.array([4]), np.array([[10.0, 10.0]]), np.ones((1, 2)))
    assert float(val[0]) == pytest.approx(2.5265458144958344, rel=1e-14)
    assert float(val[0]) == pytest.approx(math.log2(1.0 + 100.0 / 21.0), rel=1e-15)


def test_chain_rate_zero_on_odd_slots():
    val = ChainRateUtility(2).evaluate(
        np.array([5]), np.array([[10.0, 10.0]]), np.ones((1, 2)))
    assert float(val[0]) == 0.0


def test_chain_rate_zero_before_pipeline_fills():
    # a 4-node chain cannot deliver before slot 3; slot 2 is even but too early
    chain = ChainRateUtility(3)
    val = chain.evaluate(np.array([2]), np.full((1, 3), 10.0), np.ones((1, 3)))
    assert float(val[0]) == 0.0
    val = chain.evaluate(np.array([4]), np.full((1, 3), 10.0), np.ones((1, 3)))
    assert float(val[0]) > 0.0


@pytest.mark.parametrize("hops", range(1, 7))
def test_chain_decoding_slots_count_the_slots_evaluate_decodes_in(hops):
    # With every hop powered, the slots of 1..n with a nonzero rate are
    # the ones `decoding_slots(n)` counts, odd hop counts included.
    chain = ChainRateUtility(hops)
    slots = np.arange(1, 41)
    val = chain.evaluate(slots, np.full((40, hops), 10.0),
                         np.ones((40, hops)))
    for n in range(0, 41):
        assert chain.decoding_slots(n) == int((val[:n] > 0.0).sum())


def test_chain_rate_dead_hop_kills_slot():
    val = ChainRateUtility(2).evaluate(
        np.array([4]), np.array([[10.0, 0.0]]), np.ones((1, 2)))
    assert float(val[0]) == 0.0


def test_chain_rate_single_hop_reduces_to_direct_link():
    # one hop, 2 nodes: equivalent snr is just p*g
    val = ChainRateUtility(1).evaluate(
        np.array([2]), np.array([[3.0]]), np.array([[2.0]]))
    assert float(val[0]) == pytest.approx(math.log2(7.0), rel=1e-14)


@given(
    st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=2, max_size=5),
    st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=2, max_size=5),
)
@settings(max_examples=200, deadline=None)
def test_chain_rate_bounded_by_weakest_hop(ps, gs):
    # amplify-and-forward cannot beat its weakest hop
    k = min(len(ps), len(gs))
    p = np.array([ps[:k]])
    g = np.array([gs[:k]])
    val = float(ChainRateUtility(k).evaluate(np.array([2 * k]), p, g)[0])
    cap = math.log2(1.0 + float(np.min(p * g)))
    assert val <= cap + 1e-12


# ---------------------------------------------------------------------------
# closed-form fading averages


def test_rayleigh_ber_reference_values():
    assert rayleigh_bpsk_ber(4.0, 1) == pytest.approx(
        0.05278640450004207, rel=1e-14)
    assert rayleigh_bpsk_ber(4.0, 1) == pytest.approx(
        0.5 * (1.0 - math.sqrt(0.8)), rel=1e-15)
    assert rayleigh_bpsk_ber(4.0, 2) == pytest.approx(
        0.008065044950046271, rel=1e-14)
    assert rayleigh_bpsk_ber(1.0, 2) == pytest.approx(
        0.058058261758407774, rel=1e-14)


@pytest.mark.parametrize("power", [0.5, 2.0, 10.0])
@pytest.mark.parametrize("branches", [1, 2, 3])
def test_rayleigh_ber_matches_quadrature(power, branches):
    # integrate Q(sqrt(2 p s)) against the sum of `branches` unit exponentials
    def gamma_pdf(s):
        return s ** (branches - 1) * math.exp(-s) / math.factorial(branches - 1)

    want = expectation_quadrature(
        lambda s: float(qfunc(math.sqrt(2.0 * power * s))), gamma_pdf,
        abs_tol=1e-12, rel_tol=1e-12)
    assert rayleigh_bpsk_ber(power, branches) == pytest.approx(want, rel=1e-9)


def test_rayleigh_ber_validation():
    with pytest.raises(ValueError):
        rayleigh_bpsk_ber(0.0)
    with pytest.raises(ValueError):
        rayleigh_bpsk_ber(1.0, 0)


# ---------------------------------------------------------------------------
# link counts


def test_wrapper_arity():
    assert BroadcastSumRateUtility(4).num_links == 4
    assert MacBpskBerUtility(3).num_links == 3
    assert ChainRateUtility(2).num_links == 2
    assert OutageUtility(1.0).num_links == 1
