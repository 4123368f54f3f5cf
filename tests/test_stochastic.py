"""Unit tests for random streams and quadrature helpers."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ehnet.stochastic import (
    ConstantProcess,
    ExponentialProcess,
    QuadratureError,
    Stream,
    expectation_quadrature,
    exponential_pdf,
    max_exponential_pdf,
    seed_states,
)


# ---------------------------------------------------------------------------
# streams


def test_same_seed_and_key_reproduces():
    a = Stream(42, (1, 0, 0)).uniforms(1000)
    b = Stream(42, (1, 0, 0)).uniforms(1000)
    assert np.array_equal(a, b)


def test_different_keys_give_different_draws():
    a = Stream(42, (1, 0, 0)).uniforms(1000)
    b = Stream(42, (1, 0, 1)).uniforms(1000)
    c = Stream(42, (0, 0, 0)).uniforms(1000)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_different_seeds_give_different_draws():
    a = Stream(1, (0, 0, 0)).uniforms(100)
    b = Stream(2, (0, 0, 0)).uniforms(100)
    assert not np.array_equal(a, b)


def test_chunked_draws_match_single_call():
    s1 = Stream(7, (2, 3, 4))
    s2 = Stream(7, (2, 3, 4))
    whole = s1.uniforms(100)
    parts = np.concatenate([s2.uniforms(30), s2.uniforms(50), s2.uniforms(20)])
    assert np.array_equal(whole, parts)


def test_uniforms_live_in_unit_interval():
    u = Stream(0, (0, 0, 0)).uniforms(10000)
    assert np.all(u >= 0.0)
    assert np.all(u < 1.0)


def test_stream_key_independence_is_plausible():
    # crude correlation check between two keyed streams of one seed
    a = Stream(5, (0, 1, 0)).uniforms(100000)
    b = Stream(5, (0, 2, 0)).uniforms(100000)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.02


# ---------------------------------------------------------------------------
# seed words: `seed_states` against SeedSequence itself

# Seeds at the edges of one, two and three uint32 words.
_EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 + 1]
_seeds = st.one_of(st.sampled_from(_EDGE_SEEDS), st.integers(0, 2**160))
_key_parts = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32]),
                       st.integers(0, 2**70))
_keys = st.lists(_key_parts, max_size=4).map(tuple)


def _seed_sequence_states(seeds, keys, n_words):
    return np.array(
        [np.random.SeedSequence(s, spawn_key=k).generate_state(n_words,
                                                                np.uint64)
         for s in seeds for k in keys],
        dtype=np.uint64,
    ).reshape(len(seeds) * len(keys), n_words)


@given(seeds=st.lists(_seeds, min_size=1, max_size=5),
       keys=st.lists(_keys, min_size=1, max_size=9),
       n_words=st.sampled_from([1, 4]))
@example(seeds=[5], keys=[(0, 1, 0)], n_words=4)
@example(seeds=[5], keys=[(0, k, 0) for k in range(7)], n_words=4)
@example(seeds=[5], keys=[(0, k, 0) for k in range(8)], n_words=4)
@example(seeds=_EDGE_SEEDS, keys=[(), (0,), (2**32,), (1, 2**32 - 1, 2**33, 7)],
         n_words=4)
@example(seeds=_EDGE_SEEDS + [3, 2**200], keys=[()], n_words=1)
@settings(max_examples=300, deadline=None)
def test_seed_states_equal_seed_sequence(seeds, keys, n_words):
    # rows run from 1 to 45, each hashed as one lane of the batch
    got = seed_states(seeds, keys, n_words)
    assert got.dtype == np.uint64
    assert got.shape == (len(seeds) * len(keys), n_words)
    assert np.array_equal(got, _seed_sequence_states(seeds, keys, n_words))


def test_streams_draw_what_their_seed_sequence_gives():
    seeds = [0, 2**32, 2**64 - 1, 2**128 + 1]
    keys = [(0, 1, 0), (1, 1, 2), ()]
    states = seed_states(seeds, keys)
    rows = iter(states)
    for seed in seeds:
        for key in keys:
            ss = np.random.SeedSequence(seed, spawn_key=key)
            want = np.random.Generator(np.random.PCG64(ss)).random(257)
            alone = Stream(seed, key).uniforms(257)
            batched = Stream(seed, key, next(rows)).uniforms(257)
            assert alone.tobytes() == want.tobytes()
            assert batched.tobytes() == want.tobytes()


def test_no_seeds_or_no_keys_give_no_rows():
    for seeds, keys in (([], [(0,)]), ([1], []), ([], [])):
        states = seed_states(seeds, keys, 3)
        assert states.shape == (0, 3) and states.dtype == np.uint64


@pytest.mark.parametrize("seeds, keys", [
    ([-1], [(0,)]),
    ([1], [(0, -1)]),
    ([-1] + list(range(8)), [(0,)]),
    (list(range(8)), [(0,), (3, -2)]),
], ids=["seed", "key_part", "batched_seed", "batched_key_part"])
def test_negative_seeds_and_key_parts_raise(seeds, keys):
    with pytest.raises(ValueError):
        seed_states(seeds, keys)


def test_negative_stream_seed_raises():
    with pytest.raises(ValueError):
        Stream(-1, (0, 1, 0))
    with pytest.raises(ValueError):
        Stream(1, (0, -1, 0))


# ---------------------------------------------------------------------------
# processes


def test_exponential_inverse_cdf_mapping():
    # samples are the inverse CDF applied to the same uniforms
    stream = Stream(9, (0, 0, 0))
    u = Stream(9, (0, 0, 0)).uniforms(50)
    x = ExponentialProcess(3.0).sample(stream, 50)
    assert np.allclose(x, -3.0 * np.log1p(-u), rtol=0, atol=0)


def test_exponential_sample_mean_converges():
    stream = Stream(11, (0, 0, 0))
    x = ExponentialProcess(2.0).sample(stream, 1_000_000)
    assert np.mean(x) == pytest.approx(2.0, rel=0.01)
    # second moment of exp(mean m) is 2 m^2
    assert np.mean(x * x) == pytest.approx(8.0, rel=0.02)


def test_exponential_mean_nine():
    stream = Stream(11, (1, 0, 0))
    x = ExponentialProcess(9.0).sample(stream, 1_000_000)
    assert np.mean(x) == pytest.approx(9.0, rel=0.01)


def test_exponential_requires_positive_mean():
    with pytest.raises(ValueError):
        ExponentialProcess(0.0)
    with pytest.raises(ValueError):
        ExponentialProcess(-1.0)


def test_constant_process_consumes_no_randomness():
    stream = Stream(3, (0, 0, 0))
    x = ConstantProcess(1.5).sample(stream, 10)
    assert np.all(x == 1.5)
    # the stream is untouched: next uniforms equal a fresh stream's
    assert np.array_equal(stream.uniforms(5), Stream(3, (0, 0, 0)).uniforms(5))


def test_process_means_exposed():
    assert ExponentialProcess(4.0).mean == 4.0
    assert ConstantProcess(2.0).mean == 2.0


# ---------------------------------------------------------------------------
# quadrature


def test_pdf_integrates_to_one():
    one = expectation_quadrature(lambda g: 1.0, exponential_pdf(1.0))
    assert one == pytest.approx(1.0, abs=1e-10)
    one = expectation_quadrature(lambda g: 1.0, max_exponential_pdf(1.0, 25))
    assert one == pytest.approx(1.0, abs=1e-9)


def test_quadrature_known_expectations():
    pdf = exponential_pdf(1.0)
    assert expectation_quadrature(lambda g: g, pdf) == pytest.approx(1.0, abs=1e-10)
    assert expectation_quadrature(lambda g: g * g, pdf) == pytest.approx(2.0, abs=1e-9)
    # E[exp(-g)] = 1/2 for unit exponential
    assert expectation_quadrature(lambda g: math.exp(-g), pdf) == pytest.approx(
        0.5, abs=1e-10)


def test_quadrature_respects_lower_limit():
    # P(g > 1) = exp(-1)
    val = expectation_quadrature(lambda g: 1.0, exponential_pdf(1.0), lower=1.0)
    assert val == pytest.approx(math.exp(-1.0), abs=1e-10)


def test_max_exponential_pdf_mean_is_harmonic_number():
    # E[max of n unit exponentials] = H_n
    n = 4
    h4 = 1.0 + 0.5 + 1.0 / 3.0 + 0.25
    val = expectation_quadrature(lambda g: g, max_exponential_pdf(1.0, n))
    assert val == pytest.approx(h4, abs=1e-9)


def test_max_exponential_pdf_count_one_reduces_to_plain():
    pdf_a = max_exponential_pdf(2.0, 1)
    pdf_b = exponential_pdf(2.0)
    xs = np.linspace(0.01, 10.0, 50)
    assert np.allclose([pdf_a(x) for x in xs], [pdf_b(x) for x in xs], rtol=1e-12)


def test_quadrature_error_on_unresolvable_integrand():
    # oscillating too fast for the subdivision budget: must refuse, not guess
    with pytest.raises(QuadratureError):
        expectation_quadrature(lambda g: math.cos(1e6 * g), exponential_pdf(1.0),
                               abs_tol=1e-14, rel_tol=1e-14)


def test_quadrature_error_names_the_quad_warning_in_one_line():
    # the CLI prints the message as its one stderr line
    with pytest.raises(QuadratureError) as info:
        expectation_quadrature(lambda g: math.cos(1e6 * g), exponential_pdf(1.0),
                               abs_tol=1e-14, rel_tol=1e-14)
    message = str(info.value)
    assert "\n" not in message
    assert message.startswith("quadrature error estimate ")
    assert "subdivisions" in message
