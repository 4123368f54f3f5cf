"""Unit tests for random streams and quadrature helpers."""

import math
import os
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ehnet.experiments
import ehnet.policies
from ehnet.stochastic import (
    ConstantProcess,
    ExponentialProcess,
    QuadratureError,
    _SeedWords,
    Stream,
    expectation_quadrature,
    exponential_pdf,
    load_compiled,
    max_exponential_pdf,
    seed_states,
)
from ehnet.utilities import qfunc


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


def test_seed_words_hand_out_four_uint64_words_only():
    row = seed_states([5], [(0, 1, 0)])[0]
    words = _SeedWords(row)
    assert words.generate_state(4, np.uint64) is row
    assert words.generate_state(4, np.dtype("<u8")) is row
    for n_words, dtype in ((2, np.uint64), (8, np.uint64), (4, np.uint32),
                           (4, "u4"), (2, np.uint32)):
        with pytest.raises(ValueError):
            words.generate_state(n_words, dtype)
    with pytest.raises(ValueError):  # SeedSequence's default is uint32
        words.generate_state(4)


def _oracle(seed, key, n):
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return np.random.Generator(np.random.PCG64(ss)).random(n)


# One lane, and 200 lanes with seeds from 0 to 5 * 2**70, eleven of them
# wider than 32 bits.
LANE_SEEDS = [[2**40 + 7], list(range(188)) + [2**32 + i for i in range(6)]
              + [2**64 - 1, 2**64, 2**100 + 3, 2**32 - 1, 2**63, 5 * 2**70]]


@pytest.mark.parametrize("seeds", LANE_SEEDS, ids=["1_lane", "200_lanes"])
@pytest.mark.parametrize("precomputed", [False, True],
                         ids=["seeded_here", "state_rows"])
@pytest.mark.parametrize("into", [False, True], ids=["new", "out"])
def test_stream_lanes_draw_what_each_seed_sequence_gives(seeds, precomputed,
                                                        into):
    # Uneven splits of 100 draws, so every lane continues mid-block.
    key = (1, 3, 4)
    state = seed_states(seeds, [key]) if precomputed else None
    stream = Stream(seeds, key, state)
    assert stream.shape == (len(seeds),)
    assert stream.seed == tuple(seeds)
    parts = []
    for n in (37, 1, 62):
        out = np.full((len(seeds), n), np.nan) if into else None
        got = stream.uniforms(n, out=out)
        assert got.shape == (len(seeds), n)
        if into:
            assert got is out
        parts.append(got.copy())
    block = np.concatenate(parts, axis=1)
    for seed, lane in zip(seeds, block):
        assert lane.tobytes() == _oracle(seed, key, 100).tobytes()


def test_stream_of_one_seed_is_the_zero_dimensional_case():
    stream = Stream(2**33 + 5, (0, 2, 0))
    assert stream.shape == () and stream.seed == 2**33 + 5
    out = np.empty(40)
    assert stream.uniforms(40, out=out) is out
    rest = stream.uniforms(9)
    assert rest.shape == (9,)
    want = _oracle(2**33 + 5, (0, 2, 0), 49)
    assert np.concatenate([out, rest]).tobytes() == want.tobytes()


def test_stream_refuses_an_out_it_cannot_fill():
    stream = Stream([1, 2, 3], (0, 0, 0))
    for bad in (np.empty((3, 4)), np.empty((2, 5)), np.empty(5),
                np.empty((5, 3)).T):
        with pytest.raises(ValueError):
            stream.uniforms(5, out=bad)
    with pytest.raises(TypeError):
        Stream([[1, 2]], (0, 0, 0))
    # nothing was drawn by the refused calls
    want = _oracle(3, (0, 0, 0), 5)
    assert stream.uniforms(5)[2].tobytes() == want.tobytes()


# Four keys, one of them empty, over one seed and over three.
SEVERAL_KEYS = [(0, 1, 0), (1, 1, 2), (), (1, 2**32, 2)]


@pytest.mark.parametrize("seeds", [2**40 + 1, [3, 2**64, 17]],
                         ids=["one_seed", "3_seeds"])
@pytest.mark.parametrize("precomputed", [False, True],
                         ids=["seeded_here", "state_rows"])
@pytest.mark.parametrize("into", [False, True], ids=["new", "out"])
def test_stream_of_several_keys_is_each_keys_stream_side_by_side(
        seeds, precomputed, into):
    lanes = np.shape(seeds)
    state = None
    if precomputed:  # key-major rows, as the simulator passes them
        state = seed_states(np.ravel(seeds).tolist(), SEVERAL_KEYS).reshape(
            lanes + (len(SEVERAL_KEYS), 4))
        state = np.moveaxis(state, -2, 0)
    stream = Stream(seeds, SEVERAL_KEYS, state)
    assert stream.shape == (len(SEVERAL_KEYS),) + lanes
    assert stream.key == tuple(SEVERAL_KEYS)
    alone = [Stream(seeds, key) for key in SEVERAL_KEYS]
    process = ExponentialProcess(0.75)
    for n in (37, 1, 62):
        out = np.full(stream.shape + (n,), np.nan) if into else None
        got = stream.uniforms(n, out=out)
        assert got.shape == stream.shape + (n,)
        if into:
            assert got is out
        for row, one in zip(got, alone):
            assert row.tobytes() == one.uniforms(n).tobytes()
        block = process.sample(stream, 5)
        for row, one in zip(block, alone):
            assert row.tobytes() == process.sample(one, 5).tobytes()


def test_stream_of_several_keys_refuses_a_strided_out():
    stream = Stream([1, 2], [(0, 0, 0), (1, 0, 1)])
    for bad in (np.empty((2, 2, 6))[:, :, :5], np.empty((5, 2, 2)).T,
                np.empty((2, 5))):
        with pytest.raises(ValueError):
            stream.uniforms(5, out=bad)
    for seed, row in zip([1, 2], stream.uniforms(5)[1]):
        assert row.tobytes() == _oracle(seed, (1, 0, 1), 5).tobytes()


def test_no_seeds_or_no_keys_give_no_rows():
    for seeds, keys in (([], [(0,)]), ([1], []), ([], [])):
        states = seed_states(seeds, keys, 3)
        assert states.shape == (0, 3) and states.dtype == np.uint64


@pytest.mark.parametrize("seeds, keys", [
    ([-1], [(0,)]),
    ([1], [(0, -1)]),
    ([-1] + list(range(8)), [(0,)]),
    (list(range(8)), [(0,), (3, -2)]),
    ([True], [(0,)]),
    ([1], [(True, 0)]),
    ([False] + list(range(8)), [(0,)]),
    (list(range(8)), [(0,), (3, True)]),
], ids=["seed", "key_part", "batched_seed", "batched_key_part", "bool_seed",
        "bool_key_part", "batched_bool_seed", "batched_bool_key_part"])
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


@pytest.mark.parametrize("into", [False, True], ids=["new", "out"])
def test_exponential_block_equals_row_by_row_samples(into):
    # The in-place transform of a block is -mean * log1p(-u) bit for bit,
    # lane by lane, across uneven splits.
    seeds, key = LANE_SEEDS[1], (0, 4, 0)
    process = ExponentialProcess(2.5)
    block_stream = Stream(seeds, key)
    alone = [Stream(seed, key) for seed in seeds]
    blocks = []
    for n in (37, 1, 62):
        out = np.empty((len(seeds), n)) if into else None
        block = process.sample(block_stream, n, out=out)
        if into:
            assert block is out
        rows = np.stack([process.sample(stream, n) for stream in alone])
        assert block.tobytes() == rows.tobytes()
        blocks.append(block.copy())
    u = np.stack([_oracle(seed, key, 100) for seed in seeds])
    want = -2.5 * np.log1p(-u)
    assert np.concatenate(blocks, axis=1).tobytes() == want.tobytes()


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


@pytest.mark.parametrize("into", [False, True], ids=["new", "out"])
def test_constant_process_draws_nothing_from_a_block(into):
    seeds, key = [5, 2**40, 6], (1, 0, 1)
    stream = Stream(seeds, key)
    stream.uniforms(3)
    out = np.full((3, 7), np.nan) if into else None
    x = ConstantProcess(0.25).sample(stream, 7, out=out)
    assert x.shape == (3, 7) and np.all(x == 0.25)
    if into:
        assert x is out
    # each lane's next draws are the ones after its first three
    for seed, lane in zip(seeds, stream.uniforms(4)):
        assert lane.tobytes() == _oracle(seed, key, 7)[3:].tobytes()


def test_constant_processes_that_compare_equal_draw_alike():
    # Equal processes may draw one block between them, so -0.0 is +0.0.
    assert ConstantProcess(-0.0) == ConstantProcess(0.0)
    draws = ConstantProcess(-0.0).sample(Stream(1, (0, 0, 0)), 3)
    assert draws.tobytes() == np.zeros(3).tobytes()


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


def scipy_quad(f, pdf, lower=0.0):
    """What `expectation_quadrature` must return: public scipy's `quad`
    with its tolerances and subdivision limit."""
    from scipy import integrate

    return integrate.quad(lambda g: f(g) * pdf(g), lower, math.inf,
                          epsabs=1e-12, epsrel=1e-12, limit=200,
                          full_output=1)[0]


def _gamma_pdf(branches):
    def pdf(s):
        return s ** (branches - 1) * math.exp(-s) / math.factorial(branches - 1)

    return pdf


# The integrands the other tests integrate.
QUADRATURE_CASES = {
    "one": (lambda g: 1.0, exponential_pdf(1.0), 0.0),
    "one-max25": (lambda g: 1.0, max_exponential_pdf(1.0, 25), 0.0),
    "mean": (lambda g: g, exponential_pdf(1.0), 0.0),
    "mean-of-2": (lambda g: g, exponential_pdf(2.0), 0.0),
    "second-moment": (lambda g: g * g, exponential_pdf(1.0), 0.0),
    "exp": (lambda g: math.exp(-g), exponential_pdf(1.0), 0.0),
    "tail": (lambda g: 1.0, exponential_pdf(1.0), 1.0),
    "max4-mean": (lambda g: g, max_exponential_pdf(1.0, 4), 0.0),
    "rate-above-threshold": (lambda g: math.log2(g / 0.7),
                             exponential_pdf(1.0), 0.7),
    "bpsk-3-branches": (lambda s: float(qfunc(math.sqrt(4.0 * s))),
                        _gamma_pdf(3), 0.0),
}


@pytest.mark.parametrize("case", sorted(QUADRATURE_CASES))
def test_quadrature_is_scipy_quad_bit_for_bit(case):
    f, pdf, lower = QUADRATURE_CASES[case]
    got = expectation_quadrature(f, pdf, lower, abs_tol=1e-9, rel_tol=1e-9)
    assert got.hex() == scipy_quad(f, pdf, lower).hex()


@pytest.mark.parametrize("name", ["fig2", "fig3", "fig4"])
def test_shipped_threshold_quadratures_are_scipy_quad_bit_for_bit(
        name, monkeypatch):
    # Every `closed_form` value of the shipped config, at every power it
    # ships.  The thresholds' budgets take no quadrature: fig2's and
    # fig3's are closed forms, fig4's is summed on fixed nodes.
    real = expectation_quadrature
    checked = []

    def checking(f, pdf, lower=0.0, **tolerances):
        got = real(f, pdf, lower, **tolerances)
        checked.append((lower, got.hex(), scipy_quad(f, pdf, lower).hex()))
        return got

    monkeypatch.setattr(ehnet.policies, "expectation_quadrature", checking)
    monkeypatch.setattr(ehnet.experiments, "expectation_quadrature", checking)
    ehnet.experiments._waterfill_threshold.cache_clear()
    ehnet.experiments._broadcast_threshold.cache_clear()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = ehnet.experiments.load_spec(
        os.path.join(root, "configs", f"{name}.json"))
    for point in ehnet.experiments.grid_points(spec):
        ehnet.experiments.closed_form_baseline(spec, point)
    assert checked
    assert [c for c in checked if c[1] != c[2]] == []


@pytest.mark.parametrize("name", ["scipy.integrate._no_such_module",
                                  # a pure-Python module is not compiled
                                  "scipy.integrate._quadpack_py",
                                  # no such package, or no package at all
                                  "no_such_package._ufuncs",
                                  "math._ufuncs"])
def test_load_compiled_refuses_what_is_not_a_compiled_module(name):
    before = sys.modules.pop(name, None)
    try:
        with pytest.raises(ImportError):
            load_compiled(name)
        assert name not in sys.modules
    finally:
        if before is not None:
            sys.modules[name] = before


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
