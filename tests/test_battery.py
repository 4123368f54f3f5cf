"""Unit tests for the battery queue: single steps and trajectories."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ehnet.battery import (
    VECTOR_LANES,
    WALK_FIRST,
    WALK_MAX,
    BatteryState,
    deposit,
    extract,
    extract_many,
    trajectory,
)


# ---------------------------------------------------------------------------
# single-step semantics


def test_extract_grants_min_of_level_and_request():
    s = BatteryState(level=3.0)
    got, s2 = extract(s, 5.0)
    assert got == 3.0
    assert s2.level == 0.0

    got, s2 = extract(BatteryState(level=3.0), 2.0)
    assert got == 2.0
    assert s2.level == 1.0


def test_extract_exact_level_leaves_zero():
    got, s2 = extract(BatteryState(level=2.5), 2.5)
    assert got == 2.5
    assert s2.level == 0.0


def test_deposit_clips_at_capacity():
    s = BatteryState(level=4.0, capacity=5.0)
    s2 = deposit(s, 3.0)
    assert s2.level == 5.0
    # overflow is discarded, not banked
    s3 = deposit(s2, 100.0)
    assert s3.level == 5.0


def test_deposit_numpy_level_near_max_clips_silently():
    top = np.finfo(float).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = deposit(BatteryState(top, top), top)
    assert s.level == s.capacity
    assert type(s.level) is float


def test_deposit_unbounded_capacity_never_clips():
    s = deposit(BatteryState(level=1e300), 1e300)
    assert s.level == 2e300


def test_extract_many_is_sequential_first_come_first_served():
    s = BatteryState(level=5.0)
    grants, s2 = extract_many(s, [3.0, 3.0, 3.0])
    assert grants == [3.0, 2.0, 0.0]
    assert s2.level == 0.0


def test_extract_many_order_matters():
    grants, _ = extract_many(BatteryState(level=4.0), [1.0, 5.0])
    assert grants == [1.0, 3.0]
    grants, _ = extract_many(BatteryState(level=4.0), [5.0, 1.0])
    assert grants == [4.0, 0.0]


def test_negative_requests_rejected():
    with pytest.raises(ValueError):
        extract(BatteryState(level=1.0), -0.5)
    with pytest.raises(ValueError):
        deposit(BatteryState(level=1.0), -0.5)


def test_state_validation():
    with pytest.raises(ValueError):
        BatteryState(level=-1.0)
    with pytest.raises(ValueError):
        BatteryState(level=2.0, capacity=1.0)
    with pytest.raises(ValueError):
        BatteryState(level=0.0, capacity=-3.0)


# ---------------------------------------------------------------------------
# trajectory: worked examples checked by hand


def test_trajectory_worked_example_unbounded():
    # slot order is extract first, then deposit the slot's arrival
    desired = np.array([1.0, 1.0, 1.0, 1.0])
    harvested = np.array([0.5, 2.0, 0.0, 1.0])
    actual, levels = trajectory(desired, harvested)
    # slot 1: empty -> grant 0.0, then +0.5
    # slot 2: grant 0.5, level 0, then +2.0
    # slot 3: grant 1.0, level 1.0, then +0.0
    # slot 4: grant 1.0, level 0.0, then +1.0
    assert actual.tolist() == [0.0, 0.5, 1.0, 1.0]
    assert levels.tolist() == [0.5, 2.0, 1.0, 1.0]


def test_trajectory_worked_example_capacity_clip():
    desired = np.zeros(3)
    harvested = np.array([4.0, 4.0, 4.0])
    actual, levels = trajectory(desired, harvested, capacity=5.0)
    assert actual.tolist() == [0.0, 0.0, 0.0]
    assert levels.tolist() == [4.0, 5.0, 5.0]


def test_trajectory_initial_level_is_spent_first():
    desired = np.array([2.0, 2.0])
    harvested = np.zeros(2)
    actual, levels = trajectory(desired, harvested, initial=3.0)
    assert actual.tolist() == [2.0, 1.0]
    assert levels.tolist() == [1.0, 0.0]


def test_trajectory_multilink_shares_one_buffer():
    desired = np.array([[2.0, 2.0], [2.0, 2.0]])
    harvested = np.array([3.0, 0.0])
    actual, levels = trajectory(desired, harvested, initial=3.0)
    # slot 1: grants 2.0 then 1.0, deposit 3.0 -> level 3.0
    # slot 2: grants 2.0 then 1.0, deposit 0.0 -> level 0.0
    assert actual.tolist() == [[2.0, 1.0], [2.0, 1.0]]
    assert levels.tolist() == [3.0, 0.0]


def test_trajectory_empty_run():
    actual, levels = trajectory(np.zeros(0), np.zeros(0))
    assert actual.shape == (0,)
    assert levels.shape == (0,)


def test_trajectory_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        trajectory(np.zeros(3), np.zeros(4))


# ---------------------------------------------------------------------------
# trajectory: randomized properties

finite_power = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@st.composite
def random_run(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    desired = np.array(draw(st.lists(finite_power, min_size=n, max_size=n)))
    harvested = np.array(draw(st.lists(finite_power, min_size=n, max_size=n)))
    capacity = draw(st.one_of(st.just(math.inf),
                              st.floats(min_value=0.5, max_value=1e7)))
    initial = draw(st.floats(min_value=0.0, max_value=0.5))
    return desired, harvested, capacity, initial


@given(random_run())
@settings(max_examples=200, deadline=None)
def test_grants_never_exceed_requests(run):
    desired, harvested, capacity, initial = run
    actual, _ = trajectory(desired, harvested, capacity=capacity, initial=initial)
    assert np.all(actual <= desired + 1e-12)
    assert np.all(actual >= 0.0)


@given(random_run())
@settings(max_examples=200, deadline=None)
def test_levels_stay_inside_battery(run):
    desired, harvested, capacity, initial = run
    _, levels = trajectory(desired, harvested, capacity=capacity, initial=initial)
    assert np.all(levels >= -1e-12)
    assert np.all(levels <= capacity * (1 + 1e-12) if math.isfinite(capacity)
                  else np.isfinite(levels))


@given(random_run())
@settings(max_examples=200, deadline=None)
def test_energy_conservation_unbounded(run):
    # with no capacity clip, nothing is ever lost:
    # initial + sum(in) = sum(out) + final level
    desired, harvested, _, initial = run
    actual, levels = trajectory(desired, harvested, initial=initial)
    lhs = initial + math.fsum(harvested.tolist())
    rhs = math.fsum(actual.tolist()) + float(levels[-1])
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)


@given(random_run())
@settings(max_examples=100, deadline=None)
def test_trajectory_matches_stepwise_primitives(run):
    desired, harvested, capacity, initial = run
    actual, levels = trajectory(desired, harvested, capacity=capacity, initial=initial)
    state = BatteryState(level=initial, capacity=capacity)
    for i in range(len(desired)):
        got, state = extract(state, float(desired[i]))
        state = deposit(state, float(harvested[i]))
        assert got == actual[i]
        assert state.level == levels[i]


# ---------------------------------------------------------------------------
# trajectory: long single-link runs (the walk over running sums)

@st.composite
def random_long_run(draw):
    """Runs of 1 up to more than twice WALK_MAX slots, so the walk's
    windows restart and grow to WALK_MAX, a share of them no longer than
    two first windows (like the 100-slot lanes of the fig5 sweeps), drawn
    from a seeded generator: clip-dense (a battery a few harvests deep
    that starts full), clip-free (no capacity, harvest above the requests)
    or between; a share of the requests and harvests are exact +0.0 or
    -0.0."""
    longest = 2 * WALK_MAX + WALK_FIRST
    n = draw(st.one_of(st.integers(min_value=1, max_value=2 * WALK_FIRST),
                       st.integers(min_value=1, max_value=longest),
                       st.just(longest)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.floats(min_value=1e-3, max_value=1e3))
    free = draw(st.booleans())
    surplus = 3.0 if free else draw(st.floats(0.5, 2.0))
    desired = rng.exponential(scale, n)
    harvested = rng.exponential(scale * surplus, n)
    zero_share = draw(st.sampled_from([0.0, 0.05, 0.5]))
    for arr in (desired, harvested):
        hit = rng.random(n) < zero_share
        arr[hit] = rng.choice([0.0, -0.0], size=int(hit.sum()))
    if free:
        capacity = math.inf
        initial = draw(st.floats(min_value=0.0, max_value=scale))
    else:
        capacity = scale * draw(st.one_of(st.floats(0.5, 4.0), st.just(200.0)))
        initial = capacity
    return desired, harvested, capacity, initial


def stepwise(desired, harvested, capacity, initial):
    """Grants and post-deposit levels of the extract/deposit loop."""
    state = BatteryState(level=initial, capacity=capacity)
    got = []
    after = []
    for d, h in zip(desired.tolist(), harvested.tolist()):
        a, state = extract(state, d)
        state = deposit(state, h)
        got.append(a)
        after.append(state.level)
    return np.array(got), np.array(after)


@given(random_long_run())
@settings(max_examples=80, deadline=None)
def test_long_trajectory_matches_stepwise_primitives(run):
    desired, harvested, capacity, initial = run
    actual, levels = trajectory(desired, harvested, capacity=capacity,
                                initial=initial)
    got, after = stepwise(desired, harvested, capacity, initial)
    # bit for bit, so a sign of zero or a last-digit change shows
    assert got.tobytes() == actual.tobytes()
    assert after.tobytes() == levels.tobytes()


def test_overflowing_levels_match_stepwise_primitives_silently():
    # Near the float maximum a level plus a harvest overflows to inf
    # before the clip to capacity, which the scalar loop's Python floats
    # do without a word; so must the walk (one lane) and the pass across
    # lanes, whose sums overflow too.
    top = float(np.finfo(float).max)
    rng = np.random.default_rng(3066)
    n = 3 * WALK_FIRST
    for shape in ((n,), (n, VECTOR_LANES)):
        desired = rng.uniform(0.0, top / 8, shape).reshape(n, -1)
        harvested = rng.uniform(0.0, top, shape).reshape(n, -1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            actual, levels = trajectory(desired.reshape(shape),
                                        harvested.reshape(shape),
                                        capacity=top, initial=top)
        actual, levels = actual.reshape(n, -1), levels.reshape(n, -1)
        for j in range(desired.shape[1]):
            got, after = stepwise(desired[:, j], harvested[:, j], top, top)
            assert got.tobytes() == actual[:, j].tobytes()
            assert after.tobytes() == levels[:, j].tobytes()


@given(random_run())
@settings(max_examples=100, deadline=None)
def test_bounded_battery_never_outperforms_unbounded(run):
    desired, harvested, capacity, initial = run
    bounded, _ = trajectory(desired, harvested, capacity=capacity, initial=initial)
    unbounded, _ = trajectory(desired, harvested, initial=initial)
    assert math.fsum(bounded.tolist()) <= math.fsum(unbounded.tolist()) + 1e-9


# ---------------------------------------------------------------------------
# trajectory: multi-link oracle

# About half the requests are exact zeros, which the multi-link loop skips.
sparse_power = st.one_of(st.just(0.0), finite_power)


@st.composite
def random_multilink_run(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    links = draw(st.integers(min_value=1, max_value=5))
    flat = draw(st.lists(sparse_power, min_size=n * links, max_size=n * links))
    harvested = np.array(draw(st.lists(finite_power, min_size=n, max_size=n)))
    capacity = draw(st.one_of(st.just(math.inf),
                              st.floats(min_value=0.5, max_value=1e7)))
    initial = draw(st.floats(min_value=0.0, max_value=0.5))
    return np.array(flat).reshape(n, links), harvested, capacity, initial


@given(random_multilink_run())
@settings(max_examples=200, deadline=None)
def test_multilink_trajectory_matches_stepwise_primitives(run):
    desired, harvested, capacity, initial = run
    actual, levels = trajectory(desired, harvested, capacity=capacity,
                                initial=initial)
    assert actual.shape == desired.shape
    state = BatteryState(level=initial, capacity=capacity)
    for i in range(len(desired)):
        got, state = extract_many(state, desired[i].tolist())
        state = deposit(state, float(harvested[i]))
        # bit for bit, so a sign of zero or a last-digit change shows
        assert np.array(got).tobytes() == actual[i].tobytes()
        assert np.float64(state.level).tobytes() == levels[i].tobytes()


# ---------------------------------------------------------------------------
# trajectory: lanes (independent single-link buffers side by side)

# Both signs of zero, so a tie between a zero request and an empty buffer
# must keep the scalar loop's sign of the grant.
zero_or_power = st.one_of(st.sampled_from([0.0, -0.0]), finite_power)


@st.composite
def random_lanes(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    # lane counts on both sides of the switch to the vectorised loop
    k = draw(st.one_of(st.integers(min_value=1, max_value=VECTOR_LANES - 1),
                       st.integers(min_value=VECTOR_LANES,
                                   max_value=2 * VECTOR_LANES + 2)))
    desired = draw(hnp.arrays(np.float64, (n, k), elements=zero_or_power))
    harvested = draw(hnp.arrays(np.float64, (n, k), elements=zero_or_power))
    capacity = draw(st.one_of(st.just(math.inf),
                              st.floats(min_value=0.5, max_value=1e7)))
    initial = draw(st.floats(min_value=0.0, max_value=0.5))
    return desired, harvested, capacity, initial


@given(random_lanes())
@settings(max_examples=200, deadline=None)
def test_lanes_match_one_call_per_lane(run):
    desired, harvested, capacity, initial = run
    actual, levels = trajectory(desired, harvested, capacity=capacity,
                                initial=initial)
    assert actual.shape == levels.shape == desired.shape
    for j in range(desired.shape[1]):
        got, lev = trajectory(desired[:, j], harvested[:, j],
                              capacity=capacity, initial=initial)
        assert got.tobytes() == actual[:, j].copy().tobytes()
        assert lev.tobytes() == levels[:, j].copy().tobytes()


def test_lanes_need_matching_shapes():
    with pytest.raises(ValueError):
        trajectory(np.zeros(3), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        trajectory(np.zeros((3, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        trajectory(np.zeros((3, 2)), np.full((3, 2), -1.0))
