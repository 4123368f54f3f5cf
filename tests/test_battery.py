"""Unit tests for the battery queue: single steps and trajectories."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ehnet import battery
from ehnet.battery import VECTOR_LANES, WALK_FIRST, WALK_MAX, trajectory
from oracles import BatteryState, deposit, extract, extract_many


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


@pytest.mark.parametrize("n", [3, 0])
def test_trajectory_without_links_banks_the_harvest(n):
    harvested = np.ones(n)
    actual, levels = trajectory(np.zeros((n, 0)), harvested, capacity=5.0,
                                initial=1.0)
    assert actual.shape == (n, 0)
    assert levels.tolist() == [2.0, 3.0, 4.0][:n]


def test_trajectory_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        trajectory(np.zeros(3), np.zeros(4))


def state_error(level, capacity):
    with pytest.raises(ValueError) as info:
        BatteryState(level, capacity)
    return str(info.value)


@pytest.mark.parametrize("level, capacity", [
    (-1.0, 5.0), (math.nan, 5.0), (math.inf, 5.0), (6.0, 5.0),
    (-1.0, math.inf), (math.nan, math.inf), (1.0, 0.0), (1.0, math.nan),
], ids=["negative", "nan", "inf", "above", "negative_unbounded",
        "nan_unbounded", "zero_capacity", "nan_capacity"])
def test_trajectory_checks_each_initial_level_like_a_state(level, capacity):
    # A scalar and any one lane of several give BatteryState's one line.
    message = state_error(level, capacity)
    assert "\n" not in message
    desired = np.ones((4, 3))
    with pytest.raises(ValueError) as info:
        trajectory(desired[:, 0], desired[:, 0], capacity=capacity,
                   initial=level)
    assert str(info.value) == message
    for lane in range(3):
        initial = np.zeros(3)
        initial[lane] = level
        with pytest.raises(ValueError) as info:
            trajectory(desired, desired, capacity=capacity, initial=initial)
        assert str(info.value) == message


def test_trajectory_initial_levels_need_one_per_lane():
    desired = np.ones((4, 3))
    for initial in (np.zeros(2), np.zeros((3, 1))):
        with pytest.raises(ValueError, match="initial shape"):
            trajectory(desired, desired, initial=initial)
    # One buffer, single- or multi-link, takes a scalar only.
    with pytest.raises(ValueError, match="initial shape"):
        trajectory(desired[:, 0], desired[:, 0], initial=np.zeros(1))
    with pytest.raises(ValueError, match="initial shape"):
        trajectory(desired, desired[:, 0], initial=np.zeros(3))


def test_trajectory_lanes_start_from_their_own_levels():
    desired = np.full((2, 3), 1.0)
    actual, levels = trajectory(desired, np.zeros((2, 3)),
                                initial=np.array([0.0, 1.5, 4.0]))
    assert actual.tolist() == [[0.0, 1.0, 1.0], [0.0, 0.5, 1.0]]
    assert levels.tolist() == [[0.0, 0.5, 3.0], [0.0, 0.0, 2.0]]


def test_unbounded_buffer_resumes_from_an_overflowed_level():
    # An unbounded level that overflows stays inf and grants every request;
    # it resumes from there, although BatteryState takes no inf level.
    top = float(np.finfo(float).max)
    desired = np.full(4, 1.0)
    harvested = np.array([0.0, top, 0.0, 0.0])
    whole, levels = trajectory(desired, harvested, initial=top)
    assert levels.tolist() == [top, math.inf, math.inf, math.inf]
    got, after = trajectory(desired[2:], harvested[2:], initial=levels[1])
    assert got.tobytes() == whole[2:].tobytes()
    assert after.tobytes() == levels[2:].tobytes()


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
    with mock.patch.object(battery, "_single_link",
                           wraps=battery._single_link) as walk:
        actual, levels = trajectory(desired, harvested, capacity=capacity,
                                    initial=initial)
    # One request per slot: the walk takes the harvests as given.
    assert walk.call_args.args[1] is harvested
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


@pytest.mark.parametrize("width", [2, 5, 8, 9, 16])
def test_strided_single_link_columns_match_stepwise_primitives(width):
    # A lane among `width` links reads a column with a stride of 8 * width
    # bytes; numpy 2.4's `negative` misreads a stride of 64 bytes into a
    # strided output, which once broke the walk on 8-link networks.
    rng = np.random.default_rng(width)
    desired = rng.exponential(1.0, (300, width))
    desired[rng.random(desired.shape) < 0.2] = 0.0
    harvested = rng.exponential(1.0, (300, width))
    for j in range(width):
        actual, levels = trajectory(desired[:, j], harvested[:, j],
                                    capacity=4.0, initial=2.0)
        got, after = stepwise(desired[:, j], harvested[:, j], 4.0, 2.0)
        assert got.tobytes() == actual.tobytes()
        assert after.tobytes() == levels.tobytes()


def strided_lanes(rng, n, k, stride, transposed):
    """An (n, k) view whose lanes lie `stride` bytes apart: columns of a
    wider (n, k * stride / 8) block, or, `transposed`, the rows of a
    (k, stride / 8) block, as `simulator._battery` passes them."""
    step = stride // 8
    if transposed:
        block = rng.exponential(1.0, (k, step))
        view = block[:, :n].T
    else:
        block = rng.exponential(1.0, (n, k * step))
        view = block[:, ::step]
    assert view.shape == (n, k) and view.strides[1] == stride
    return view


@pytest.mark.parametrize("k", [3, VECTOR_LANES + 2])
@pytest.mark.parametrize("stride, transposed", [
    (8, False), (24, False), (64, False), (800, False), (800, True)],
    ids=["8", "24", "64", "800", "800-transposed"])
def test_strided_lanes_match_stepwise_primitives(stride, transposed, k):
    # The lanes read their inputs where they lie; numpy 2.4's `negative`
    # misreads a stride of 64 bytes into a strided output.
    rng = np.random.default_rng(stride + k)
    desired = strided_lanes(rng, 100, k, stride, transposed)
    desired[rng.random(desired.shape) < 0.2] = 0.0
    harvested = strided_lanes(rng, 100, k, stride, transposed)
    initial = rng.uniform(0.0, 4.0, k)
    actual, levels = trajectory(desired, harvested, capacity=4.0,
                                initial=initial)
    for j in range(k):
        got, after = stepwise(desired[:, j], harvested[:, j], 4.0,
                              float(initial[j]))
        assert got.tobytes() == actual[:, j].copy().tobytes()
        assert after.tobytes() == levels[:, j].copy().tobytes()


@given(random_run())
@settings(max_examples=100, deadline=None)
def test_bounded_battery_never_outperforms_unbounded(run):
    desired, harvested, capacity, initial = run
    bounded, _ = trajectory(desired, harvested, capacity=capacity, initial=initial)
    unbounded, _ = trajectory(desired, harvested, initial=initial)
    assert math.fsum(bounded.tolist()) <= math.fsum(unbounded.tolist()) + 1e-9


# ---------------------------------------------------------------------------
# trajectory: multi-link oracle

# About half the requests are exact zeros of either sign, which the
# multi-link loop skips.
sparse_power = st.one_of(st.sampled_from([0.0, -0.0]), finite_power)


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


def test_multilink_trajectory_grants_a_negative_zero_request_as_itself():
    desired = np.array([[-0.0, 1.0], [0.5, -0.0]])
    actual, _ = trajectory(desired, [0.2, 0.3], capacity=5.0, initial=2.0)
    state = BatteryState(level=2.0, capacity=5.0)
    for i, h in enumerate([0.2, 0.3]):
        got, state = extract_many(state, desired[i].tolist())
        state = deposit(state, h)
        assert np.array(got).tobytes() == actual[i].tobytes()
    assert np.signbit(actual).tolist() == [[True, False], [False, True]]


def stepwise_many(desired, harvested, capacity, initial):
    """Grants and post-deposit levels of the extract_many/deposit loop."""
    state = BatteryState(level=initial, capacity=capacity)
    got = []
    after = []
    for want, h in zip(desired.tolist(), harvested.tolist()):
        a, state = extract_many(state, want)
        state = deposit(state, h)
        got.append(a)
        after.append(state.level)
    return np.array(got).reshape(desired.shape), np.array(after)


@st.composite
def random_broadcast_run(draw):
    """A broadcast transmitter's buffer: at most one nonzero request per
    slot, on a random link, exact zeros of either sign elsewhere.  Runs of
    up to 600 slots, past the walk's first window and its doubled second,
    in buffers a few requests deep that start empty or full, so the walk
    clips and steps, or in unbounded ones."""
    n = draw(st.integers(min_value=1, max_value=4 * WALK_FIRST + 88))
    links = draw(st.integers(min_value=2, max_value=25))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    desired = rng.choice([0.0, -0.0], size=(n, links))
    asking = rng.random(n) < draw(st.sampled_from([0.1, 0.5, 1.0]))
    desired[asking, rng.integers(0, links, n)[asking]] = rng.exponential(
        1.0, int(asking.sum()))
    harvested = rng.exponential(draw(st.floats(0.2, 2.0)), n)
    capacity = draw(st.one_of(st.just(math.inf), st.floats(0.5, 8.0)))
    initial = draw(st.sampled_from(
        [0.0, capacity if math.isfinite(capacity) else 3.0]))
    return desired, harvested, capacity, initial


@given(random_broadcast_run())
@settings(max_examples=150, deadline=None)
def test_broadcast_trajectory_walks_and_matches_stepwise_primitives(run):
    desired, harvested, capacity, initial = run
    with mock.patch.object(battery, "_single_link",
                           wraps=battery._single_link) as walk:
        actual, levels = trajectory(desired, harvested, capacity=capacity,
                                    initial=initial)
    # The walk runs over the slots themselves, with the harvests as given.
    assert walk.call_count == 1
    want, harv = walk.call_args.args[:2]
    assert len(want) == len(desired) and harv is harvested
    got, after = stepwise_many(desired, harvested, capacity, initial)
    # bit for bit, so a sign of zero or a last-digit change shows
    assert got.tobytes() == actual.tobytes()
    assert after.tobytes() == levels.tobytes()
    # Split after a third of the slots and resumed from the level there.
    cut = max(1, len(desired) // 3)
    first, mid = trajectory(desired[:cut], harvested[:cut],
                            capacity=capacity, initial=initial)
    rest, end = trajectory(desired[cut:], harvested[cut:], capacity=capacity,
                           initial=mid[-1])
    assert np.concatenate([first, rest]).tobytes() == actual.tobytes()
    assert np.concatenate([mid, end]).tobytes() == levels.tobytes()


@st.composite
def random_long_multilink_run(draw):
    """One buffer serving 2 to 6 links for up to 600 slots, past the
    walk's first window and its doubled second: each request is nonzero
    with a drawn share, so a slot asks on 0 to all of its links, and the
    rest are exact zeros of either sign, as are a few harvests.  Buffers
    a few requests deep that start empty or full clip and step; unbounded
    ones run clip-free stretches."""
    n = draw(st.integers(min_value=1, max_value=4 * WALK_FIRST + 88))
    links = draw(st.integers(min_value=2, max_value=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    share = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    desired = rng.choice([0.0, -0.0], size=(n, links))
    asking = rng.random((n, links)) < share
    desired[asking] = rng.exponential(1.0, int(asking.sum()))
    mean = draw(st.floats(0.2, 2.0)) * max(1.0, share * links)
    harvested = rng.exponential(mean, n)
    spent = rng.random(n) < 0.05
    harvested[spent] = rng.choice([0.0, -0.0], size=int(spent.sum()))
    capacity = draw(st.one_of(st.just(math.inf), st.floats(0.5, 8.0)))
    initial = draw(st.sampled_from(
        [0.0, capacity if math.isfinite(capacity) else 3.0]))
    return desired, harvested, capacity, initial


@given(random_long_multilink_run())
@settings(max_examples=150, deadline=None)
def test_long_multilink_trajectory_walks_and_matches_stepwise_primitives(run):
    desired, harvested, capacity, initial = run
    with mock.patch.object(battery, "_single_link",
                           wraps=battery._single_link) as walk:
        actual, levels = trajectory(desired, harvested, capacity=capacity,
                                    initial=initial)
    # One sub-slot per nonzero request, or one for a slot without any;
    # only a slot that asks twice or more needs more than the slots.
    assert walk.call_count == 1
    want, harv = walk.call_args.args[:2]
    asks = np.count_nonzero(desired, axis=1)
    assert len(want) == np.maximum(asks, 1).sum()
    assert (harv is harvested) == (asks.max() <= 1)
    got, after = stepwise_many(desired, harvested, capacity, initial)
    # bit for bit, so a sign of zero or a last-digit change shows
    assert got.tobytes() == actual.tobytes()
    assert after.tobytes() == levels.tobytes()


def test_broadcast_walk_clips_and_steps():
    # A buffer two requests deep, full at the start: the walk clips at
    # both ends and steps WALK_STEPS slots from each clip, many times.
    rng = np.random.default_rng(17)
    n, links = 600, 25
    desired = np.zeros((n, links))
    desired[np.arange(n), rng.integers(0, links, n)] = rng.exponential(1.0, n)
    harvested = rng.exponential(1.0, n)
    with mock.patch.object(battery, "_steps", wraps=battery._steps) as steps:
        actual, levels = trajectory(desired, harvested, capacity=2.0,
                                    initial=2.0)
    assert steps.call_count > 2
    assert (levels == 2.0).any() and (actual < desired).any()
    got, after = stepwise_many(desired, harvested, 2.0, 2.0)
    assert got.tobytes() == actual.tobytes()
    assert after.tobytes() == levels.tobytes()


def test_one_request_per_slot_walks_the_slots():
    # 25 links, each slot asking on at most one, a share of the slots on
    # none, and a share of the zeros -0.0: one walk over the slots, each
    # slot's request where it has one and 0.0 where not.
    rng = np.random.default_rng(31)
    n, links = 700, 25
    desired = rng.choice([0.0, -0.0], size=(n, links))
    asking = rng.random(n) < 0.7
    cols = rng.integers(0, links, n)
    desired[asking, cols[asking]] = rng.exponential(1.0, int(asking.sum()))
    harvested = rng.exponential(0.8, n)
    with mock.patch.object(battery, "_single_link",
                           wraps=battery._single_link) as walk:
        actual, levels = trajectory(desired, harvested, capacity=3.0,
                                    initial=0.0)
    want, harv = walk.call_args.args[:2]
    assert want.tolist() == np.where(asking, desired[np.arange(n), cols],
                                     0.0).tolist()
    assert harv is harvested
    assert (actual < desired).any() and (levels == 3.0).any()
    got, after = stepwise_many(desired, harvested, 3.0, 0.0)
    assert got.tobytes() == actual.tobytes()
    assert after.tobytes() == levels.tobytes()


def test_two_requests_in_one_slot_walk_as_sub_slots():
    # Slot 1 asks for nothing and slot 2 on two links: one walk over five
    # requests and one empty sub-slot, six in all.
    desired = np.zeros((5, 3))
    desired[[0, 2, 2, 3, 4], [1, 0, 2, 2, 2]] = [0.5, 0.75, 0.5, 0.125, 0.5]
    harvested = np.full(5, 0.25)
    with mock.patch.object(battery, "_single_link",
                           wraps=battery._single_link) as walk:
        actual, levels = trajectory(desired, harvested, capacity=2.0,
                                    initial=1.0)
    assert walk.call_count == 1
    want, harv = walk.call_args.args[:2]
    assert want.tolist() == [0.5, 0.0, 0.75, 0.5, 0.125, 0.5]
    assert harv.tolist() == [0.25, 0.25, 0.0, 0.25, 0.25, 0.25]
    # slot 2 grants 0.75 and what is left of the level, 0.25
    assert actual[2].tolist() == [0.75, 0.0, 0.25]
    assert levels.tolist() == [0.75, 1.0, 0.25, 0.375, 0.25]
    got, after = stepwise_many(desired, harvested, 2.0, 1.0)
    assert got.tobytes() == actual.tobytes()
    assert after.tobytes() == levels.tobytes()


# Requests and harvests from a -0.0 start: no slot asks twice (and the
# first case ends at level 0), two requests in slot 2, and one link.
NEGATIVE_ZERO_STARTS = [
    ([[-0.0, 0.0]], [-0.0]),
    ([[-0.0, 0.0], [0.0, -0.0]], [-0.0, 1.0]),
    ([[0.0, -0.0], [-0.0, 0.0], [0.25, 0.5]], [0.0, 1.0, -0.0]),
    ([[-0.0], [0.0], [-0.0]], [-0.0, -0.0, 0.0]),
]


@pytest.mark.parametrize("desired, harvested", NEGATIVE_ZERO_STARTS,
                         ids=["walk_to_zero", "walk", "two_requests", "one_link"])
def test_negative_zero_initial_level_matches_stepwise_primitives(desired,
                                                                 harvested):
    # `BatteryState` stores a -0.0 level as +0.0, and `trajectory` starts
    # from it there too, so the two agree bit for bit.
    assert not math.copysign(1.0, BatteryState(-0.0).level) < 0.0
    desired, harvested = np.array(desired), np.array(harvested)
    actual, levels = trajectory(desired, harvested, initial=-0.0)
    got, after = stepwise_many(desired, harvested, math.inf, -0.0)
    assert got.tobytes() == actual.tobytes()
    assert after.tobytes() == levels.tobytes()
    if desired.shape[1] == 1:
        actual, levels = trajectory(desired[:, 0], harvested, initial=-0.0)
        assert got[:, 0].tobytes() == actual.tobytes()
        assert after.tobytes() == levels.tobytes()


@pytest.mark.parametrize("k", [3, VECTOR_LANES])
def test_negative_zero_initial_lanes_match_stepwise_primitives(k):
    # Zeros of both signs everywhere, so each lane's level stays at a zero
    # whose sign shows; lanes start at -0.0 or +0.0.
    rng = np.random.default_rng(k)
    desired = rng.choice([0.0, -0.0], size=(6, k))
    harvested = rng.choice([0.0, -0.0], size=(6, k))
    initial = rng.choice([0.0, -0.0], size=k)
    actual, levels = trajectory(desired, harvested, initial=initial)
    for j in range(k):
        got, after = stepwise_many(desired[:, j:j + 1], harvested[:, j],
                                   math.inf, initial[j])
        assert got[:, 0].tobytes() == actual[:, j].copy().tobytes()
        assert after.tobytes() == levels[:, j].copy().tobytes()


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
    # one level shared by all lanes, or one level per lane
    level = st.floats(min_value=0.0, max_value=0.5)
    initial = draw(st.one_of(
        level, hnp.arrays(np.float64, (k,), elements=level)))
    return desired, harvested, capacity, initial


@given(random_lanes())
@settings(max_examples=200, deadline=None)
def test_lanes_match_one_call_per_lane(run):
    desired, harvested, capacity, initial = run
    actual, levels = trajectory(desired, harvested, capacity=capacity,
                                initial=initial)
    assert actual.shape == levels.shape == desired.shape
    starts = np.broadcast_to(initial, desired.shape[1:])
    for j in range(desired.shape[1]):
        got, lev = trajectory(desired[:, j].copy(), harvested[:, j].copy(),
                              capacity=capacity, initial=starts[j])
        assert got.tobytes() == actual[:, j].copy().tobytes()
        assert lev.tobytes() == levels[:, j].copy().tobytes()


@given(random_lanes(), st.integers(min_value=0, max_value=30))
@settings(max_examples=200, deadline=None)
def test_lanes_split_at_any_slot_resume_from_their_levels(run, split):
    # The second part starts from the levels the first part returned, or
    # from the initial levels when the first part is empty.
    desired, harvested, capacity, initial = run
    split = min(split, len(desired))
    actual, levels = trajectory(desired, harvested, capacity=capacity,
                                initial=initial)
    head, head_levels = trajectory(desired[:split], harvested[:split],
                                   capacity=capacity, initial=initial)
    resume = head_levels[-1] if split else initial
    tail, tail_levels = trajectory(desired[split:], harvested[split:],
                                   capacity=capacity, initial=resume)
    assert np.concatenate([head, tail]).tobytes() == actual.tobytes()
    assert (np.concatenate([head_levels, tail_levels]).tobytes()
            == levels.tobytes())


def test_lanes_need_matching_shapes():
    with pytest.raises(ValueError):
        trajectory(np.zeros(3), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        trajectory(np.zeros((3, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        trajectory(np.zeros((3, 2)), np.full((3, 2), -1.0))


# ---------------------------------------------------------------------------
# trajectory: one capacity per lane


@st.composite
def random_lanes_with_capacities(draw):
    # lanes as `random_lanes` draws them, each in a buffer of its own size
    desired, harvested, _, initial = draw(random_lanes())
    size = st.one_of(st.just(math.inf), st.floats(min_value=0.5,
                                                  max_value=1e7))
    capacity = draw(hnp.arrays(np.float64, desired.shape[1:], elements=size))
    return desired, harvested, capacity, initial


@given(random_lanes_with_capacities())
@settings(max_examples=200, deadline=None)
def test_lanes_with_a_capacity_row_match_one_call_per_lane(run):
    desired, harvested, capacity, initial = run
    actual, levels = trajectory(desired, harvested, capacity=capacity,
                                initial=initial)
    starts = np.broadcast_to(initial, desired.shape[1:])
    for j in range(desired.shape[1]):
        got, lev = trajectory(desired[:, j].copy(), harvested[:, j].copy(),
                              capacity=capacity[j], initial=starts[j])
        assert got.tobytes() == actual[:, j].copy().tobytes()
        assert lev.tobytes() == levels[:, j].copy().tobytes()


@given(random_lanes())
@settings(max_examples=100, deadline=None)
def test_a_row_of_one_capacity_is_the_scalar(run):
    desired, harvested, capacity, initial = run
    row = np.full(desired.shape[1], capacity)
    for got, want in zip(
            trajectory(desired, harvested, capacity=row, initial=initial),
            trajectory(desired, harvested, capacity=capacity,
                       initial=initial)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [3, VECTOR_LANES])
def test_a_lane_above_its_own_capacity_is_named(k):
    # Lane 1 starts at 3.0, above its own 2.0 but below every other
    # lane's capacity, so a shared capacity would have let it pass.
    capacity = np.full(k, 5.0)
    capacity[1] = 2.0
    initial = np.full(k, 1.0)
    initial[1] = 3.0
    desired = np.ones((4, k))
    want = "battery level 3.0 exceeds capacity 2.0"
    assert state_error(3.0, 2.0) == want
    with pytest.raises(ValueError) as info:
        trajectory(desired, desired, capacity=capacity, initial=initial)
    assert str(info.value) == want
    with pytest.raises(ValueError) as info:
        battery.check_start(initial, capacity)
    assert str(info.value) == want


@pytest.mark.parametrize("size", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("k", [3, VECTOR_LANES])
def test_a_capacity_row_with_a_size_not_above_zero_is_refused(size, k):
    capacity = np.full(k, 5.0)
    capacity[k - 1] = size
    desired = np.ones((4, k))
    want = state_error(0.0, size)
    assert want == f"battery capacity must be > 0, got {size}"
    with pytest.raises(ValueError) as info:
        trajectory(desired, desired, capacity=capacity)
    assert str(info.value) == want


def test_capacity_rows_need_one_size_per_lane():
    desired = np.ones((4, 3))
    for capacity in (np.ones(2), np.ones((3, 1))):
        with pytest.raises(ValueError, match="capacity shape"):
            trajectory(desired, desired, capacity=capacity)
    # One buffer, single- or multi-link, takes a scalar only.
    with pytest.raises(ValueError, match="capacity shape"):
        trajectory(desired[:, 0], desired[:, 0], capacity=np.ones(1))
    with pytest.raises(ValueError, match="capacity shape"):
        trajectory(desired, desired[:, 0], capacity=np.ones(3))


@pytest.mark.parametrize("shape", [(0, 3), (4, 0), (0, 0)],
                         ids=["no_slots", "no_lanes", "neither"])
def test_empty_lanes_run_and_still_check_their_start(shape):
    # The block checks take a `min` and a `max`, which an empty block has
    # not; it passes, and a bad start still gives its one line.
    empty = np.zeros(shape)
    actual, levels = trajectory(empty, empty,
                                capacity=np.full(shape[1], 2.0),
                                initial=np.ones(shape[1]))
    assert actual.shape == levels.shape == shape
    for level, capacity in ((3.0, 2.0), (1.0, 0.0), (-1.0, 2.0)):
        with pytest.raises(ValueError) as info:
            trajectory(empty, empty, capacity=capacity, initial=level)
        assert str(info.value) == state_error(level, capacity)


@pytest.mark.parametrize("value", [math.nan, -1.0, math.inf],
                         ids=["nan", "negative", "inf"])
@pytest.mark.parametrize("role", ["desired", "harvested"])
@pytest.mark.parametrize("k", [3, VECTOR_LANES])
def test_a_bad_value_in_a_stacked_block_raises_one_line(k, role, value):
    # Two nodes' trials side by side, as the simulator stacks them; one
    # value of the second node's lanes is bad.
    blocks = {"desired": np.ones((5, 2 * k)), "harvested": np.ones((5, 2 * k))}
    blocks[role][2, k + 1] = value
    with pytest.raises(ValueError) as info:
        trajectory(blocks["desired"], blocks["harvested"],
                   capacity=np.repeat([math.inf, 2.0], k), initial=1.0)
    assert str(info.value) == f"{role} powers must be finite and >= 0"
