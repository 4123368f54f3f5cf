"""Unit tests for power policies and the budget threshold solver."""

import math

import numpy as np
import pytest
from scipy.special import comb, exp1

import ehnet.policies
from ehnet.policies import (
    LAMBDA_REL_TOL,
    AlternatingRelayPolicy,
    AmplifierModel,
    ConstantPolicy,
    InfeasibleTargetError,
    MaxGainBroadcastPolicy,
    ThresholdSolverError,
    WaterfillPolicy,
    expected_desired_power,
    solve_lambda,
)
from ehnet.stochastic import (
    ExponentialProcess,
    Stream,
    exponential_pdf,
    max_exponential_pdf,
)
from oracles import max_gain_requests

# bisection on the fixed bracket for a unit budget, ideal amplifier,
# unit-mean fading; re-derived offline with an independent root finder
LAMBDA_STAR_UNIT_BUDGET = 0.3937738450451183


def slots(n):
    return np.arange(1, n + 1)


def ideal_waterfill(lam):
    return WaterfillPolicy(AmplifierModel(), lam)


def layouts(values):
    """`values` as a read-only C-ordered array and as a read-only
    link-major view, each link's column contiguous, as the simulator
    hands them over; a write into either raises."""
    values = np.asarray(values, dtype=float)
    c, f = np.ascontiguousarray(values), np.ascontiguousarray(values.T).T
    for a in (c, f):
        a.setflags(write=False)
    assert f.flags.f_contiguous and (values.shape[1] == 1
                                     or not f.flags.c_contiguous)
    return c, f


def solve_waterfill(target):
    return solve_lambda(
        target, lambda lam: ideal_waterfill(lam).expected_request_rayleigh())


# ---------------------------------------------------------------------------
# per-slot requests, worked by hand


def test_constant_policy_requests_everywhere():
    p = ConstantPolicy(0.7, num_links=3)
    out = p.desired_powers(slots(4), np.ones((4, 3)))
    assert out.shape == (4, 3)
    assert np.all(out == 0.7)


def test_waterfill_worked_example_ideal():
    p = WaterfillPolicy(AmplifierModel(), lam=0.5)
    out = p.desired_powers(slots(3), np.array([1.0, 0.5, 0.25]))
    # 1/0.5 - 1/1 = 1.0; gain at threshold stays silent; below too
    assert out[:, 0].tolist() == [1.0, 0.0, 0.0]


def test_waterfill_worked_example_lossy():
    amp = AmplifierModel(epsilon=2.0, circuit_power=0.25)
    p = WaterfillPolicy(amp, lam=2.0)
    out = p.desired_powers(slots(1), np.array([4.0]))
    # 0.25 + (1/2 - 1/4)/2 = 0.375
    assert out[0, 0] == pytest.approx(0.375, rel=1e-15)


def test_waterfill_silent_at_threshold_boundary():
    p = WaterfillPolicy(AmplifierModel(), lam=1.0)
    out = p.desired_powers(slots(1), np.array([1.0]))
    assert out[0, 0] == 0.0


def test_broadcast_serves_only_the_best_receiver():
    p = MaxGainBroadcastPolicy(lam=0.5, num_links=2)
    out = p.desired_powers(slots(1), np.array([[2.0, 1.0]]))
    assert out[0, 0] == pytest.approx(1.5, rel=1e-15)  # 1/0.5 - 1/2
    assert out[0, 1] == 0.0


def test_broadcast_tie_goes_to_lowest_index():
    p = MaxGainBroadcastPolicy(lam=0.5, num_links=3)
    out = p.desired_powers(slots(1), np.array([[2.0, 2.0, 2.0]]))
    assert out[0, 0] == pytest.approx(1.5, rel=1e-15)
    assert out[0, 1] == 0.0
    assert out[0, 2] == 0.0


# Rows of gains with ties among the largest, at lam = 0.5: at non-first
# columns, exactly at lam, below it, among all links, and untied rows
# mixed in, some exactly at lam.
TIED_GAINS = {
    4: [[1.0, 3.0, 3.0, 2.0],
        [0.2, 0.7, 0.1, 0.7],
        [0.4, 0.9, 0.2, 0.1],
        [0.5, 0.5, 0.1, 0.0],
        [0.3, 0.1, 0.3, 0.3],
        [0.1, 0.2, 0.5, 0.3],
        [2.0, 2.0, 2.0, 2.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.25]],
}


def _tied_rows_of_25():
    rng = np.random.default_rng(25)
    rows = rng.uniform(0.0, 1.0, (8, 25))
    rows[0, [7, 19]] = 1.5  # a tie of two among 25
    rows[1, [3, 24]] = 1.5
    rows[2] *= 0.4  # untied, below lam
    rows[3, [0, 12]] = 2.0  # a tie at the first column and a later one
    rows[4] = np.minimum(rows[4], 0.45)
    rows[4, [5, 6]] = 0.5  # a tie exactly at lam
    rows[5] = np.minimum(rows[5], 0.2)
    rows[5, [10, 11, 20]] = 0.3  # a tie of three below lam
    rows[6, 9] = 0.5  # untied, exactly at lam, the rest below
    rows[6, np.arange(25) != 9] *= 0.45
    rows[7, 13] = 3.0  # untied
    return rows.tolist()


TIED_GAINS[25] = _tied_rows_of_25()


@pytest.mark.parametrize("links", sorted(TIED_GAINS))
def test_broadcast_ties_go_to_the_first_maximum_bit_for_bit(links):
    gains = np.array(TIED_GAINS[links])
    want = max_gain_requests(gains, 0.5)
    p = MaxGainBroadcastPolicy(lam=0.5, num_links=links)
    for g in layouts(gains):
        got = p.desired_powers(slots(len(gains)), g)
        assert got.dtype == want.dtype and got.shape == want.shape
        # bytes in C order, so a sign of zero shows
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()
    # A gain exactly at lam asks for 0.0: only the rows above it ask.
    assert np.count_nonzero(want) == {4: 5, 25: 4}[links]


@pytest.mark.parametrize("links", [1, 2, 5, 8, 9, 25])
def test_policies_give_the_same_bits_in_either_layout(links):
    # Every shipped policy that drives `links` links, on the same gains as
    # a C-ordered array and as a link-major view; neither is written to.
    rng = np.random.default_rng(links)
    n = 400
    gains = rng.exponential(1.0, (n, links))
    gains[::3] = np.round(gains[::3], 1)  # ties, and gains at lam
    gains[::11] = 0.0
    policies = [ConstantPolicy(1.5, num_links=links),
                MaxGainBroadcastPolicy(lam=0.8, num_links=links)]
    if links == 1:
        policies += [
            WaterfillPolicy(AmplifierModel(epsilon=2.0, circuit_power=0.1),
                            lam=0.8),
            AlternatingRelayPolicy(node_parity=1, active_power=2.0)]
    for policy in policies:
        c, f = (policy.desired_powers(slots(n), g) for g in layouts(gains))
        assert c.dtype == f.dtype == np.float64
        assert c.shape == f.shape == (n, links)
        assert (np.ascontiguousarray(c).tobytes()
                == np.ascontiguousarray(f).tobytes()), policy


def test_broadcast_silent_when_best_gain_below_threshold():
    p = MaxGainBroadcastPolicy(lam=1.0, num_links=2)
    out = p.desired_powers(slots(1), np.array([[0.9, 0.4]]))
    assert np.all(out == 0.0)


@pytest.mark.parametrize("policy, gains", [
    (WaterfillPolicy(AmplifierModel(epsilon=5.0, circuit_power=0.2), lam=0.8),
     np.array([[3.0], [0.8], [0.5], [0.0], [0.8000001], [1e6]])),
    (MaxGainBroadcastPolicy(lam=0.8, num_links=3),
     np.array([[3.0, 3.0, 1.0], [0.2, 0.8, 0.5], [0.1, 0.3, 0.7],
               [0.9, 2.5, 2.5], [1e6, 0.0, 7.0]])),
], ids=["waterfill", "broadcast"])
def test_desired_powers_apply_request_above_threshold(policy, gains):
    out = policy.desired_powers(slots(len(gains)), gains)
    winner = np.argmax(gains, axis=1)  # the only column that may request
    for row, k in enumerate(winner):
        g = float(gains[row, k])
        want = policy.request(g) if g > policy.lam else 0.0
        assert out[row, k].tobytes() == np.float64(want).tobytes()
        assert np.all(np.delete(out[row], k) == 0.0)


def test_relay_parity_schedule():
    even = AlternatingRelayPolicy(node_parity=0, active_power=2.0)
    odd = AlternatingRelayPolicy(node_parity=1, active_power=2.0)
    g = np.ones(6)
    assert even.desired_powers(slots(6), g)[:, 0].tolist() == [
        0.0, 2.0, 0.0, 2.0, 0.0, 2.0]
    assert odd.desired_powers(slots(6), g)[:, 0].tolist() == [
        2.0, 0.0, 2.0, 0.0, 2.0, 0.0]


def test_policy_validation():
    with pytest.raises(ValueError):
        ConstantPolicy(-1.0)
    with pytest.raises(ValueError):
        WaterfillPolicy(AmplifierModel(), lam=0.0)
    with pytest.raises(ValueError):
        MaxGainBroadcastPolicy(lam=1.0, num_links=0)
    with pytest.raises(ValueError):
        AlternatingRelayPolicy(node_parity=2, active_power=1.0)
    with pytest.raises(ValueError):
        AmplifierModel(epsilon=0.5)
    with pytest.raises(ValueError):
        AmplifierModel(circuit_power=-1.0)


# ---------------------------------------------------------------------------
# expected request: quadrature vs closed forms


def waterfill_mean_closed_form(lam, amp, fading_mean=1.0):
    # for requests pc + (1/lam - 1/g)/eps over exponential gains:
    # pc P(g>lam) + (exp(-lam/m)/lam - E1(lam/m)/m)/eps
    x = lam / fading_mean
    ideal = math.exp(-x) / lam - exp1(x) / fading_mean
    return amp.circuit_power * math.exp(-x) + ideal / amp.epsilon


def broadcast_mean_closed_form(lam, m_receivers):
    # binomial expansion of the max-of-exponentials density
    total = 0.0
    for j in range(m_receivers):
        sign = (-1.0) ** j
        k = j + 1
        term = math.exp(-k * lam) / (k * lam) - exp1(k * lam)
        total += sign * comb(m_receivers - 1, j, exact=True) * term
    return m_receivers * total


@pytest.mark.parametrize("lam", [0.1, 0.5, 1.0, 3.0])
def test_waterfill_expectation_matches_closed_form(lam):
    amp = AmplifierModel(epsilon=5.0, circuit_power=0.2)
    got = expected_desired_power(WaterfillPolicy(amp, lam), exponential_pdf(1.0))
    assert got == pytest.approx(waterfill_mean_closed_form(lam, amp), rel=1e-9)


@pytest.mark.parametrize("circuit_power", [0.0, 10.0 ** -2.5])
@pytest.mark.parametrize("epsilon", [1.0, 5.0])
def test_waterfill_closed_form_budget_equals_quadrature(epsilon,
                                                        circuit_power):
    # The oracle integrates against the unit-mean exponential density
    # times e^lam, whose mass above lam is 1, and scales back by e^-lam:
    # so quadrature's absolute tolerance of 1e-12 stays far below the
    # integral, which is of order 1/lam**2 there, not e^-lam/lam**2.
    amp = AmplifierModel(epsilon, circuit_power)
    for lam in np.geomspace(1e-6, 50.0, 81).tolist():
        policy = WaterfillPolicy(amp, lam)
        oracle = math.exp(-lam) * expected_desired_power(
            policy, lambda g: math.exp(lam - g))
        assert policy.expected_request_rayleigh() == pytest.approx(
            oracle, rel=1e-12)


@pytest.mark.parametrize("m", [1, 2, 25, 515])
def test_broadcast_budget_on_fixed_nodes_equals_quadrature(m):
    # The oracle integrates `request` against the max-of-m density times
    # e^lam and scales back by e^-lam, as for water-filling above.
    for lam in np.geomspace(1e-6, 50.0, 81).tolist():
        policy = MaxGainBroadcastPolicy(lam, m)

        def scaled_pdf(g):
            return m * math.exp(lam - g) * (-math.expm1(-g)) ** (m - 1)

        oracle = math.exp(-lam) * expected_desired_power(policy, scaled_pdf)
        assert policy.expected_request_rayleigh() == pytest.approx(
            oracle, rel=1e-12)


def test_broadcast_budget_of_one_receiver_is_the_waterfill_closed_form():
    for lam in np.geomspace(1e-6, 50.0, 81).tolist():
        one = MaxGainBroadcastPolicy(lam, 1).expected_request_rayleigh()
        assert one == pytest.approx(
            ideal_waterfill(lam).expected_request_rayleigh(), rel=1e-14)


def test_gauss_legendre_rule_integrates_polynomials_to_degree_47():
    nodes, weights = ehnet.policies._gauss_legendre(24)
    assert np.all(np.diff(nodes) > 0.0) and np.all(weights > 0.0)
    for k in range(48):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert float(nodes ** k @ weights) == pytest.approx(exact, abs=1e-14)
    with pytest.raises(ValueError):
        weights[0] = 1.0  # shared by every caller


@pytest.mark.parametrize("lam", [0.2, 1.0])
def test_waterfill_expectation_nonunit_fading(lam):
    amp = AmplifierModel()
    got = expected_desired_power(WaterfillPolicy(amp, lam), exponential_pdf(4.0))
    want = waterfill_mean_closed_form(lam, amp, fading_mean=4.0)
    assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("m", [1, 2, 5, 25])
def test_broadcast_expectation_matches_closed_form(m):
    lam = 0.7
    got = expected_desired_power(MaxGainBroadcastPolicy(lam, m),
                                 max_exponential_pdf(1.0, m))
    assert got == pytest.approx(broadcast_mean_closed_form(lam, m), rel=1e-8)


# ---------------------------------------------------------------------------
# threshold solver


def test_solver_meets_its_residual_budget():
    lam = solve_waterfill(1.0)
    resid = expected_desired_power(ideal_waterfill(lam), exponential_pdf(1.0)) - 1.0
    assert abs(resid) <= LAMBDA_REL_TOL * 1.0


def test_solver_regression_unit_budget():
    lam = solve_waterfill(1.0)
    assert lam == pytest.approx(LAMBDA_STAR_UNIT_BUDGET, rel=1e-6)


def test_broadcast_single_receiver_reduces_to_waterfill():
    a = solve_waterfill(1.0)
    pdf = max_exponential_pdf(1.0, 1)
    b = solve_lambda(1.0, lambda lam: expected_desired_power(
        MaxGainBroadcastPolicy(lam, 1), pdf))
    assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("target", [0.01, 0.5, 2.0, 100.0])
def test_solver_closed_form_inversion(target):
    lam = solve_waterfill(target)
    want = waterfill_mean_closed_form(lam, AmplifierModel())
    assert want == pytest.approx(target, rel=1e-7)


def test_solver_monotone_in_target():
    lams = [solve_waterfill(t) for t in (0.1, 1.0, 10.0)]
    assert lams[0] > lams[1] > lams[2]


def test_unreachable_budget_raises():
    with pytest.raises(InfeasibleTargetError):
        solve_waterfill(1e10)


def test_solver_gives_up_after_its_bisection_budget(monkeypatch):
    monkeypatch.setattr(ehnet.policies, "LAMBDA_MAX_ITER", 1)
    with pytest.raises(ThresholdSolverError, match="after 1 bisections"):
        solve_waterfill(1.0)


def test_rejects_nonpositive_target():
    with pytest.raises(ValueError):
        solve_waterfill(0.0)


def test_monte_carlo_request_average_hits_budget():
    lam = solve_waterfill(1.0)
    stream = Stream(123, (0, 0, 0))
    gains = ExponentialProcess(1.0).sample(stream, 1_000_000)
    policy = WaterfillPolicy(AmplifierModel(), lam=lam)
    req = policy.desired_powers(np.arange(1, 1_000_001), gains)
    assert float(np.mean(req)) == pytest.approx(1.0, rel=0.01)


def test_monte_carlo_broadcast_average_hits_budget():
    m = 3
    pdf = max_exponential_pdf(1.0, m)
    lam = solve_lambda(2.0, lambda lam: expected_desired_power(
        MaxGainBroadcastPolicy(lam, m), pdf))
    stream = Stream(456, (0, 0, 0))
    gains = ExponentialProcess(1.0).sample(stream, 3_000_000).reshape(-1, m)
    policy = MaxGainBroadcastPolicy(lam=lam, num_links=m)
    req = policy.desired_powers(np.arange(1, len(gains) + 1), gains)
    assert float(np.mean(np.sum(req, axis=1))) == pytest.approx(2.0, rel=0.01)
