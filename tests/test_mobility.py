import math

import pytest
from hypothesis import given, strategies as st

from mcastsim.kernel import US, ConfigError
from mcastsim.mobility import (availability_estimate, link_availability,
                               relative_mobility, sigmoid, stability_estimate,
                               NodeMobility)

from conftest import make_sim, run_s


# -- movement models -----------------------------------------------------------

def test_stationary_node_never_moves():
    sim = make_sim(node_count=1, nodes=[[100.0, 200.0]])
    before = sim.kernel.nodes[0].pos()
    for _ in range(5):
        sim.mobility.step(0, 1.0)
    assert sim.kernel.nodes[0].pos() == before


def test_waypoint_arrives_exactly_on_target():
    sim = make_sim(node_count=1, nodes=[[0.0, 0.0]],
                   mobility={"model": "random_waypoint", "speed_min": 10.0,
                             "speed_max": 10.0})
    mob = sim.kernel.nodes[0].mob
    mob.target = (30.0, 40.0)   # distance 50
    mob.speed = 10.0
    sim.mobility.step(0, 5.0)   # speed * dt == distance
    assert sim.kernel.nodes[0].pos() == (30.0, 40.0)
    assert mob.target is None


def test_waypoint_pauses_after_arrival():
    sim = make_sim(node_count=1, nodes=[[0.0, 0.0]],
                   mobility={"model": "random_waypoint", "speed_min": 10.0,
                             "speed_max": 10.0, "pause_time_s": 3.0})
    mob = sim.kernel.nodes[0].mob
    mob.target = (10.0, 0.0)
    mob.speed = 10.0
    sim.mobility.step(0, 1.0)
    assert mob.pause_until_us == sim.kernel.now_us + 3 * US
    pos = sim.kernel.nodes[0].pos()
    sim.mobility.step(0, 1.0)   # still pausing
    assert sim.kernel.nodes[0].pos() == pos


def test_random_walk_reflects_and_stays_in_bounds():
    sim = make_sim(node_count=1, nodes=[[5.0, 5.0]],
                   area={"width_m": 50.0, "height_m": 50.0},
                   mobility={"model": "random_walk", "speed_min": 0.0,
                             "speed_max": 30.0})
    for _ in range(10_000):
        x, y = sim.mobility.step(0, 1.0)
        assert 0.0 <= x <= 50.0 and 0.0 <= y <= 50.0


def test_step_requires_positive_dt():
    sim = make_sim(node_count=1, nodes=[[5.0, 5.0]])
    with pytest.raises(ConfigError):
        sim.mobility.step(0, 0.0)


def test_waypoint_scenario_positions_stay_in_area():
    sim = make_sim(node_count=30, seed=4, duration_s=20.0,
                   area={"width_m": 400.0, "height_m": 300.0},
                   mobility={"model": "random_waypoint", "speed_min": 5.0,
                             "speed_max": 25.0, "pause_time_s": 1.0})
    sim.run()
    for node in sim.kernel.nodes.values():
        assert 0.0 <= node.x <= 400.0
        assert 0.0 <= node.y <= 300.0


# -- relative mobility metric -----------------------------------------------------

def test_equal_powers_give_zero():
    assert relative_mobility(0.25, 0.25) == 0.0


def test_tenfold_drop_gives_minus_one():
    assert relative_mobility(0.01, 0.1) == pytest.approx(-1.0)


def test_metric_composes_with_power_law():
    from mcastsim.kernel import RadioModel
    rm = RadioModel(tx_power_w=1.0, path_loss_exp=2.0, ref_distance_m=1.0)
    m = relative_mobility(rm.received_power(200.0), rm.received_power(100.0))
    assert m == pytest.approx(math.log10(0.25))


def test_nonpositive_power_is_fatal():
    with pytest.raises(ConfigError):
        relative_mobility(0.0, 1.0)
    with pytest.raises(ConfigError):
        relative_mobility(1.0, -2.0)


@given(p1=st.floats(min_value=1e-12, max_value=1e3),
       p2=st.floats(min_value=1e-12, max_value=1e3))
def test_metric_antisymmetric(p1, p2):
    assert relative_mobility(p1, p2) == pytest.approx(-relative_mobility(p2, p1))


# -- link availability --------------------------------------------------------------

def test_zero_horizon_is_certain():
    assert availability_estimate([], [], 0.0) == 1.0


def test_counting_example():
    # four completed intervals, horizon between them; min_samples met via fifth
    assert availability_estimate([2, 4, 6, 8], [], 5.0, min_samples=4) == 0.5
    assert availability_estimate([2, 4, 6, 8, 10], [], 5.0) == pytest.approx(3 / 5)


def test_prior_until_enough_samples():
    assert availability_estimate([2, 4], [], 5.0, min_samples=5, prior=0.5) == 0.5
    assert availability_estimate([2, 4], [], 5.0, min_samples=5, prior=0.9) == 0.9


def test_open_intervals_that_survived_count():
    # stationary-style history: five links up for a long time, none completed
    assert availability_estimate([], [100.0] * 5, 7.0) == 1.0


def test_stationary_scenario_availability_tends_to_one():
    sim = make_sim(node_count=12, seed=2, duration_s=1.0,
                   area={"width_m": 300.0, "height_m": 300.0})
    run_s(sim, 30.0)
    vals = [link_availability(sim.kernel.nodes[nid].mob, 5.0, sim.kernel.now_us)
            for nid in sim.kernel.nodes if len(sim.kernel.neighbors(nid)) >= 5]
    assert vals and all(v == 1.0 for v in vals)


@given(completed=st.lists(st.floats(min_value=0, max_value=100), max_size=20),
       opens=st.lists(st.floats(min_value=0, max_value=100), max_size=20),
       t1=st.floats(min_value=0.001, max_value=100),
       t2=st.floats(min_value=0.001, max_value=100))
def test_availability_nonincreasing_in_horizon(completed, opens, t1, t2):
    lo, hi = min(t1, t2), max(t1, t2)
    a_lo = availability_estimate(completed, opens, lo, min_samples=1)
    a_hi = availability_estimate(completed, opens, hi, min_samples=1)
    if a_lo is not None and a_hi is not None:
        # prior kicks in when the sample pool empties; skip that regime
        n_lo = len(completed) + sum(1 for d in opens if d >= lo)
        n_hi = len(completed) + sum(1 for d in opens if d >= hi)
        if n_lo >= 1 and n_hi >= 1:
            assert a_hi <= a_lo + 1e-12


# -- stability -----------------------------------------------------------------------

def _mob_with_samples(powers, completed=(), opens_elapsed=(), now_us=10 * US):
    mob = NodeMobility()
    mob.powers[1] = tuple(powers)    # (older, newer)
    mob.completed_s = list(completed)
    # fake extra peers with long-open links
    for i, el in enumerate(opens_elapsed):
        mob.up_since[100 + i] = now_us - int(el * US)
    return mob


def test_stationary_pair_is_exactly_half():
    mob = _mob_with_samples([0.2, 0.2], opens_elapsed=[50] * 5)
    s = stability_estimate(mob, 1, 2.0, now_us=10 * US)
    assert s == pytest.approx(0.5)


def test_zero_availability_zeroes_stability():
    mob = _mob_with_samples([0.2, 0.9], completed=[0.1] * 6)
    s = stability_estimate(mob, 1, 2.0, now_us=10 * US)
    assert s == 0.0


def test_no_samples_returns_prior():
    mob = NodeMobility()
    assert stability_estimate(mob, 1, 2.0, prior=0.5) == 0.5


def test_separating_pair_less_stable_than_stationary():
    def pair_sim(speed):
        sim = make_sim(node_count=2, seed=8, duration_s=1.0,
                       nodes=[[100.0, 100.0], [150.0, 100.0]],
                       area={"width_m": 2000.0, "height_m": 200.0},
                       mobility={"model": "stationary"})
        if speed:
            # drive node 1 straight away from node 0, one step per second
            def drift():
                n = sim.kernel.nodes[1]
                n.x = min(sim.kernel.area_w, n.x + speed)
                sim.kernel.rebuild_links()
                sim.kernel.schedule_in(US, drift)
            sim.kernel.schedule_in(US, drift)
        run_s(sim, 4.5)
        return sim.mobility.stability(0, 1)

    assert pair_sim(40.0) < pair_sim(0.0)


@given(st.floats(min_value=-50, max_value=50))
def test_sigmoid_bounded_and_monotone(x):
    assert 0.0 <= sigmoid(x) <= 1.0
    assert sigmoid(x) <= sigmoid(x + 1.0)


def test_position_noise_perturbs_reported_position():
    sim = make_sim(node_count=1, nodes=[[200.0, 200.0]],
                   area={"width_m": 400.0, "height_m": 400.0},
                   mobility={"position_noise_m": 10.0})
    reports = [sim.mobility.reported_position(0) for _ in range(50)]
    assert any(r != (200.0, 200.0) for r in reports)
    for x, y in reports:
        assert 0.0 <= x <= 400.0 and 0.0 <= y <= 400.0


def test_zero_noise_reports_exact_position():
    sim = make_sim(node_count=1, nodes=[[123.0, 45.0]])
    assert sim.mobility.reported_position(0) == (123.0, 45.0)
