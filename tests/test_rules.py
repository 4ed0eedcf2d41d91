from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vg2s.env import ScheduleState, replay, reset
from vg2s.instance import GenConfig, Instance, generate_random
from vg2s.rules import Rule, dispatch, improvement_rate, optimality_gap, select


def reference_priority(rule: Rule, st_: ScheduleState, u: int) -> float:
    """Per-candidate priority read from the op tuples; lower is better,
    argmax rules negate their score."""
    inst = st_.inst
    j, k = divmod(u, inst.m)
    i, p = inst.ops[j][k]
    if rule is Rule.FIFO:
        return float(st_.job_ready[j])
    if rule is Rule.SPT:
        return float(p)
    if rule is Rule.LPT:
        return -float(p)
    if rule is Rule.SRM:
        return float(st_.machine_remaining[i])
    if rule is Rule.SRPT:
        return float(st_.job_remaining[j])
    if rule is Rule.MWKR:
        return -float(st_.job_remaining[j])
    raise ValueError(f"unknown rule {rule!r}")


def reference_select(rule: Rule, st_: ScheduleState) -> int:
    """One candidate at a time: the lowest (earliest start, priority, job,
    machine) key among the available ops."""
    best_u = -1
    best_key = None
    for u in st_.available():
        j, k = divmod(u, st_.inst.m)
        i = st_.inst.ops[j][k][0]
        est = max(int(st_.machine_ready[i]), int(st_.job_ready[j]))
        key = (est, reference_priority(rule, st_, u), j, i)
        if best_key is None or key < best_key:
            best_key = key
            best_u = u
    return best_u


@st.composite
def tie_heavy_instances(draw):
    """n < m included; durations in 1..3, so equal keys are common."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return Instance(n=n, m=m, ops=tuple(
        tuple(zip(draw(st.permutations(range(m))),
                  draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))))
        for _ in range(n)))


@settings(max_examples=150, deadline=None)
@given(inst=tie_heavy_instances(), seed=st.integers(0, 10_000))
@example(inst=Instance(n=2, m=3, ops=(((0, 1), (1, 1), (2, 1)), ((2, 1), (1, 1), (0, 1)))),
         seed=0)
def test_select_matches_reference_along_random_rollouts(inst, seed):
    """At every state of a random rollout, each rule's array pass picks the
    op the one-candidate-at-a-time reference picks."""
    rng = np.random.default_rng(seed)
    st_ = reset(inst)
    while not st_.done:
        for rule in Rule:
            assert select(rule, st_) == reference_select(rule, st_)
        st_.step(int(rng.choice(st_.available())))


FT06_MAKESPANS = {
    Rule.FIFO: 65,
    Rule.SPT: 88,
    Rule.LPT: 77,
    Rule.SRM: 68,
    Rule.SRPT: 83,
    Rule.MWKR: 61,
}


class TestSelect:
    def test_spt_picks_shortest(self):
        # three one-op jobs on the same machine, p = (3, 1, 2)
        inst = Instance(n=3, m=1, ops=(((0, 3),), ((0, 1),), ((0, 2),)))
        assert select(Rule.SPT, reset(inst)) == 1

    def test_lpt_picks_longest(self):
        inst = Instance(n=3, m=1, ops=(((0, 3),), ((0, 1),), ((0, 2),)))
        assert select(Rule.LPT, reset(inst)) == 0

    def test_tie_break_lowest_job(self):
        inst = Instance(n=2, m=1, ops=(((0, 4),), ((0, 4),)))
        for rule in Rule:
            assert select(rule, reset(inst)) == 0

    def test_non_delay_restriction(self, two_by_two):
        # after J1O1 and J2O1, J2O2 can start at t=3 while J1O2 at t=3 too;
        # play one more step so the earliest-start filter becomes binding
        st_ = replay(two_by_two, [0, 2])
        # J1O2 (machine 1, est max(2,3)=3) vs J2O2 (machine 0, est max(3,2)=3)
        assert select(Rule.SPT, st_) == 1  # p=2 beats p=4

    def test_mwkr_prefers_loaded_job(self, two_by_two):
        # job 1 has total 6 > job 0 total 5, both first ops start at 0
        assert select(Rule.MWKR, reset(two_by_two)) == 2


class TestDispatch:
    @pytest.mark.parametrize("rule", list(Rule))
    def test_ft06_makespans(self, ft06, rule):
        _, c = dispatch(ft06, rule)
        assert c == FT06_MAKESPANS[rule]

    def test_ft06_fifo_gap(self, ft06):
        _, c = dispatch(ft06, Rule.FIFO)
        assert optimality_gap(c, 55) == pytest.approx(18.18, abs=0.005)

    def test_ft06_mwkr_gap(self, ft06):
        _, c = dispatch(ft06, Rule.MWKR)
        assert optimality_gap(c, 55) == pytest.approx(10.91, abs=0.005)

    def test_deterministic(self, ft06):
        a = dispatch(ft06, Rule.SRPT)[0]
        b = dispatch(ft06, Rule.SRPT)[0]
        np.testing.assert_array_equal(a.start, b.start)

    def test_completes_any_instance(self, rng):
        cfg = GenConfig(m_lo=2, m_hi=4, n_hi=5)
        for _ in range(10):
            inst = generate_random(cfg, rng)
            for rule in Rule:
                st_, c = dispatch(inst, rule)
                assert st_.done
                assert c >= inst.load_lower_bound()


class TestMetrics:
    def test_gap_zero(self):
        assert optimality_gap(55, 55) == 0.0

    def test_gap_values(self):
        assert optimality_gap(65, 55) == pytest.approx(18.18, abs=0.005)
        assert optimality_gap(61, 55) == pytest.approx(10.91, abs=0.005)

    def test_gap_rejects_bad_ub(self):
        with pytest.raises(ValueError):
            optimality_gap(10, 0)

    def test_improvement_rate(self):
        assert improvement_rate(100, 100) == 0.0
        assert improvement_rate(100, 97) == pytest.approx(3.0)
        assert improvement_rate(100, 110) == pytest.approx(-10.0)

    def test_improvement_rejects_bad_base(self):
        with pytest.raises(ValueError):
            improvement_rate(0, 5)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_rules_always_semi_active(seed):
    rng = np.random.default_rng(seed)
    inst = generate_random(GenConfig(m_lo=2, m_hi=4, n_hi=4), rng)
    for rule in Rule:
        st_, c = dispatch(inst, rule)
        assert c == max(st_.end)
