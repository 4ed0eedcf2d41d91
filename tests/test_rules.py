from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vg2s.env import ScheduleState, replay, reset
from vg2s.instance import GenConfig, Instance, generate_random
from vg2s.rules import Rule, decisions, dispatch, improvement_rate, optimality_gap


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


def reference_order(rule: Rule, inst: Instance) -> list[int]:
    """The decisions of stepping `reference_select` from reset."""
    st_, order = reset(inst), []
    while not st_.done:
        order.append(reference_select(rule, st_))
        st_.step(order[-1])
    return order


STATE_FIELDS = ("start", "end", "scheduled", "next_op", "machine_ready", "job_ready",
                "machine_remaining", "job_remaining")


@settings(max_examples=150, deadline=None)
@given(inst=tie_heavy_instances())
@example(inst=Instance(n=2, m=3, ops=(((0, 1), (1, 1), (2, 1)), ((2, 1), (1, 1), (0, 1)))))
@example(inst=Instance(n=1, m=4, ops=(((2, 3), (0, 1), (3, 3), (1, 2)),)))
@example(inst=Instance(n=4, m=1, ops=(((0, 2),), ((0, 1),), ((0, 2),), ((0, 1),))))
def test_engine_matches_reference_select(inst):
    """Each rule's heap engine decides what stepping the one-candidate-at-a-
    time reference decides, in the same order, and `dispatch` returns the
    state that replaying those decisions steps to, field for field."""
    for rule in Rule:
        order = reference_order(rule, inst)
        assert decisions(inst, rule) == order
        st_, c = dispatch(inst, rule)
        ref = replay(inst, order)
        for name in STATE_FIELDS:
            got, want = getattr(st_, name), getattr(ref, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert st_.t == ref.t and st_.done
        assert type(c) is int and c == ref.makespan()


FT06_MAKESPANS = {
    Rule.FIFO: 65,
    Rule.SPT: 88,
    Rule.LPT: 77,
    Rule.SRM: 68,
    Rule.SRPT: 83,
    Rule.MWKR: 61,
}


class TestSelect:
    """The engine's first decision (its second, where the earliest-start
    filter binds)."""

    def test_spt_picks_shortest(self):
        # three one-op jobs on the same machine, p = (3, 1, 2)
        inst = Instance(n=3, m=1, ops=(((0, 3),), ((0, 1),), ((0, 2),)))
        assert decisions(inst, Rule.SPT)[0] == 1

    def test_lpt_picks_longest(self):
        inst = Instance(n=3, m=1, ops=(((0, 3),), ((0, 1),), ((0, 2),)))
        assert decisions(inst, Rule.LPT)[0] == 0

    def test_tie_break_lowest_job(self):
        inst = Instance(n=2, m=1, ops=(((0, 4),), ((0, 4),)))
        for rule in Rule:
            assert decisions(inst, rule)[0] == 0

    def test_non_delay_restriction(self):
        # J0 = (M0,1)(M1,1), J1 = (M1,5)(M0,5): SPT first places J0O0 on
        # [0, 1]; then J0O1 (p=1) could start on M1 only at 1, while J1O0
        # (p=5) starts there at 0, so the earliest-start filter overrides
        # the shorter op
        inst = Instance(n=2, m=2, ops=(((0, 1), (1, 1)), ((1, 5), (0, 5))))
        assert decisions(inst, Rule.SPT)[:2] == [0, 2]

    def test_mwkr_prefers_loaded_job(self, two_by_two):
        # job 1 has total 6 > job 0 total 5, both first ops start at 0
        assert decisions(two_by_two, Rule.MWKR)[0] == 2


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
