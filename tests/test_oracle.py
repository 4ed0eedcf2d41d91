from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vg2s.env import replay
from vg2s.instance import GenConfig, Instance, generate_random
from vg2s.oracle import branch_and_bound, enumerate_all


class TestEnumerate:
    def test_two_by_two(self, two_by_two):
        res = enumerate_all(two_by_two)
        assert res.c_star == 7
        assert res.proven

    def test_single_op(self):
        inst = Instance(n=1, m=1, ops=(((0, 5),),))
        res = enumerate_all(inst)
        assert res.c_star == 5 and res.proven

    def test_disjoint_jobs(self):
        inst = Instance(n=2, m=2, ops=(((0, 3), (1, 2)), ((1, 1), (0, 1))))
        res = enumerate_all(inst)
        assert res.c_star == max(5, 2)

    def test_schedule_replays_to_c_star(self, two_by_two):
        res = enumerate_all(two_by_two)
        assert replay(two_by_two, list(res.schedule)).makespan() == res.c_star

    def test_budget_overrun(self, ft06):
        res = enumerate_all(ft06, budget=100)
        assert not res.proven

    def test_node_count_two_by_two(self, two_by_two):
        # (n*m)!/(m!)^n = 6 leaves; 2+4+6+6 placements along the tree
        res = enumerate_all(two_by_two)
        assert res.nodes_explored == 18


class TestBranchAndBound:
    def test_two_by_two(self, two_by_two):
        res = branch_and_bound(two_by_two)
        assert res.c_star == 7 and res.proven

    def test_ft06_optimum(self, ft06):
        res = branch_and_bound(ft06)
        assert res.c_star == 55
        assert res.proven

    def test_ft06_schedule_replays(self, ft06):
        res = branch_and_bound(ft06)
        assert replay(ft06, list(res.schedule)).makespan() == 55

    def test_budget_overrun_keeps_incumbent(self, ft06):
        res = branch_and_bound(ft06, budget=1)
        assert not res.proven
        assert res.c_star <= 61  # at worst the best dispatching-rule seed


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_oracles_agree(seed):
    rng = np.random.default_rng(seed)
    inst = generate_random(GenConfig(m_lo=2, m_hi=3, n_hi=3), rng)
    a = enumerate_all(inst)
    b = branch_and_bound(inst)
    assert a.proven and b.proven
    assert a.c_star == b.c_star
    assert replay(inst, list(b.schedule)).makespan() == b.c_star
