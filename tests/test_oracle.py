from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_instance
from oracle_reference import enumerate_all, reference_branch_and_bound
from vg2s.env import replay
from vg2s.instance import GenConfig, Instance, generate_random
from vg2s.oracle import DEFAULT_BUDGET, branch_and_bound


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


class TestBudget:
    """A search stops at its budget: nodes_explored never exceeds it, and
    equals it whenever the search is cut."""

    @pytest.mark.parametrize("search", [enumerate_all, branch_and_bound])
    def test_negative_budget_rejected(self, two_by_two, search):
        with pytest.raises(ValueError, match="budget must be >= 0, got -5"):
            search(two_by_two, budget=-5)

    @pytest.mark.parametrize("budget", [0, 1, 10, 4055])
    def test_branch_and_bound_stops_at_budget(self, ft06, budget):
        res = branch_and_bound(ft06, budget=budget)
        assert not res.proven and res.nodes_explored == budget

    def test_branch_and_bound_proof_size_is_enough(self, ft06):
        res = branch_and_bound(ft06, budget=4056)  # FT06's proof takes 4,056 nodes
        assert res.proven and res.nodes_explored == 4056 and res.c_star == 55

    def test_enumerate_stops_at_budget(self, ft06):
        res = enumerate_all(ft06, budget=36)  # one complete schedule: 36 placements
        assert not res.proven and res.nodes_explored == 36
        assert replay(ft06, list(res.schedule)).makespan() == res.c_star

    def test_enumerate_without_a_complete_schedule(self, ft06):
        with pytest.raises(ValueError, match="budget 35 ends before the first complete schedule"):
            enumerate_all(ft06, budget=35)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 100_000), data=st.data())
    def test_enumerate_node_count(self, seed, data):
        inst = random_instance(3, 2, seed)
        full = enumerate_all(inst)
        budget = data.draw(st.integers(inst.num_ops, full.nodes_explored + 10))
        res = enumerate_all(inst, budget=budget)
        assert res.proven == (budget >= full.nodes_explored)
        assert res.nodes_explored == (full.nodes_explored if res.proven else budget)
        if res.proven:
            assert res == full


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), m=st.integers(1, 5), seed=st.integers(0, 100_000),
       data=st.data())
def test_branch_and_bound_matches_reference(n, m, seed, data):
    """The O(1) child bound leaves the search unchanged: the reference, which
    places, bounds and unplaces every candidate, returns the same incumbent,
    schedule and proof, at budgets above and below the proof size; cut runs
    now count exactly `budget` nodes."""
    inst = random_instance(n, m, seed)
    proof = reference_branch_and_bound(inst, DEFAULT_BUDGET).nodes_explored
    budget = data.draw(st.integers(0, 2 * proof + 1))
    ref = reference_branch_and_bound(inst, budget)
    res = branch_and_bound(inst, budget)
    assert (res.c_star, res.schedule, res.proven) == (ref.c_star, ref.schedule, ref.proven)
    assert res.proven == (budget >= proof)
    assert res.nodes_explored == (ref.nodes_explored if ref.proven else budget)


# The oracle benchmark's library: FT06, then generate_random(GenConfig(m_lo=s,
# m_hi=s, n_hi=s), default_rng(seed)) for each (s, seed).
ORACLE_LIBRARY = ((5, 4), (5, 7), (6, 11), (7, 0))


def test_branch_and_bound_matches_reference_on_library(ft06):
    insts = [ft06] + [generate_random(GenConfig(m_lo=s, m_hi=s, n_hi=s),
                                      np.random.default_rng(seed))
                      for s, seed in ORACLE_LIBRARY]
    for inst in insts:
        ref = reference_branch_and_bound(inst, 25_000)
        res = branch_and_bound(inst, 25_000)
        assert (res.c_star, res.schedule, res.proven) == (ref.c_star, ref.schedule, ref.proven)
        assert res.nodes_explored == (ref.nodes_explored if ref.proven else 25_000)
