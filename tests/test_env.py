from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vg2s.env import ActionError, replay, reset, schedule_records, state_features
from vg2s.instance import GenConfig, Instance, generate_random


def _successor(st_, u):
    nxt = copy.deepcopy(st_, {id(st_.inst): st_.inst})
    nxt.step(u)
    return nxt


def reference_bounds(st_, u) -> tuple[float, float]:
    """Clone-and-step reference for the lookahead terms of choosing op u:
    u's own term in the successor state, and the max of that and the terms
    of the successor's available ops; a job's terminal op has term zero."""
    inst = st_.inst
    nxt = _successor(st_, u)

    def term(v):
        j, k = divmod(v, inst.m)
        if k == inst.m - 1:
            return 0.0
        i = inst.machines[j, k]
        return float(max(nxt.machine_ready[i] + nxt.machine_remaining[i],
                         nxt.job_ready[j] + nxt.job_remaining[j]))

    own = term(u)
    return own, max([own] + [term(v) for v in nxt.available()])


def reference_features(st_) -> np.ndarray:
    """`state_features` computed by stepping a clone for every candidate."""
    inst = st_.inst
    n, m = inst.n, inst.m
    feats = np.zeros((n * m, 6), dtype=np.float64)
    avail = st_.available()
    if not avail:
        return feats
    raw = np.zeros((len(avail), 6), dtype=np.float64)
    for idx, u in enumerate(avail):
        j, k = divmod(u, m)
        i, p = inst.ops[j][k]
        est = max(int(st_.machine_ready[i]), int(st_.job_ready[j]))
        completed = _successor(st_, u).next_op.astype(np.float64)
        raw[idx] = (est, est + p, *reference_bounds(st_, u),
                    completed.max() / m, completed.mean() / m)
    for col in range(4):
        top = raw[:, col].max()
        if top > 0:
            raw[:, col] /= top
    feats[avail] = raw
    return feats


def permutation_instance(n: int, m: int, seed: int) -> Instance:
    """Random instance of any shape, n < m included (GenConfig needs n >= m)."""
    rng = np.random.default_rng(seed)
    return Instance(n=n, m=m, ops=tuple(
        tuple(zip(rng.permutation(m).tolist(), rng.integers(1, 20, m).tolist()))
        for _ in range(n)))


class TestReset:
    def test_initial_state(self, two_by_two):
        st_ = reset(two_by_two)
        assert st_.t == 1
        assert st_.available() == [0, 2]  # first op of each job
        assert not st_.done

    def test_ft06_has_six_initial_actions(self, ft06):
        assert len(reset(ft06).available()) == 6


class TestStep:
    def test_optimal_sequence(self, two_by_two):
        st_ = replay(two_by_two, [0, 2, 3, 1])
        assert st_.makespan() == 7

    def test_greedy_job_first_sequence(self, two_by_two):
        # J2O2 waits for job 1 to clear machine 1 at t=7, then runs 4 units
        st_ = replay(two_by_two, [0, 1, 2, 3])
        assert st_.makespan() == 11

    def test_all_interleavings(self, two_by_two):
        from itertools import permutations
        values = set()
        for perm in set(permutations(range(4))):
            if perm.index(0) < perm.index(1) and perm.index(2) < perm.index(3):
                values.add(replay(two_by_two, list(perm)).makespan())
        assert values == {7, 11}

    def test_single_op(self):
        inst = Instance(n=1, m=1, ops=(((0, 5),),))
        st_ = replay(inst, [0])
        assert st_.makespan() == 5

    def test_unavailable_action_rejected(self, two_by_two):
        st_ = reset(two_by_two)
        with pytest.raises(ActionError):
            st_.step(1)  # second op of job 0 before the first

    def test_semi_active_start_times(self, two_by_two):
        st_ = reset(two_by_two)
        st_.step(0)
        assert st_.start[0] == 0 and st_.end[0] == 3
        st_.step(2)
        assert st_.start[2] == 0 and st_.end[2] == 2
        st_.step(3)  # machine 0 busy until 3, job 1 ready at 2
        assert st_.start[3] == 3 and st_.end[3] == 7

    def test_makespan_requires_completion(self, two_by_two):
        st_ = reset(two_by_two)
        st_.step(0)
        with pytest.raises(ValueError, match="incomplete"):
            st_.makespan()

    def test_replay_reproduces_schedule(self, ft06, rng):
        actions = []
        st_ = reset(ft06)
        while not st_.done:
            choice = int(rng.choice(st_.available()))
            actions.append(choice)
            st_.step(choice)
        again = replay(ft06, actions)
        np.testing.assert_array_equal(st_.start, again.start)
        np.testing.assert_array_equal(st_.end, again.end)


class TestStateFeatures:
    def test_reset_candidate_lookahead(self, two_by_two):
        st_ = reset(two_by_two)
        # choosing J1O1: in the successor, machine 0 carries 3+4 remaining
        own, best = reference_bounds(st_, 0)
        assert own == 7.0
        assert best >= own
        # J2O1's own term is max(machine 1: 4, job 2: 6) = 6; both best terms are 7
        feats = state_features(st_)
        assert feats[0, 2] == 1.0 and feats[2, 2] == 6 / 7
        assert feats[0, 3] == 1.0 and feats[2, 3] == 1.0

    def test_rows_zero_outside_available(self, two_by_two):
        st_ = reset(two_by_two)
        feats = state_features(st_)
        assert np.all(feats[1] == 0) and np.all(feats[3] == 0)

    def test_final_step_normalization(self, two_by_two):
        st_ = replay(two_by_two, [0, 2, 3])
        feats = state_features(st_)
        assert feats[1, 0] == 1.0 and feats[1, 1] == 1.0

    def test_terminal_op_zeroing(self, two_by_two):
        inst = Instance(n=1, m=1, ops=(((0, 5),),))
        own, best = reference_bounds(reset(inst), 0)
        assert own == 0.0 and best == 0.0
        assert np.all(state_features(reset(inst))[0, 2:4] == 0.0)
        # both candidates end their jobs, so every lookahead term is zero
        feats = state_features(replay(two_by_two, [0, 2]))
        assert np.all(feats[[1, 3], 2:4] == 0.0)

    def test_progress_features(self, two_by_two):
        feats = state_features(reset(two_by_two))
        # one op completed in the successor state, m = 2
        for u in (0, 2):
            assert feats[u, 4] == pytest.approx(0.5)
            assert feats[u, 5] == pytest.approx(0.25)

    def test_feature_range(self, ft06, rng):
        st_ = reset(ft06)
        while not st_.done:
            feats = state_features(st_)
            assert np.all(feats >= 0.0) and np.all(feats <= 1.0)
            st_.step(int(rng.choice(st_.available())))

    def test_best_bound_dominates_candidate(self, rng):
        cfg = GenConfig(m_lo=2, m_hi=4, n_hi=4)
        for _ in range(20):
            inst = generate_random(cfg, rng)
            st_ = reset(inst)
            while not st_.done:
                for u in st_.available():
                    own, best = reference_bounds(st_, u)
                    assert best >= own
                assert state_features(st_).tobytes() == reference_features(st_).tobytes()
                st_.step(int(rng.choice(st_.available())))


class TestScheduleRecords:
    def test_complete_schedule(self, two_by_two):
        st_ = replay(two_by_two, [0, 2, 3, 1])
        rows = schedule_records(st_)
        assert len(rows) == 4
        assert rows[0]["start"] == 0
        assert {tuple(sorted(r)) for r in rows} == {("end", "job", "machine", "op", "start")}


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_rollout_invariants(seed):
    rng = np.random.default_rng(seed)
    inst = generate_random(GenConfig(m_lo=2, m_hi=5, n_hi=6), rng)
    st_ = reset(inst)
    steps = 0
    while not st_.done:
        avail = st_.available()
        machine_before = st_.machine_ready.copy()
        job_before = st_.job_ready.copy()
        u = int(rng.choice(avail))
        j, k = divmod(u, inst.m)
        i = inst.machines[j, k]
        st_.step(u)
        assert st_.start[u] == max(machine_before[i], job_before[j])
        steps += 1
    assert steps == inst.num_ops
    assert st_.makespan() >= inst.load_lower_bound()


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_lookahead_features_match_raw_bounds(seed):
    """Columns 2-3 of state_features are the reference lookahead bounds
    divided by their max over the available ops, at every state of a random
    rollout."""
    rng = np.random.default_rng(seed)
    inst = generate_random(GenConfig(m_lo=1, m_hi=4, n_hi=5), rng)
    st_ = reset(inst)
    while not st_.done:
        avail = st_.available()
        raw = np.array([reference_bounds(st_, u) for u in avail])
        top = raw.max(axis=0)
        expected = raw / np.where(top > 0, top, 1.0)
        np.testing.assert_array_equal(state_features(st_)[avail, 2:4], expected)
        st_.step(int(rng.choice(avail)))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 7), m=st.integers(1, 6), seed=st.integers(0, 10_000),
       job_first=st.booleans())
@example(n=1, m=1, seed=0, job_first=False)
@example(n=1, m=4, seed=1, job_first=False)
@example(n=3, m=3, seed=2, job_first=True)  # the last 3 states have one available op
def test_state_features_match_clone_and_step_reference(n, m, seed, job_first):
    """All six columns of state_features equal the clone-and-step reference
    byte for byte, at every state of a rollout (random, or job by job)."""
    inst = permutation_instance(n, m, seed)
    rng = np.random.default_rng(seed)
    st_ = reset(inst)
    while True:
        assert state_features(st_).tobytes() == reference_features(st_).tobytes()
        if st_.done:
            break
        avail = st_.available()
        st_.step(avail[0] if job_first else int(rng.choice(avail)))
