from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from env_reference import available, job_slots, ready, remaining, slot_ops, step_count
from env_reference import state_features as reference_state_features
from helpers import instance_batches, instances
from vg2s.env import (UNSET, ActionError, BatchState, ScheduleState, replay, schedule_records,
                      state_features)
from vg2s.instance import GenConfig, Instance, generate_random
from vg2s.rules import Rule, dispatch


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
    machine_ready, job_ready, _ = ready(nxt)
    machine_remaining, job_remaining = remaining(nxt)

    def term(v):
        j, k = divmod(v, inst.m)
        if k == inst.m - 1:
            return 0.0
        i = inst.machines[j, k]
        return float(max(machine_ready[i] + machine_remaining[i],
                         job_ready[j] + job_remaining[j]))

    own = term(u)
    return own, max([own] + [term(v) for v in available(nxt)])


def reference_features(st_) -> np.ndarray:
    """Dense (n*m, 6) `state_features`, zero outside the available rows,
    computed by stepping a clone for every candidate."""
    inst = st_.inst
    n, m = inst.n, inst.m
    feats = np.zeros((n * m, 6), dtype=np.float64)
    avail = available(st_)
    if not avail:
        return feats
    raw = np.zeros((len(avail), 6), dtype=np.float64)
    machine_ready, job_ready, _ = ready(st_)
    for idx, u in enumerate(avail):
        j, k = divmod(u, m)
        i, p = inst.ops[j][k]
        est = max(int(machine_ready[i]), int(job_ready[j]))
        completed = ready(_successor(st_, u))[2].astype(np.float64)
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


class OneRow:
    """A ScheduleState and a one-row BatchState of the same instance,
    stepped together."""

    def __init__(self, inst: Instance, actions=()):
        self.st = ScheduleState(inst)
        self.batch = BatchState([inst])
        for u in actions:
            self.step(u)

    def step(self, u: int) -> None:
        self.st.step(u)
        self.batch.step(slice(None), np.array([u]))

    def features(self) -> np.ndarray:
        """state_features of the row: slot j holds job j's next op, and a
        finished job's slot is op -1."""
        feats, ops = state_features(self.batch, slice(None))
        assert ops[0].tolist() == slot_ops(self.st).tolist()
        return feats[0]

    def expected(self) -> np.ndarray:
        """The clone-and-step reference's available rows in job slots."""
        return job_slots(self.st, reference_features(self.st)[available(self.st)])


class TestReset:
    def test_initial_state(self, two_by_two):
        st_ = ScheduleState(two_by_two)
        assert step_count(st_) == 1
        assert available(st_) == [0, 2]  # first op of each job
        assert not st_.done

    def test_ft06_has_six_initial_actions(self, ft06):
        assert len(available(ScheduleState(ft06))) == 6


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
        st_ = ScheduleState(two_by_two)
        with pytest.raises(ActionError):
            st_.step(1)  # second op of job 0 before the first

    def test_semi_active_start_times(self, two_by_two):
        st_ = ScheduleState(two_by_two)
        st_.step(0)
        assert st_.start[0] == 0 and st_.end[0] == 3
        st_.step(2)
        assert st_.start[2] == 0 and st_.end[2] == 2
        st_.step(3)  # machine 0 busy until 3, job 1 ready at 2
        assert st_.start[3] == 3 and st_.end[3] == 7

    def test_makespan_requires_completion(self, two_by_two):
        st_ = ScheduleState(two_by_two)
        st_.step(0)
        with pytest.raises(ValueError, match="incomplete"):
            st_.makespan()

    def test_replay_reproduces_schedule(self, ft06, rng):
        actions = []
        st_ = ScheduleState(ft06)
        while not st_.done:
            choice = int(rng.choice(available(st_)))
            actions.append(choice)
            st_.step(choice)
        again = replay(ft06, actions)
        np.testing.assert_array_equal(st_.start, again.start)
        np.testing.assert_array_equal(st_.end, again.end)


class TestStateFeatures:
    def test_reset_candidate_lookahead(self, two_by_two):
        st_ = ScheduleState(two_by_two)
        # choosing J1O1: in the successor, machine 0 carries 3+4 remaining
        own, best = reference_bounds(st_, 0)
        assert own == 7.0
        assert best >= own
        # J2O1's own term is max(machine 1: 4, job 2: 6) = 6; both best terms are 7
        feats = OneRow(two_by_two).features()  # slots 0 and 1: jobs 0 and 1, ops 0 and 2
        assert feats[0, 2] == 1.0 and feats[1, 2] == 6 / 7
        assert feats[0, 3] == 1.0 and feats[1, 3] == 1.0

    def test_rows_are_the_available_ops(self, two_by_two):
        """One slot per job, holding its available op's row, zero once the
        job is finished; a complete schedule has no features."""
        row = OneRow(two_by_two)
        for u in (0, 2, 3, 1):  # job 1 finishes first, and slot 1 empties
            np.testing.assert_array_equal(row.features(), row.expected())  # shapes too
            row.step(u)
        with pytest.raises(ValueError, match="complete"):
            row.features()
        assert reference_state_features(row.st).shape == (0, 6)

    def test_final_step_normalization(self, two_by_two):
        feats = OneRow(two_by_two, [0, 2, 3]).features()  # op 1 alone is available
        assert feats[0, 0] == 1.0 and feats[0, 1] == 1.0
        assert not feats[1].any()  # job 1 is finished

    def test_terminal_op_zeroing(self, two_by_two):
        inst = Instance(n=1, m=1, ops=(((0, 5),),))
        own, best = reference_bounds(ScheduleState(inst), 0)
        assert own == 0.0 and best == 0.0
        assert np.all(OneRow(inst).features()[0, 2:4] == 0.0)
        # both candidates end their jobs, so every lookahead term is zero
        feats = OneRow(two_by_two, [0, 2]).features()
        assert np.all(feats[:, 2:4] == 0.0)

    def test_progress_features(self, two_by_two):
        feats = OneRow(two_by_two).features()
        # one op completed in the successor state, m = 2
        for slot in (0, 1):
            assert feats[slot, 4] == pytest.approx(0.5)
            assert feats[slot, 5] == pytest.approx(0.25)

    def test_feature_range(self, ft06, rng):
        row = OneRow(ft06)
        while not row.st.done:
            feats = row.features()
            assert np.all(feats >= 0.0) and np.all(feats <= 1.0)
            row.step(int(rng.choice(available(row.st))))

    def test_best_bound_dominates_candidate(self, rng):
        cfg = GenConfig(m_lo=2, m_hi=4, n_hi=4)
        for _ in range(20):
            inst = generate_random(cfg, rng)
            row = OneRow(inst)
            while not row.st.done:
                for u in available(row.st):
                    own, best = reference_bounds(row.st, u)
                    assert best >= own
                assert row.features().tobytes() == row.expected().tobytes()
                row.step(int(rng.choice(available(row.st))))


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
    st_ = ScheduleState(inst)
    steps = 0
    while not st_.done:
        avail = available(st_)
        machine_before, job_before, _ = ready(st_)
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
    divided by their max over the available ops, in job slots, at every
    state of a random rollout."""
    rng = np.random.default_rng(seed)
    inst = generate_random(GenConfig(m_lo=1, m_hi=4, n_hi=5), rng)
    row = OneRow(inst)
    while not row.st.done:
        avail = available(row.st)
        raw = np.array([reference_bounds(row.st, u) for u in avail])
        top = raw.max(axis=0)
        expected = raw / np.where(top > 0, top, 1.0)
        np.testing.assert_array_equal(row.features()[:, 2:4], job_slots(row.st, expected))
        row.step(int(rng.choice(avail)))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 7), m=st.integers(1, 6), seed=st.integers(0, 10_000),
       job_first=st.booleans())
@example(n=1, m=1, seed=0, job_first=False)
@example(n=1, m=4, seed=1, job_first=False)
@example(n=3, m=3, seed=2, job_first=True)  # the last 3 states have one available op
def test_state_features_match_clone_and_step_reference(n, m, seed, job_first):
    """All six columns of state_features equal the clone-and-step
    reference's available rows in job slots, and those of the per-state
    reference the batch tests compare with equal its available rows, byte
    for byte, at every state of a rollout (random, or job by job); the
    per-state reference ends at the complete schedule's (0, 6)."""
    inst = permutation_instance(n, m, seed)
    rng = np.random.default_rng(seed)
    row = OneRow(inst)
    while not row.st.done:
        expected = reference_features(row.st)[available(row.st)]
        assert row.features().tobytes() == job_slots(row.st, expected).tobytes()
        assert reference_state_features(row.st).tobytes() == expected.tobytes()
        avail = available(row.st)
        row.step(avail[0] if job_first else int(rng.choice(avail)))
    assert reference_state_features(row.st).shape == (0, 6)


BATCH_ARRAYS = ("machine_ready", "job_ready", "next_op", "start", "end", "machine_remaining",
                "job_remaining", "t", "furthest")


def assert_same_state(got, want) -> None:
    """Same instance, start and end times: the times fix the rest."""
    assert got.inst is want.inst
    for name in ("start", "end"):
        got_a, want_a = getattr(got, name), getattr(want, name)
        assert got_a.dtype == want_a.dtype, name
        np.testing.assert_array_equal(got_a, want_a, err_msg=name)


def assert_row_holds(batch: BatchState, e: int, st_) -> None:
    """Row e of the batch holds st_'s schedule: its start and end times, and
    the ready times, next ops and step count read off them; its
    remaining-work rows equal the instance's totals minus st_'s scheduled
    work, and its padded op rows read as scheduled (a start other than
    UNSET)."""
    inst = st_.inst
    n, m, size = inst.n, inst.m, inst.num_ops
    np.testing.assert_array_equal(batch.start[e, :size], st_.start)
    np.testing.assert_array_equal(batch.end[e, :size], st_.end)
    machine_ready, job_ready, next_op = ready(st_)
    np.testing.assert_array_equal(batch.machine_ready[e, :m], machine_ready)
    np.testing.assert_array_equal(batch.job_ready[e, :n], job_ready)
    np.testing.assert_array_equal(batch.next_op[e, :n], next_op)
    assert batch.t[e] == step_count(st_)
    machine_remaining, job_remaining = remaining(st_)
    np.testing.assert_array_equal(batch.machine_remaining[e, :m], machine_remaining)
    np.testing.assert_array_equal(batch.job_remaining[e, :n], job_remaining)
    assert (batch.start[e, size:] != UNSET).all()


ONE_BY_ONE = Instance(n=1, m=1, ops=(((0, 5),),))
ONE_BY_FOUR = Instance(n=1, m=4, ops=(((2, 1), (0, 7), (3, 7), (1, 2)),))
FOUR_BY_ONE = Instance(n=4, m=1, ops=(((0, 3),), ((0, 1),), ((0, 4),), ((0, 1),)))


@settings(max_examples=100, deadline=None)
@given(insts=instance_batches(), seed=st.integers(0, 10_000), by_index=st.booleans())
@example(insts=[ONE_BY_ONE], seed=0, by_index=False)
@example(insts=[ONE_BY_FOUR, ONE_BY_ONE, FOUR_BY_ONE], seed=1, by_index=False)
@example(insts=[FOUR_BY_ONE, permutation_instance(7, 6, 3), ONE_BY_FOUR], seed=2, by_index=True)
def test_batch_state_matches_schedule_states(insts, seed, by_index):
    """One BatchState of mixed-size instances, its unfinished rows stepped
    together, against one ScheduleState per instance stepped alone with the
    same random actions.  At every step: each row's features equal the
    per-state reference's, in job slots, byte for byte, its slot map holds
    each unfinished job's next op at the job's slot, its attend mask (start
    == UNSET) marks its unscheduled ops only, and after the step every
    state array and the step count agree, and the row's remaining work is
    its totals minus its scheduled work.  Rows leave as their schedules
    complete; until the first does, the batch is addressed by a slice
    unless `by_index`.  Each complete row's `schedule` equals its
    ScheduleState field by field."""
    rng = np.random.default_rng(seed)
    batch = BatchState(insts)
    states = [ScheduleState(inst) for inst in insts]
    for _ in range(max(inst.num_ops for inst in insts)):
        active = np.flatnonzero([not st_.done for st_ in states])
        episodes = active if by_index or active.size < len(insts) else slice(None)
        feats, ops = state_features(batch, episodes)
        avails = [available(states[e]) for e in active]
        slots = batch.n.max()
        assert feats.shape == (active.size, slots, 6) and ops.shape == (active.size, slots)
        for i, e in enumerate(active):
            st_ = states[e]
            n = st_.inst.n
            expected = job_slots(st_, reference_state_features(st_))
            assert feats[i, :n].tobytes() == expected.tobytes()
            assert not feats[i, n:].any()
            assert ops[i].tolist() == slot_ops(st_).tolist() + [UNSET] * (slots - n)
            attend = batch.start[e] == UNSET
            assert attend[:st_.inst.num_ops].tolist() == (st_.start == UNSET).tolist()
            assert not attend[st_.inst.num_ops:].any()
        actions = np.array([int(rng.choice(avail)) for avail in avails])
        batch.step(episodes, actions)
        for e, u in zip(active, actions.tolist()):
            states[e].step(u)
            assert_row_holds(batch, e, states[e])
    for e, st_ in enumerate(states):
        assert st_.done
        assert_same_state(batch.schedule(e), st_)
        assert batch.schedule(e).makespan() == st_.makespan()


@settings(max_examples=60, deadline=None)
@given(insts=instance_batches(), seed=st.integers(0, 10_000))
@example(insts=[ONE_BY_FOUR, ONE_BY_ONE, FOUR_BY_ONE], seed=1)
@example(insts=[permutation_instance(2, 5, 0), ONE_BY_ONE], seed=2)  # n < m
def test_slot_j_holds_job_j(insts, seed):
    """At every step of a random lockstep rollout, slot j of an unfinished
    row holds op j * m + k while job j's next op is k < m, and op -1, with
    zero features, once job j is finished or when the row has no job j."""
    rng = np.random.default_rng(seed)
    batch = BatchState(insts)
    states = [ScheduleState(inst) for inst in insts]
    while not all(st_.done for st_ in states):
        active = np.flatnonzero([not st_.done for st_ in states])
        feats, ops = state_features(batch, active)
        for i, e in enumerate(active):
            inst, next_op = insts[e], ready(states[e])[2]
            for j in range(batch.n.max()):
                if j < inst.n and next_op[j] < inst.m:
                    assert ops[i, j] == j * inst.m + next_op[j]
                else:
                    assert ops[i, j] == UNSET and not feats[i, j].any()
        actions = np.array([int(rng.choice(available(states[e]))) for e in active])
        batch.step(active, actions)
        for e, u in zip(active, actions.tolist()):
            states[e].step(u)


class TestBatchState:
    def test_unavailable_actions_rejected(self, two_by_two):
        """An op that is not its job's next, a negative op row and the
        padded op rows of the smaller instance are all rejected, and a
        rejected step changes nothing."""
        batch = BatchState([two_by_two, ONE_BY_ONE])  # op rows 1-3 of row 1 are padding
        before = {name: getattr(batch, name).copy() for name in BATCH_ARRAYS}
        for actions in ([1, 0], [0, -1], [4, 0], [0, 1], [0, 3]):
            with pytest.raises(ActionError):
                batch.step(slice(None), np.array(actions))
        for name in BATCH_ARRAYS:
            np.testing.assert_array_equal(getattr(batch, name), before[name], err_msg=name)
        batch.step(np.array([1]), np.array([0]))  # row 1 alone
        assert batch.t.tolist() == [1, 2]

    def test_schedule_of_unfinished_row_rejected(self, two_by_two):
        """`schedule` builds complete rows only: a fresh row and a row one
        op short raise, and the complete row beside them does not."""
        batch = BatchState([two_by_two, ONE_BY_ONE])
        with pytest.raises(ValueError, match="incomplete"):
            batch.schedule(0)
        batch.step(slice(None), np.array([0, 0]))
        assert batch.schedule(1).makespan() == 5
        batch.step(np.array([0]), np.array([2]))
        batch.step(np.array([0]), np.array([3]))
        with pytest.raises(ValueError, match="incomplete"):
            batch.schedule(0)
        batch.step(np.array([0]), np.array([1]))
        assert_same_state(batch.schedule(0), replay(two_by_two, [0, 2, 3, 1]))

    def test_complete_row_has_no_features(self):
        batch = BatchState([ONE_BY_ONE, ONE_BY_FOUR])
        batch.step(slice(None), np.array([0, 0]))
        with pytest.raises(ValueError, match="complete"):
            state_features(batch, slice(None))
        feats, ops = state_features(batch, np.array([1]))
        assert ops.tolist() == [[1]] and feats.shape == (1, 1, 6)


@settings(max_examples=40, deadline=None)
@given(inst=instances(), seed=st.integers(0, 10_000))
@example(inst=permutation_instance(2, 5, 0), seed=0)  # n < m
@example(inst=ONE_BY_FOUR, seed=1)
@example(inst=FOUR_BY_ONE, seed=2)
def test_step_matches_scalar_placement(inst, seed):
    """At every state of a random rollout, `step` accepts op u, for every u
    in [-1, n*m], exactly when a scalar reference that keeps its own ready
    lists has u available; an accepted step (on a copy) places u alone, at
    the reference's start, and a rejected one changes nothing.  A complete
    schedule from `rules.dispatch` rejects every u."""
    n, m = inst.n, inst.m
    machine_ready, job_ready, next_op = [0] * m, [0] * n, [0] * n
    rng = np.random.default_rng(seed)
    st_ = ScheduleState(inst)
    for _ in range(inst.num_ops):
        avail = [j * m + next_op[j] for j in range(n) if next_op[j] < m]
        before = ScheduleState(inst, st_.start, st_.end)
        for u in range(-1, n * m + 1):
            if u in avail:
                trial = ScheduleState(inst, st_.start, st_.end)
                trial.step(u)
                j, k = divmod(u, m)
                i, p = inst.ops[j][k]
                assert np.flatnonzero(trial.start != st_.start).tolist() == [u]
                assert trial.start[u] == max(machine_ready[i], job_ready[j])
                assert trial.end[u] == trial.start[u] + p
            else:
                with pytest.raises(ActionError):
                    st_.step(u)
        assert_same_state(st_, before)
        u = int(rng.choice(avail))
        j = u // m
        i, p = inst.ops[j][next_op[j]]
        machine_ready[i] = job_ready[j] = max(machine_ready[i], job_ready[j]) + p
        next_op[j] += 1
        st_.step(u)
    assert st_.done
    complete, _ = dispatch(inst, Rule.SPT)
    for u in range(-1, n * m + 1):
        with pytest.raises(ActionError):
            complete.step(u)
