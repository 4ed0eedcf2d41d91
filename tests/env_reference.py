"""Per-state references over one ScheduleState stepped op by op, all read
off its start and end times: its step count, ready times and available
ops, its remaining work, and `state_features`, for the differential tests
of `vg2s.env.state_features`, which computes the same features for every
unfinished row of a BatchState in one array pass.

This is the per-state form: the successor's max over its available set is
taken over an explicit (available x available) matrix of the other ops'
terms.
"""

from __future__ import annotations

import numpy as np

from vg2s.env import UNSET, ScheduleState


def step_count(st: ScheduleState) -> int:
    """The decision step, from 1: one more than the scheduled ops."""
    return int(np.count_nonzero(st.start != UNSET)) + 1


def _next_op(st: ScheduleState) -> np.ndarray:
    """Each job's next op: its count of scheduled ops."""
    return (st.start != UNSET).reshape(st.inst.n, st.inst.m).sum(axis=1)


def ready(st: ScheduleState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each machine's ready time, each job's ready time and each job's next
    op: the latest end on the machine and in the job (0 before any op)."""
    inst = st.inst
    machine_ready = np.zeros(inst.m, dtype=np.int64)
    np.maximum.at(machine_ready, inst.machines.ravel(), st.end)
    job_ready = np.maximum(st.end.reshape(inst.n, inst.m).max(axis=1), 0)
    return machine_ready, job_ready, _next_op(st)


def available(st: ScheduleState) -> list[int]:
    """Op nodes selectable now: the next op of every unfinished job."""
    next_op = _next_op(st)
    jobs = np.flatnonzero(next_op < st.inst.m)
    return (jobs * st.inst.m + next_op[jobs]).tolist()


def remaining(st: ScheduleState) -> tuple[np.ndarray, np.ndarray]:
    """Unscheduled work per machine and per job: the instance's totals
    minus the durations of the scheduled ops."""
    inst = st.inst
    done = np.where(st.start != UNSET, inst.durations.ravel(), 0)
    machine_done = np.zeros(inst.m, dtype=np.int64)
    np.add.at(machine_done, inst.machines.ravel(), done)
    return (np.array(inst.machine_totals) - machine_done,
            np.array(inst.job_totals) - done.reshape(inst.n, inst.m).sum(axis=1))


def state_features(st: ScheduleState) -> np.ndarray:
    """Dynamic features of the available ops, one row each in op order (the
    slot layout decode_step reads); (0, 6) once the schedule is complete.

    For each available op: earliest start and finish, the two lookahead
    lower-bound terms evaluated in the successor state (the candidate's own
    term, zeroed for a job's terminal op, and the max over the successor's
    available set), and the max/mean per-job completed-op counts of the
    successor state.  Features 1-4 are divided by their max over available
    ops; 5-6 by m.

    An op's lower-bound term is max(machine ready + machine remaining, job
    ready + job remaining), zero for a job's terminal op.  Choosing op
    (j, k) on machine i at its earliest start est changes only machine i
    and job j, so every successor term is closed-form in the current state.
    """
    inst = st.inst
    n, m = inst.n, inst.m
    machine_ready, job_ready, next_op = ready(st)
    jobs = np.flatnonzero(next_op < m)
    if jobs.size == 0:
        return np.zeros((0, 6))
    ks = next_op[jobs]
    mach, p = inst.machines[jobs, ks], inst.durations[jobs, ks]
    # machine of the job's op k+1 (for a terminal op, its own machine: a
    # placeholder masked below)
    follow_mach = inst.machines[jobs, np.minimum(ks + 1, m - 1)]
    machine_remaining, job_remaining = remaining(st)
    est = np.maximum(machine_ready[mach], job_ready[jobs])
    machine_load = machine_ready + machine_remaining
    job_load = job_ready[jobs] + job_remaining[jobs]
    terminal = ks == m - 1
    own = np.where(terminal, 0, est + np.maximum(machine_remaining[mach],
                                                 job_remaining[jobs]))
    # others[a, v]: term of job v's next op once candidate a is scheduled;
    # only ops sharing a's machine see the moved machine ready time
    moved = (est + machine_remaining[mach])[:, None]
    others_machine = np.where(mach[:, None] == mach[None, :], moved,
                              machine_load[mach][None, :])
    others = np.where(terminal[None, :], 0, np.maximum(others_machine, job_load[None, :]))
    np.fill_diagonal(others, 0)
    # job j's op k+1 runs on another machine (machine orders are permutations)
    follow = np.where(ks + 1 >= m - 1, 0, np.maximum(machine_load[follow_mach],
                                                     est + job_remaining[jobs]))
    best = np.maximum(np.maximum(own, follow), others.max(axis=1))

    feats = np.empty((jobs.size, 6), dtype=np.float64)
    feats[:, 0] = est
    feats[:, 1] = est + p
    feats[:, 2] = own
    feats[:, 3] = best
    feats[:, 4] = np.maximum(next_op.max(), ks + 1) / m
    feats[:, 5] = (next_op.sum() + 1) / n / m
    top = feats[:, :4].max(axis=0)
    feats[:, :4] /= np.where(top > 0, top, 1.0)
    return feats
