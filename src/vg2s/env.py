"""Constructive semi-active scheduling environment.

A schedule is built one operation at a time; the action set at every step is
the next unscheduled operation of each unfinished job.  Placement is
semi-active: an op starts at max(machine ready, job ready), so no machine
idles while work it could start is waiting.
"""

from __future__ import annotations

import numpy as np

from .instance import Instance

UNSET = -1


class ActionError(ValueError):
    """Raised when a step names an operation that is not currently available."""


class ScheduleState:
    """Mutable partial schedule for one instance.

    Arrays are indexed by op node u = j*m + k.  `t` counts decision steps
    starting at 1; exactly t-1 ops are scheduled at step t.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        n, m = inst.n, inst.m
        self.machine_ready = np.zeros(m, dtype=np.int64)
        self.job_ready = np.zeros(n, dtype=np.int64)
        self.next_op = np.zeros(n, dtype=np.int64)
        self.scheduled = np.zeros(n * m, dtype=bool)
        self.start = np.full(n * m, UNSET, dtype=np.int64)
        self.end = np.full(n * m, UNSET, dtype=np.int64)
        self.t = 1
        # remaining unscheduled work per machine / per job
        self.machine_remaining = np.array(inst.machine_totals, dtype=np.int64)
        self.job_remaining = np.array(inst.job_totals, dtype=np.int64)

    @property
    def done(self) -> bool:
        return bool(self.scheduled.all())

    def available(self) -> list[int]:
        """Op nodes selectable now: the next op of every unfinished job."""
        jobs = np.flatnonzero(self.next_op < self.inst.m)
        return (jobs * self.inst.m + self.next_op[jobs]).tolist()

    def step(self, u: int) -> None:
        """Schedule op u semi-actively; rejects unavailable actions."""
        j, k = divmod(u, self.inst.m)
        if not (0 <= j < self.inst.n and self.next_op[j] == k):
            raise ActionError(f"operation {u} is not available at step {self.t}")
        # scalar reads from the tuples: cheaper than numpy scalar indexing
        i, p = self.inst.ops[j][k]
        start = max(int(self.machine_ready[i]), int(self.job_ready[j]))
        self.start[u] = start
        self.end[u] = start + p
        self.machine_ready[i] = start + p
        self.job_ready[j] = start + p
        self.machine_remaining[i] -= p
        self.job_remaining[j] -= p
        self.scheduled[u] = True
        self.next_op[j] += 1
        self.t += 1

    def makespan(self) -> int:
        if not self.done:
            raise ValueError("schedule incomplete: makespan undefined")
        return int(self.end.max())


def reset(inst: Instance) -> ScheduleState:
    return ScheduleState(inst)


def replay(inst: Instance, actions) -> ScheduleState:
    st = ScheduleState(inst)
    for a in actions:
        st.step(a)
    return st


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
    jobs = np.flatnonzero(st.next_op < m)
    if jobs.size == 0:
        return np.zeros((0, 6))
    ks = st.next_op[jobs]
    mach, p = inst.machines[jobs, ks], inst.durations[jobs, ks]
    # machine of the job's op k+1 (for a terminal op, its own machine: a
    # placeholder masked below)
    follow_mach = inst.machines[jobs, np.minimum(ks + 1, m - 1)]
    est = np.maximum(st.machine_ready[mach], st.job_ready[jobs])
    machine_load = st.machine_ready + st.machine_remaining
    job_load = st.job_ready[jobs] + st.job_remaining[jobs]
    terminal = ks == m - 1
    own = np.where(terminal, 0, est + np.maximum(st.machine_remaining[mach],
                                                 st.job_remaining[jobs]))
    # others[a, v]: term of job v's next op once candidate a is scheduled;
    # only ops sharing a's machine see the moved machine ready time
    moved = (est + st.machine_remaining[mach])[:, None]
    others_machine = np.where(mach[:, None] == mach[None, :], moved,
                              machine_load[mach][None, :])
    others = np.where(terminal[None, :], 0, np.maximum(others_machine, job_load[None, :]))
    np.fill_diagonal(others, 0)
    # job j's op k+1 runs on another machine (machine orders are permutations)
    follow = np.where(ks + 1 >= m - 1, 0, np.maximum(machine_load[follow_mach],
                                                     est + st.job_remaining[jobs]))
    best = np.maximum(np.maximum(own, follow), others.max(axis=1))

    feats = np.empty((jobs.size, 6), dtype=np.float64)
    feats[:, 0] = est
    feats[:, 1] = est + p
    feats[:, 2] = own
    feats[:, 3] = best
    feats[:, 4] = np.maximum(st.next_op.max(), ks + 1) / m
    feats[:, 5] = (st.next_op.sum() + 1) / n / m
    top = feats[:, :4].max(axis=0)
    feats[:, :4] /= np.where(top > 0, top, 1.0)
    return feats


def schedule_records(st: ScheduleState) -> list[dict]:
    """JSON-friendly rows {job, op, machine, start, end} sorted by start."""
    m = st.inst.m
    machines = st.inst.machines.ravel()
    rows = [
        {
            "job": u // m,
            "op": u % m,
            "machine": int(machines[u]),
            "start": int(st.start[u]),
            "end": int(st.end[u]),
        }
        for u in np.flatnonzero(st.start != UNSET).tolist()
    ]
    rows.sort(key=lambda r: (r["start"], r["machine"], r["job"]))
    return rows
