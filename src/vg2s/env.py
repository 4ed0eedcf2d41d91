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
        self.machine_remaining = np.array(
            [inst.machine_total(i) for i in range(m)], dtype=np.int64
        )
        self.job_remaining = np.array(
            [inst.job_total(j) for j in range(n)], dtype=np.int64
        )

    def copy(self) -> "ScheduleState":
        clone = object.__new__(ScheduleState)
        clone.inst = self.inst
        for name in (
            "machine_ready", "job_ready", "next_op", "scheduled",
            "start", "end", "machine_remaining", "job_remaining",
        ):
            setattr(clone, name, getattr(self, name).copy())
        clone.t = self.t
        return clone

    @property
    def done(self) -> bool:
        return bool(self.scheduled.all())

    def available(self) -> list[int]:
        """Op nodes selectable now: the next op of every unfinished job."""
        m = self.inst.m
        return [
            j * m + int(self.next_op[j])
            for j in range(self.inst.n)
            if self.next_op[j] < m
        ]

    def is_available(self, u: int) -> bool:
        j, k = divmod(u, self.inst.m)
        return 0 <= j < self.inst.n and self.next_op[j] == k

    def step(self, u: int) -> None:
        """Schedule op u semi-actively; rejects unavailable actions."""
        if not self.is_available(u):
            raise ActionError(f"operation {u} is not available at step {self.t}")
        j, k = divmod(u, self.inst.m)
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


def _lookahead(st: ScheduleState, u: int):
    """Successor state of choosing op u and the two lookahead lower-bound
    terms in it: u's own term, zero when u ends its job, and the max of
    that and the terms of the successor's available ops."""
    inst = st.inst
    m = inst.m
    j, k = divmod(u, m)
    i = inst.machine(j, k)
    nxt = st.copy()
    nxt.step(u)
    own = 0.0
    if k != m - 1:
        own = max(
            nxt.machine_ready[i] + nxt.machine_remaining[i],
            nxt.job_ready[j] + nxt.job_remaining[j],
        )
    best = own
    for v in nxt.available():
        jj, kk = divmod(v, m)
        if kk == m - 1:
            continue  # terminal op of its job: term defined as zero
        ii = inst.machine(jj, kk)
        term = max(
            nxt.machine_ready[ii] + nxt.machine_remaining[ii],
            nxt.job_ready[jj] + nxt.job_remaining[jj],
        )
        best = max(best, term)
    return nxt, own, best


def state_features(st: ScheduleState) -> np.ndarray:
    """Dynamic per-op feature matrix (n*m x 6), rows zero for ops outside
    the available set.

    For each available op: earliest start and finish, the two lookahead
    lower-bound terms evaluated in the successor state (the candidate's own
    term, zeroed for a job's terminal op, and the max over the successor's
    available set), and the max/mean per-job completed-op counts of the
    successor state.  Features 1-4 are divided by their max over available
    ops; 5-6 by m.
    """
    inst = st.inst
    n, m = inst.n, inst.m
    feats = np.zeros((n * m, 6), dtype=np.float64)
    avail = st.available()
    if not avail:
        return feats

    raw = np.zeros((len(avail), 6), dtype=np.float64)
    for idx, u in enumerate(avail):
        j, k = divmod(u, m)
        i, p = inst.ops[j][k]
        est = max(int(st.machine_ready[i]), int(st.job_ready[j]))
        raw[idx, 0] = est
        raw[idx, 1] = est + p
        nxt, raw[idx, 2], raw[idx, 3] = _lookahead(st, u)

        completed = nxt.next_op.astype(np.float64)
        raw[idx, 4] = completed.max() / m
        raw[idx, 5] = completed.mean() / m

    for col in range(4):
        top = raw[:, col].max()
        if top > 0:
            raw[:, col] /= top
    for idx, u in enumerate(avail):
        feats[u] = raw[idx]
    return feats


def raw_lookahead_bounds(st: ScheduleState, u: int) -> tuple[float, float]:
    """Unnormalized candidate/best lower-bound terms for op u (test hook)."""
    _, own, best = _lookahead(st, u)
    return float(own), float(best)


def schedule_records(st: ScheduleState) -> list[dict]:
    """JSON-friendly rows {job, op, machine, start, end} sorted by start."""
    inst = st.inst
    rows = []
    for u in range(inst.num_ops):
        if st.start[u] == UNSET:
            continue
        j, k = divmod(u, inst.m)
        rows.append(
            {
                "job": j,
                "op": k,
                "machine": inst.machine(j, k),
                "start": int(st.start[u]),
                "end": int(st.end[u]),
            }
        )
    rows.sort(key=lambda r: (r["start"], r["machine"], r["job"]))
    return rows
