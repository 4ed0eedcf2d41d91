"""Constructive semi-active scheduling environment.

A schedule is built one operation at a time; the action set at every step is
the next unscheduled operation of each unfinished job.  Placement is
semi-active: an op starts at max(machine ready, job ready), so no machine
idles while work it could start is waiting.  `BatchState` holds a batch
of partial schedules as one padded state, which a lockstep rollout steps,
and reads features off, in one array pass per step.  `ScheduleState` is one
instance's schedule, its start and end times alone: `replay` steps it op by
op, reading each op's readiness off the times already placed.
"""

from __future__ import annotations

import numpy as np

from .instance import Instance

UNSET = -1


class ActionError(ValueError):
    """Raised when a step names an operation that is not currently available."""


class ScheduleState:
    """Schedule of one instance: copies of the op start and end times (op
    node u = j*m + k), UNSET until scheduled and all UNSET when none are
    given.  They fix the rest: an unscheduled op is available once its job
    predecessor, if any, is scheduled, and starts at the later of that
    predecessor's end and its machine's latest end."""

    def __init__(self, inst: Instance, start=None, end=None):
        self.inst = inst
        unset = np.full(inst.num_ops, UNSET, dtype=np.int64)
        self.start = unset.copy() if start is None else np.array(start, dtype=np.int64)
        self.end = unset if end is None else np.array(end, dtype=np.int64)

    @property
    def done(self) -> bool:
        return bool((self.start != UNSET).all())

    def step(self, u: int) -> None:
        """Schedule op u semi-actively; rejects unavailable actions."""
        inst, start, end = self.inst, self.start, self.end
        j, k = divmod(u, inst.m)
        if not (0 <= j < inst.n and start[u] == UNSET and (k == 0 or start[u - 1] != UNSET)):
            raise ActionError(f"operation {u} is not available at step "
                              f"{np.count_nonzero(start != UNSET) + 1}")
        i, p = inst.ops[j][k]
        # the latest end on machine i (an unscheduled op's, UNSET, is below
        # 0) and the job predecessor's end
        start[u] = max(int(end.max(where=inst.machines.ravel() == i, initial=0)),
                       int(end[u - 1]) if k else 0)
        end[u] = start[u] + p

    def makespan(self) -> int:
        if not self.done:
            raise ValueError("schedule incomplete: makespan undefined")
        return int(self.end.max())


def replay(inst: Instance, actions) -> ScheduleState:
    st = ScheduleState(inst)
    for a in actions:
        st.step(a)
    return st


class BatchState:
    """Padded partial schedules of a batch of instances, one row each, all
    stepped in one array pass.

    Jobs are padded to the largest n (`next_op`, `job_ready`,
    `job_remaining`, `job_first`), machines to the largest m
    (`machine_ready`, `machine_remaining`) and op rows to the largest n*m
    (`start`, `end`).  A padded job is never live: its next_op is already
    its row's m.  A padded op row starts at 0, so it reads as scheduled.
    `t` counts each row's decision steps from 1 (so t-1 ops are
    scheduled), and `furthest` holds its largest next_op.

    Each array also has a flat view, and the instances' tables are
    flattened once at construction over the flat op index
    e * N + j * m_e + k: `durations`, and `machines` as flat machine
    indices e * m_max + i.  `job_first` holds each job's first flat op
    index; a padded job's is 0, so its op reads, like a finished job's,
    stay in bounds.
    """

    def __init__(self, insts: list[Instance]):
        self.insts = list(insts)
        count = len(insts)
        self.n = np.array([inst.n for inst in insts])
        self.m = np.array([inst.m for inst in insts])
        self.sizes = self.n * self.m
        n_max, m_max, width = int(self.n.max()), int(self.m.max()), int(self.sizes.max())
        self.rows = np.arange(count)
        self.op_offset = self.rows * width
        self.job_offset = self.rows * n_max
        # a finished job's next op (one past its last), and the op after
        # it, may read the two entries after the tables' end
        self.machines = np.zeros(count * width + 2, dtype=np.int64)
        self.durations = np.zeros(count * width + 2, dtype=np.int64)
        self.job_first = np.zeros((count, n_max), dtype=np.int64)
        self.next_op = np.repeat(self.m[:, None], n_max, axis=1)
        self.job_ready = np.zeros((count, n_max), dtype=np.int64)
        self.job_remaining = np.zeros((count, n_max), dtype=np.int64)
        self.machine_ready = np.zeros((count, m_max), dtype=np.int64)
        self.machine_remaining = np.zeros((count, m_max), dtype=np.int64)
        self.start = np.zeros((count, width), dtype=np.int64)
        self.end = np.full((count, width), UNSET, dtype=np.int64)
        self.t = np.ones(count, dtype=np.int64)
        self.furthest = np.zeros(count, dtype=np.int64)
        for e, inst in enumerate(insts):
            ops = slice(e * width, e * width + inst.num_ops)
            self.machines[ops] = e * m_max + inst.machines.ravel()
            self.durations[ops] = inst.durations.ravel()
            self.job_first[e, :inst.n] = e * width + np.arange(inst.n) * inst.m
            self.next_op[e, :inst.n] = 0
            self.job_remaining[e, :inst.n] = inst.job_totals
            self.machine_remaining[e, :inst.m] = inst.machine_totals
            self.start[e, :inst.num_ops] = UNSET
        self._flat = {name: getattr(self, name).reshape(-1)
                      for name in ("next_op", "job_ready", "job_remaining", "machine_ready",
                                   "machine_remaining", "start", "end")}

    def step(self, episodes, actions: np.ndarray) -> None:
        """Schedule op actions[i] of row episodes[i] semi-actively, for every
        i at once; `episodes` is an index array or a slice of the rows.
        Rejects unavailable actions."""
        flat = self._flat
        rows = self.rows[episodes]
        if not ((actions >= 0) & (actions < self.sizes[rows])).all():
            raise ActionError(f"operations {actions.tolist()} are not all op rows")
        jobs, ks = np.divmod(actions, self.m[rows])
        job = self.job_offset[rows] + jobs
        if (flat["next_op"][job] != ks).any():
            raise ActionError(f"operations {actions.tolist()} are not all available "
                              f"at steps {self.t[rows].tolist()}")
        op = self.op_offset[rows] + actions
        mach, p = self.machines[op], self.durations[op]
        start = np.maximum(flat["machine_ready"][mach], flat["job_ready"][job])
        end = start + p
        flat["start"][op] = start
        flat["end"][op] = end
        flat["machine_ready"][mach] = end
        flat["job_ready"][job] = end
        flat["machine_remaining"][mach] -= p
        flat["job_remaining"][job] -= p
        ks += 1
        flat["next_op"][job] = ks
        self.furthest[rows] = np.maximum(self.furthest[rows], ks)
        self.t[rows] += 1

    def schedule(self, e: int) -> ScheduleState:
        """Row e's complete schedule as a ScheduleState of its own instance."""
        inst = self.insts[e]
        if (self.next_op[e, :inst.n] < inst.m).any():
            raise ValueError(f"row {e}'s schedule is incomplete")
        return ScheduleState(inst, self.start[e, :inst.num_ops], self.end[e, :inst.num_ops])


def state_features(batch: BatchState, episodes) -> tuple[np.ndarray, np.ndarray]:
    """Dynamic features of the available ops of the unfinished rows
    `episodes` (an index array or a slice) of a batch.

    Returns (feats (b, n_max, 6), ops (b, n_max)), one slot per job: slot j
    of row i holds job j's next op (the slot layout decode_step reads), and
    `ops` maps each slot to its op row.  The slot of a finished or padded
    job is empty: zero features and op -1.

    For each available op: earliest start and finish, the two lookahead
    lower-bound terms evaluated in the successor state (the candidate's own
    term, zeroed for a job's terminal op, and the max over the successor's
    available set), and the max/mean per-job completed-op counts of the
    successor state.  Features 1-4 are divided by their max over the row's
    available ops; 5-6 by m.

    An op's lower-bound term is max(machine ready + machine remaining, job
    ready + job remaining), zero for a job's terminal op.  Choosing op
    (j, k) on machine i at its earliest start est changes only machine i
    and job j, so every successor term is closed-form in the current state.
    The max over the successor's available set is then the max of three:
    the candidate's own term; the largest current term of any available
    op, which never exceeds that op's own term; and est + machine i's
    remaining work, when an available non-terminal op runs on machine i.
    So a row needs one max over its jobs, and every feature is one array
    pass over the rows' job arrays.
    """
    flat = batch._flat
    nxt, m = batch.next_op[episodes], batch.m[episodes, None]
    empty = nxt >= m  # a finished or padded job
    if empty.all(axis=1).any():
        raise ValueError("state_features of a complete schedule")
    open_ = nxt < m - 1  # live and not the job's terminal op
    op = batch.job_first[episodes] + nxt
    # machine and duration of each job's next op, and the machine of the op
    # after it (for a terminal op or an empty slot, a placeholder masked
    # below)
    mach, p, follow_mach = batch.machines[op], batch.durations[op], batch.machines[op + 1]
    machine_load = flat["machine_ready"] + flat["machine_remaining"]
    job_ready, job_remaining = batch.job_ready[episodes], batch.job_remaining[episodes]
    machine_remaining = flat["machine_remaining"][mach]
    est = np.maximum(flat["machine_ready"][mach], job_ready)
    own = (est + np.maximum(machine_remaining, job_remaining)) * open_
    current = np.maximum(machine_load[mach], job_ready + job_remaining) * open_
    shares = np.zeros(machine_load.shape, dtype=bool)
    shares[mach[open_]] = True
    # job j's op k+1 runs on another machine (machine orders are permutations)
    follow = np.maximum(machine_load[follow_mach], est + job_remaining) * (nxt < m - 2)
    best = np.maximum(np.maximum(own, follow),
                      np.maximum(current.max(axis=1, keepdims=True),
                                 (est + machine_remaining) * shares[mach]))

    bounds = np.empty(nxt.shape + (4,), dtype=np.int64)
    bounds[..., 0] = est
    bounds[..., 1] = est + p
    bounds[..., 2] = own
    bounds[..., 3] = best
    bounds[empty] = 0
    feats = np.empty(nxt.shape + (6,), dtype=np.float64)
    feats[..., :4] = bounds / np.maximum(bounds.max(axis=1, keepdims=True), 1)
    feats[..., 4] = np.maximum(batch.furthest[episodes, None], nxt + 1) / m
    feats[..., 5] = (batch.t[episodes] / batch.n[episodes])[:, None] / m
    feats[empty, 4:] = 0.0
    return feats, np.where(empty, UNSET, op - batch.op_offset[episodes, None])


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
