"""Priority dispatching rule baselines and the scalar evaluation metrics."""

from __future__ import annotations

from enum import Enum

import numpy as np

from .env import ScheduleState, reset
from .instance import Instance


class Rule(str, Enum):
    FIFO = "fifo"   # earliest job-ready time
    SPT = "spt"     # shortest processing time
    LPT = "lpt"     # longest processing time
    SRM = "srm"     # shortest remaining work on the op's machine
    SRPT = "srpt"   # shortest remaining work of the op's job
    MWKR = "mwkr"   # most work remaining for the op's job


def select(rule: Rule, st: ScheduleState) -> int:
    """Pick the next op non-delay style: restrict to available ops with the
    minimal earliest start time, apply the rule's priority among those
    (lower is better; argmax rules negate their score), and break remaining
    ties by lowest job index."""
    inst = st.inst
    jobs = np.flatnonzero(st.next_op < inst.m)
    if jobs.size == 0:
        raise ValueError("no available operations")
    ks = st.next_op[jobs]
    mach = inst.machines[jobs, ks]
    est = np.maximum(st.machine_ready[mach], st.job_ready[jobs])
    if rule is Rule.FIFO:
        priority = st.job_ready[jobs]
    elif rule is Rule.SPT:
        priority = inst.durations[jobs, ks]
    elif rule is Rule.LPT:
        priority = -inst.durations[jobs, ks]
    elif rule is Rule.SRM:
        priority = st.machine_remaining[mach]
    elif rule is Rule.SRPT:
        priority = st.job_remaining[jobs]
    elif rule is Rule.MWKR:
        priority = -st.job_remaining[jobs]
    else:
        raise ValueError(f"unknown rule {rule!r}")
    best = np.lexsort((jobs, priority, est))[0]
    return int(jobs[best] * inst.m + ks[best])


def dispatch(inst: Instance, rule: Rule) -> tuple[ScheduleState, int]:
    """Run the rule to completion; returns the schedule and its makespan."""
    st = reset(inst)
    while not st.done:
        st.step(select(rule, st))
    return st, st.makespan()


def optimality_gap(c: float, ub: float) -> float:
    """Percentage deviation from the best-known makespan: 100*(c-ub)/ub."""
    if ub <= 0:
        raise ValueError(f"nonpositive best-known makespan {ub}")
    return 100.0 * (c - ub) / ub


def improvement_rate(c_base: float, c_prop: float) -> float:
    """100*(baseline - proposed)/baseline; negative when proposed is worse."""
    if c_base <= 0:
        raise ValueError(f"nonpositive baseline makespan {c_base}")
    return 100.0 * (c_base - c_prop) / c_base
