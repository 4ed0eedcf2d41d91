"""Priority dispatching rule baselines and the scalar evaluation metrics."""

from __future__ import annotations

from enum import Enum
from heapq import heapify, heappop, heappush

from .env import ScheduleState
from .instance import Instance


class Rule(str, Enum):
    FIFO = "fifo"   # earliest job-ready time
    SPT = "spt"     # shortest processing time
    LPT = "lpt"     # longest processing time
    SRM = "srm"     # shortest remaining work on the op's machine
    SRPT = "srpt"   # shortest remaining work of the op's job
    MWKR = "mwkr"   # most work remaining for the op's job


def _run(inst: Instance, rule: Rule) -> tuple[list[int], ...]:
    """Run the rule non-delay style: each decision takes, among the next ops
    of the unfinished jobs, the lowest key (earliest start, the rule's
    priority, job); the priority is lower-is-better, so argmax rules negate
    their score.

    The keys sit on a heap.  Placing job j's op on machine i moves only
    machine i's ready time and remaining work and job j's ready time and
    remaining work, so only job j and the jobs whose next op waits on
    machine i get new keys; a superseded entry is skipped when popped, by
    its job's stamp.  Returns the decisions in order, each op's start and
    end, and the final machine ready, machine remaining, job ready and job
    remaining lists.
    """
    n, m, ops = inst.n, inst.m, inst.ops
    machine_ready, job_ready = [0] * m, [0] * n
    machine_remaining, job_remaining = list(inst.machine_totals), list(inst.job_totals)
    priorities = {
        Rule.FIFO: lambda j, i, p: job_ready[j],
        Rule.SPT: lambda j, i, p: p,
        Rule.LPT: lambda j, i, p: -p,
        Rule.SRM: lambda j, i, p: machine_remaining[i],
        Rule.SRPT: lambda j, i, p: job_remaining[j],
        Rule.MWKR: lambda j, i, p: -job_remaining[j],
    }
    if rule not in priorities:
        raise ValueError(f"unknown rule {rule!r}")
    priority = priorities[rule]
    next_op, stamp = [0] * n, [0] * n
    waiting = [[] for _ in range(m)]  # jobs whose next op runs on machine i
    heap = []
    for j in range(n):
        i, p = ops[j][0]
        waiting[i].append(j)
        heap.append((0, priority(j, i, p), j, 0))
    heapify(heap)
    order, start, end = [], [0] * (n * m), [0] * (n * m)
    for _ in range(n * m):
        est, _, j, s = heappop(heap)
        while s != stamp[j]:
            est, _, j, s = heappop(heap)
        k = next_op[j]
        i, p = ops[j][k]
        u = j * m + k
        order.append(u)
        start[u] = est
        end[u] = done = est + p
        machine_ready[i] = job_ready[j] = done
        machine_remaining[i] -= p
        job_remaining[j] -= p
        next_op[j] = k + 1
        queue = waiting[i]
        queue.remove(j)
        for w in queue:
            r = job_ready[w]
            stamp[w] += 1
            heappush(heap, (done if done > r else r, priority(w, i, ops[w][next_op[w]][1]),
                            w, stamp[w]))
        if k + 1 < m:
            i, p = ops[j][k + 1]
            waiting[i].append(j)
            a = machine_ready[i]
            stamp[j] += 1
            heappush(heap, (a if a > done else done, priority(j, i, p), j, stamp[j]))
    return order, start, end, machine_ready, machine_remaining, job_ready, job_remaining


def decisions(inst: Instance, rule: Rule) -> list[int]:
    """The op nodes the rule schedules, in decision order."""
    return _run(inst, rule)[0]


def dispatch(inst: Instance, rule: Rule) -> tuple[ScheduleState, int]:
    """Run the rule to completion; returns the schedule and its makespan."""
    order, start, end, machine_ready, machine_remaining, job_ready, job_remaining = \
        _run(inst, rule)
    st = ScheduleState(inst)
    st.start[:] = start
    st.end[:] = end
    st.machine_ready[:] = machine_ready
    st.machine_remaining[:] = machine_remaining
    st.job_ready[:] = job_ready
    st.job_remaining[:] = job_remaining
    st.next_op[:] = inst.m
    st.scheduled[:] = True
    st.t += len(order)
    return st, max(machine_ready)


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
