"""Exact makespan minimization for small instances.

A depth-first branch-and-bound whose bound is the max over machines of
(ready time + remaining work) and over unfinished jobs of (earliest start
of the next op, which also waits for that op's machine, + remaining work),
carried down the DFS in O(1) per child.  Each job's earliest next
completion and each machine's waiting jobs are kept up to date in place and
undone on backtracking, so a node visits only the branching machine's jobs.
It serves as ground truth in tests and as the `oracle` method; it is not a
competitive solver.  The tests check it against exhaustive enumeration of
every valid action string.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instance import Instance
from .rules import Rule, dispatch

DEFAULT_BUDGET = 10_000_000


@dataclass
class OracleResult:
    c_star: int
    schedule: tuple[int, ...]
    nodes_explored: int
    proven: bool


def branch_and_bound(inst: Instance, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """DFS restricted to active-schedule moves, pruning when the lower bound
    of a partial schedule reaches the incumbent.

    Branching: find the minimal earliest completion time C* over available
    ops; branch only on available ops of the machine m* achieving C* (the
    first such op in job order) whose earliest start is below C*.  Every
    active schedule (and hence an optimum) is reachable through such moves.
    The incumbent is seeded with the best dispatching-rule makespan;
    children expand in ascending (bound, job) order.

    The bound of a state is the max over machines of (ready + remaining
    work) and over unfinished jobs of (earliest start of the next op +
    remaining work), the earliest start being max(job ready, ready of the
    op's machine).  No term can fall along a DFS path, and placing job j's
    next op on m* at earliest start `est` with duration p moves only these,
    all read before the placement:

    - est + (m*'s remaining work) and est + (j's remaining work);
    - est + p + the largest remaining work among the other jobs waiting on
      m*, whose next ops can now start no earlier than est + p (one pass
      over m*'s jobs finds the top two);
    - (ready of j's next machine) + (j's remaining work) - p, unless the op
      is j's last.

    So a child's bound is the max of its parent's and those terms, computed
    without placing the child; the root's is the instance's load bound.

    Bookkeeping: `ect[j]` is the earliest completion of job j's next op (inf
    once j is finished) and `waiting[i]` the jobs whose next op runs on
    machine i.  Then C* is min(ect) and m* the machine of ect.index(C*), and
    only waiting[m*] is visited.  A placement updates ect for the jobs left
    waiting on m* and for j, and moves j to its next machine; backtracking
    restores a saved copy of ect and moves j back.

    The DFS is one loop over an explicit stack, so its depth (one level per
    placed op) is not limited by Python's recursion limit.  Each entered
    child counts one node; the count stops at `budget`, which it never
    exceeds, and a search cut there is not proven.
    """
    if isinstance(budget, bool) or not isinstance(budget, int):
        raise ValueError(f"budget must be an int, got {budget!r}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    best, best_actions = float("inf"), ()
    for rule in Rule:
        st, c = dispatch(inst, rule)
        if c < best:
            best = c
            best_actions = tuple(sorted(range(inst.num_ops), key=lambda u: (st.start[u], u)))
    n, m = inst.n, inst.m
    # Per-slot tables: job j's op k is slot s = j * (m + 1) + k, and slot
    # k = m stands for "finished": an op on a dummy machine m, which stays
    # free at time 0, that never completes.  tail[s] is the job's work from
    # slot s on, and after[s] the machine of the job's op after slot s.
    inf = float("inf")
    mach, dur, after, tail = [], [], [], []
    for job in inst.ops:
        left = sum(p for _, p in job)
        for k, (i, p) in enumerate(job):
            mach.append(i)
            dur.append(p)
            after.append(job[k + 1][0] if k + 1 < m else m)
            tail.append(left)
            left -= p
        mach.append(m)
        dur.append(inf)
        after.append(m)
        tail.append(0)
    pos = [j * (m + 1) for j in range(n)]  # each job's next slot
    machine_ready, job_ready = [0] * (m + 1), [0] * n
    machine_remaining = list(inst.machine_totals)
    ect = [dur[s] for s in pos]  # every first op can start at 0
    waiting = [set() for _ in range(m + 1)]
    for j, s in enumerate(pos):
        waiting[mach[s]].add(j)

    nodes, b = 0, inst.load_lower_bound()
    levels = []  # the children not yet entered of every open ancestor
    # (slot, job, machine, duration, machine ready, job ready, ect) per placed
    # op, the last three as they were before it
    undo = []
    while True:
        # the current node's children with a bound below `best`, descending
        c_star = min(ect)
        if c_star == inf:  # every op placed
            c = max(machine_ready)
            if c < best:  # slot j * (m + 1) + k is op j * m + k
                best, best_actions = c, tuple(u[0] - u[0] // (m + 1) for u in undo)
            kids = []
        else:
            i = mach[pos[ect.index(c_star)]]
            queue, a = waiting[i], machine_ready[i]
            top = second = 0  # the two largest remaining works on machine i
            top_job = -1
            for j in queue:
                w = tail[pos[j]]
                if w > top:
                    top, second, top_job = w, top, j
                elif w > second:
                    second = w
            base = machine_remaining[i]
            kids = []
            for j in queue:
                r = job_ready[j]
                est = a if a > r else r
                if est >= c_star:
                    continue
                s = pos[j]
                p, w = dur[s], tail[s]
                t = est + (base if base > w else w)
                x = est + p + (second if j == top_job else top)
                t = t if t > x else x
                x = machine_ready[after[s]] + w - p  # 0 after a job's last op
                t = t if t > x else x
                t = t if t > b else b
                if t < best:
                    kids.append((t, j))
            if len(kids) > 1:
                kids.sort(reverse=True)  # popped from the end, so ascending
        while True:  # the next child to enter, backtracking past spent levels
            if kids:
                b, j = kids.pop()
                if b < best:  # bounds only grow along a child list
                    break
            if not undo:  # the root's children are spent
                return OracleResult(c_star=int(best), schedule=best_actions,
                                    nodes_explored=nodes, proven=True)
            s, j, i, p, machine_ready[i], job_ready[j], ect[:] = undo.pop()
            machine_remaining[i] += p
            pos[j] = s
            waiting[after[s]].remove(j)
            waiting[i].add(j)
            kids = levels.pop()
        if nodes == budget:  # a cut search leaves its open levels unexplored
            return OracleResult(c_star=int(best), schedule=best_actions,
                                nodes_explored=nodes, proven=False)
        nodes += 1
        levels.append(kids)
        s = pos[j]
        i, p = mach[s], dur[s]
        a, r = machine_ready[i], job_ready[j]
        undo.append((s, j, i, p, a, r, ect[:]))
        e = machine_ready[i] = job_ready[j] = (a if a > r else r) + p
        machine_remaining[i] -= p
        pos[j] = s + 1
        queue = waiting[i]
        queue.remove(j)
        for o in queue:
            r = job_ready[o]
            ect[o] = (e if e > r else r) + dur[pos[o]]
        i = after[s]
        waiting[i].add(j)
        a = machine_ready[i]
        ect[j] = (a if a > e else e) + dur[s + 1]
