"""Exact makespan minimization for small instances.

A depth-first branch-and-bound whose bound is the max over machines and
jobs of (ready time + remaining work) -- the same quantity family as the
environment's lookahead features, carried down the DFS in O(1) per child.
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
    """DFS restricted to active-schedule moves, pruning when the load bound
    of a partial schedule reaches the incumbent.

    Branching: find the minimal earliest completion time C* over available
    ops; branch only on available ops of the machine achieving C* whose
    earliest start is below C*.  Every active schedule (and hence an
    optimum) is reachable through such moves.  The incumbent is seeded with
    the best dispatching-rule makespan; children expand in ascending bound
    order.

    The bound travels down the DFS: the root's is the instance's load lower
    bound, and placing job j's next op on machine i at earliest start `est`
    moves only two of its terms, to est + (machine i's remaining work) and
    est + (job j's remaining work), both counted before the placement.
    Neither term can fall, so a child's bound is the max of its parent's and
    those two, computed without placing the child.

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
    n, m, ops, num_ops = inst.n, inst.m, inst.ops, inst.num_ops
    next_op, machine_ready, job_ready = [0] * n, [0] * m, [0] * n
    machine_remaining, job_remaining = list(inst.machine_totals), list(inst.job_totals)
    sentinel = (float("inf"), -1)

    def children(bound: int, best: int) -> list[tuple[float, int]]:
        """The current node's (bound, job) children with a bound below
        `best`, ascending, then a sentinel whose bound is inf."""
        # Giffler-Thompson conflict set, from one pass over the live jobs
        c_star = float("inf")
        live = []
        for j in range(n):
            k = next_op[j]
            if k == m:
                continue
            # single ops from the tuples: cheaper than numpy scalar indexing
            i, p = ops[j][k]
            a, r = machine_ready[i], job_ready[j]
            est = a if a > r else r
            if est + p < c_star:
                c_star = est + p
                m_star = i
            live.append((j, i, est))
        kids = []
        for j, i, est in live:
            if i != m_star or est >= c_star:
                continue
            a, r = est + machine_remaining[i], est + job_remaining[j]
            b = a if a > r else r
            b = b if b > bound else bound
            if b < best:
                kids.append((b, j))
        kids.sort()
        kids.append(sentinel)
        return kids

    nodes = 0
    levels = [iter(children(inst.load_lower_bound(), best))]  # one child list per open level
    undo = []  # (op, job, machine, duration, machine ready, job ready) per placed op
    while levels:
        b, j = next(levels[-1])
        if b >= best:  # bounds only grow along a sorted child list
            levels.pop()
            if undo:
                _, j, i, p, machine_ready[i], job_ready[j] = undo.pop()
                machine_remaining[i] += p
                job_remaining[j] += p
                next_op[j] -= 1
            continue
        if nodes == budget:
            break
        nodes += 1
        k = next_op[j]
        i, p = ops[j][k]
        a, r = machine_ready[i], job_ready[j]
        machine_ready[i] = job_ready[j] = (a if a > r else r) + p
        machine_remaining[i] -= p
        job_remaining[j] -= p
        next_op[j] = k + 1
        undo.append((j * m + k, j, i, p, a, r))
        if len(undo) == num_ops:
            c = max(machine_ready)
            if c < best:
                best, best_actions = c, tuple(u[0] for u in undo)
        levels.append(iter(children(b, best)))  # only the sentinel after the last op
    # a cut search leaves its open levels on the stack
    return OracleResult(c_star=int(best), schedule=best_actions,
                        nodes_explored=nodes, proven=not levels)
