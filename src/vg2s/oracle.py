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


class _Search:
    """DFS machinery over raw per-job/per-machine arrays with undo; the
    node count stops at the budget, which it never exceeds."""

    def __init__(self, inst: Instance, budget: int):
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        self.inst = inst
        self.budget = budget
        self.nodes = 0
        self.aborted = False
        self.machine_ready = [0] * inst.m
        self.job_ready = [0] * inst.n
        self.next_op = [0] * inst.n
        self.machine_remaining = list(inst.machine_totals)
        self.job_remaining = list(inst.job_totals)
        self.best = float("inf")
        self.best_actions: tuple[int, ...] = ()
        self.trail: list[int] = []

    def enter(self) -> bool:
        """Count one node, or abort once the budget is spent; every open level
        of an aborted DFS then fails here too, so it unwinds counting nothing."""
        if self.nodes == self.budget:
            self.aborted = True
            return False
        self.nodes += 1
        return True

    def place(self, j: int):
        inst = self.inst
        k = self.next_op[j]
        # the search reads single ops from the tuples: cheaper than numpy
        # scalar indexing of inst.machines / inst.durations
        i, p = inst.ops[j][k]
        prev_m, prev_j = self.machine_ready[i], self.job_ready[j]
        end = (prev_m if prev_m > prev_j else prev_j) + p
        self.machine_ready[i] = end
        self.job_ready[j] = end
        self.machine_remaining[i] -= p
        self.job_remaining[j] -= p
        self.next_op[j] = k + 1
        self.trail.append(j * inst.m + k)
        return prev_m, prev_j, i, p

    def unplace(self, j: int, saved):
        prev_m, prev_j, i, p = saved
        self.machine_ready[i] = prev_m
        self.job_ready[j] = prev_j
        self.machine_remaining[i] += p
        self.job_remaining[j] += p
        self.next_op[j] -= 1
        self.trail.pop()

    def record_if_better(self):
        c = max(self.machine_ready)
        if c < self.best:
            self.best = c
            self.best_actions = tuple(self.trail)

    def result(self) -> OracleResult:
        return OracleResult(c_star=int(self.best), schedule=self.best_actions,
                            nodes_explored=self.nodes, proven=not self.aborted)


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
    """
    s = _Search(inst, budget)
    for rule in Rule:
        st, c = dispatch(inst, rule)
        if c < s.best:
            s.best = c
            s.best_actions = tuple(sorted(range(inst.num_ops), key=lambda u: (st.start[u], u)))
    n, m, ops, num_ops = inst.n, inst.m, inst.ops, inst.num_ops
    next_op, machine_ready, job_ready = s.next_op, s.machine_ready, s.job_ready
    machine_remaining, job_remaining = s.machine_remaining, s.job_remaining

    def dfs(depth: int, bound: int):
        if depth == num_ops:
            s.record_if_better()
            return
        # Giffler-Thompson conflict set, from one pass over the live jobs
        c_star = float("inf")
        live = []
        for j in range(n):
            k = next_op[j]
            if k == m:
                continue
            i, p = ops[j][k]
            a, r = machine_ready[i], job_ready[j]
            est = a if a > r else r
            if est + p < c_star:
                c_star = est + p
                m_star = i
            live.append((j, i, est))
        children = []
        best = s.best
        for j, i, est in live:
            if i != m_star or est >= c_star:
                continue
            a, r = est + machine_remaining[i], est + job_remaining[j]
            b = a if a > r else r
            b = b if b > bound else bound
            if b < best:
                children.append((b, j))
        children.sort()
        for b, j in children:
            if b >= s.best:
                break  # bounds only grow along the sorted child list
            if not s.enter():
                return
            saved = s.place(j)
            dfs(depth + 1, b)
            s.unplace(j, saved)

    dfs(0, inst.load_lower_bound())
    return s.result()
