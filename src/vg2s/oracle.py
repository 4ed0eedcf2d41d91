"""Exact makespan minimization for small instances.

Two routes that must agree: exhaustive enumeration of every valid action
string, and a depth-first branch-and-bound whose bound is the max over
machines and jobs of (ready time + remaining work) -- the same quantity
family as the environment's lookahead features.  Both serve as ground
truth in tests; neither is a competitive solver.
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
    """Shared DFS machinery over raw per-job/per-machine arrays with undo."""

    def __init__(self, inst: Instance, budget: int):
        self.inst = inst
        self.budget = budget
        self.nodes = 0
        self.aborted = False
        n, m = inst.n, inst.m
        self.machine_ready = [0] * m
        self.job_ready = [0] * n
        self.next_op = [0] * n
        self.machine_remaining = list(inst.machine_totals)
        self.job_remaining = list(inst.job_totals)
        self.best = float("inf")
        self.best_actions: tuple[int, ...] = ()
        self.trail: list[int] = []

    def place(self, j: int):
        inst = self.inst
        k = self.next_op[j]
        # the search reads single ops from the tuples: cheaper than numpy
        # scalar indexing of inst.machines / inst.durations
        i, p = inst.ops[j][k]
        prev_m, prev_j = self.machine_ready[i], self.job_ready[j]
        end = max(prev_m, prev_j) + p
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

    def bound(self) -> int:
        b = 0
        for i in range(self.inst.m):
            v = self.machine_ready[i] + self.machine_remaining[i]
            if v > b:
                b = v
        for j in range(self.inst.n):
            v = self.job_ready[j] + self.job_remaining[j]
            if v > b:
                b = v
        return b

    def record_if_better(self):
        c = max(self.machine_ready)
        if c < self.best:
            self.best = c
            self.best_actions = tuple(self.trail)


def enumerate_all(inst: Instance, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Exhaustive minimum over all valid action strings.

    Practical only for tiny instances; the node count is the number of
    interleavings (n*m)! / (m!)^n.  A budget overrun returns the incumbent
    with proven=False.
    """
    s = _Search(inst, budget)
    remaining = inst.num_ops

    def dfs(depth: int):
        if s.aborted:
            return
        if depth == remaining:
            s.record_if_better()
            return
        for j in range(inst.n):
            if s.next_op[j] >= inst.m:
                continue
            s.nodes += 1
            if s.nodes > s.budget:
                s.aborted = True
                return
            saved = s.place(j)
            dfs(depth + 1)
            s.unplace(j, saved)

    dfs(0)
    return OracleResult(
        c_star=int(s.best),
        schedule=s.best_actions,
        nodes_explored=s.nodes,
        proven=not s.aborted,
    )


def branch_and_bound(inst: Instance, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """DFS restricted to active-schedule moves, pruning when the load bound
    of a partial schedule reaches the incumbent.

    Branching: find the minimal earliest completion time C* over available
    ops; branch only on available ops of the machine achieving C* whose
    earliest start is below C*.  Every active schedule (and hence an
    optimum) is reachable through such moves.  The incumbent is seeded with
    the best dispatching-rule makespan; children expand in ascending bound
    order.
    """
    s = _Search(inst, budget)
    for rule in Rule:
        st, c = dispatch(inst, rule)
        if c < s.best:
            s.best = c
            order = sorted(range(inst.num_ops), key=lambda u: (st.start[u], u))
            s.best_actions = tuple(order)
    remaining = inst.num_ops

    def dfs(depth: int):
        if s.aborted:
            return
        if depth == remaining:
            s.record_if_better()
            return
        # Giffler-Thompson conflict set
        c_star = None
        m_star = -1
        for j in range(inst.n):
            k = s.next_op[j]
            if k >= inst.m:
                continue
            i, p = inst.ops[j][k]
            ect = max(s.machine_ready[i], s.job_ready[j]) + p
            if c_star is None or ect < c_star:
                c_star = ect
                m_star = i
        children = []
        for j in range(inst.n):
            k = s.next_op[j]
            if k >= inst.m:
                continue
            i, _ = inst.ops[j][k]
            if i != m_star:
                continue
            if max(s.machine_ready[i], s.job_ready[j]) >= c_star:
                continue
            saved = s.place(j)
            b = s.bound()
            s.unplace(j, saved)
            if b < s.best:
                children.append((b, j))
        children.sort()
        for b, j in children:
            if b >= s.best:
                break  # bounds only grow along the sorted child list
            s.nodes += 1
            if s.nodes > s.budget:
                s.aborted = True
                return
            saved = s.place(j)
            dfs(depth + 1)
            s.unplace(j, saved)

    dfs(0)
    return OracleResult(
        c_star=int(s.best),
        schedule=s.best_actions,
        nodes_explored=s.nodes,
        proven=not s.aborted,
    )
