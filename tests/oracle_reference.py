"""References for the differential tests of `vg2s.oracle.branch_and_bound`:
exhaustive enumeration, and a straightforward branch-and-bound.

`enumerate_all` tries every valid action string, so it needs no bound at
all; its node count is the number of interleavings.

`reference_branch_and_bound` is the straightforward form of the same search: every candidate child
of the Giffler-Thompson conflict set is placed, bounded by an O(n + m) loop
over all machines and jobs, and unplaced again before the children are
sorted.  Its node count keeps the old accounting, in which every ancestor of
an aborted child counts one more sibling; compare `nodes_explored` only for
proven searches.
"""

from __future__ import annotations

from vg2s.instance import Instance
from vg2s.oracle import DEFAULT_BUDGET, OracleResult
from vg2s.rules import Rule, dispatch


class _Search:
    def __init__(self, inst: Instance, budget: int):
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

    def place(self, j: int):
        inst = self.inst
        k = self.next_op[j]
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
            b = max(b, self.machine_ready[i] + self.machine_remaining[i])
        for j in range(self.inst.n):
            b = max(b, self.job_ready[j] + self.job_remaining[j])
        return b

    def record_if_better(self):
        c = max(self.machine_ready)
        if c < self.best:
            self.best = c
            self.best_actions = tuple(self.trail)


def reference_branch_and_bound(inst: Instance, budget: int) -> OracleResult:
    s = _Search(inst, budget)
    for rule in Rule:
        st, c = dispatch(inst, rule)
        if c < s.best:
            s.best = c
            s.best_actions = tuple(sorted(range(inst.num_ops),
                                          key=lambda u: (st.start[u], u)))

    def dfs(depth: int):
        if s.aborted:
            return
        if depth == inst.num_ops:
            s.record_if_better()
            return
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
                break
            s.nodes += 1
            if s.nodes > s.budget:
                s.aborted = True
                return
            saved = s.place(j)
            dfs(depth + 1)
            s.unplace(j, saved)

    dfs(0)
    return OracleResult(c_star=int(s.best), schedule=s.best_actions,
                        nodes_explored=s.nodes, proven=not s.aborted)


def enumerate_all(inst: Instance, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Exhaustive minimum over all valid action strings.

    Practical only for tiny instances; the node count is the number of
    interleavings (n*m)! / (m!)^n.  The node count stops at the budget, which
    it never exceeds: a budget overrun returns the incumbent with
    proven=False, and a budget that ends before the first complete schedule
    (fewer than n*m nodes) raises ValueError.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    s = _Search(inst, budget)

    def dfs(depth: int):
        if depth == inst.num_ops:
            s.record_if_better()
            return
        for j in range(inst.n):
            if s.next_op[j] == inst.m:
                continue
            if s.nodes == budget:  # every open level then stops here too
                s.aborted = True
                return
            s.nodes += 1
            saved = s.place(j)
            dfs(depth + 1)
            s.unplace(j, saved)

    dfs(0)
    if not s.best_actions:
        raise ValueError(f"budget {budget} ends before the first complete schedule, "
                         f"which takes {inst.num_ops} nodes")
    return OracleResult(c_star=int(s.best), schedule=s.best_actions,
                        nodes_explored=s.nodes, proven=not s.aborted)
