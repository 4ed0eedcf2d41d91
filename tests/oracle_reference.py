"""Reference branch-and-bound for the differential tests of
`vg2s.oracle.branch_and_bound`.

This is the straightforward form of the same search: every candidate child
of the Giffler-Thompson conflict set is placed, bounded by an O(n + m) loop
over all machines and jobs, and unplaced again before the children are
sorted.  Its node count keeps the old accounting, in which every ancestor of
an aborted child counts one more sibling; compare `nodes_explored` only for
proven searches.
"""

from __future__ import annotations

from vg2s.instance import Instance
from vg2s.oracle import OracleResult
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
