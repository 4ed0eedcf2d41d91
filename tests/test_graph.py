from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings

from helpers import instances
from vg2s.graph import build_graph, reconstruction_targets, static_features
from vg2s.instance import Instance


def ref_static_features(inst: Instance) -> np.ndarray:
    """Loop reference for static_features."""
    n, m = inst.n, inst.m
    job_totals = np.array([sum(p for _, p in job) for job in inst.ops], dtype=np.float64)
    mach_totals = np.array([sum(p for job in inst.ops for mi, p in job if mi == i)
                            for i in range(m)], dtype=np.float64)
    max_job_total = job_totals.max()

    x = np.zeros((n * m + 2, 6), dtype=np.float64)
    for j in range(n):
        durs = np.array([p for _, p in inst.ops[j]], dtype=np.float64)
        prefix = np.cumsum(durs)
        for k in range(m):
            mi, p = inst.ops[j][k]
            u = j * m + k
            x[u, 0] = p / job_totals[j]
            x[u, 1] = p / durs.max()
            x[u, 2] = p / mach_totals[mi]
            x[u, 3] = prefix[k] / job_totals[j]
            x[u, 4] = (k + 1) / m
            x[u, 5] = job_totals[j] / max_job_total
    x[n * m + 1] = (0.0, 0.0, 1.0, 1.0, 1.0, 0.0)
    return x


def ref_edges(inst: Instance):
    """Loop reference: (prec, succ, share) neighbor tuples per node."""
    n, m = inst.n, inst.m
    num = n * m
    source, sink = num, num + 1
    by_machine: dict[int, list[int]] = {i: [] for i in range(m)}
    for j in range(n):
        for k in range(m):
            by_machine[inst.ops[j][k][0]].append(j * m + k)

    prec, succ, share = [], [], []
    for j in range(n):
        for k in range(m):
            u = j * m + k
            prec.append((u - 1,) if k > 0 else (source,))
            succ.append((u + 1,) if k < m - 1 else (sink,))
            peers = tuple(v for v in by_machine[inst.ops[j][k][0]] if v != u)
            share.append(peers if peers else (u,))
    for d in (source, sink):
        prec.append((d,))
        succ.append((d,))
        share.append((d,))
    return tuple(prec), tuple(succ), tuple(share)


def ref_adjacency(inst: Instance) -> np.ndarray:
    n_nodes = inst.num_ops + 2
    adj = np.zeros((3, n_nodes, n_nodes), dtype=bool)
    for e, edges in enumerate(ref_edges(inst)):
        for u, nbrs in enumerate(edges):
            for v in nbrs:
                adj[e, u, v] = True
    return adj


def ref_edge_targets(inst: Instance, canvas: int) -> np.ndarray:
    num = inst.num_ops
    edge_t = np.zeros((canvas, canvas, 3), dtype=np.float64)
    for e, edges in enumerate(ref_edges(inst)):
        for u in range(num):
            for v in edges[u]:
                if v < num:
                    edge_t[u, v, e] = 1.0
    return edge_t


def nbrs(graph, e: int, u: int) -> tuple[int, ...]:
    return tuple(np.flatnonzero(graph.adj[e, u]).tolist())


@settings(max_examples=150, deadline=None)
@given(inst=instances())
@example(inst=Instance(n=1, m=1, ops=(((0, 5),),)))
@example(inst=Instance(n=1, m=4, ops=(((2, 1), (0, 7), (3, 7), (1, 2)),)))
@example(inst=Instance(n=3, m=1, ops=(((0, 4),), ((0, 4),), ((0, 9),))))
def test_build_graph_matches_loop_reference(inst):
    graph = build_graph(inst)
    ref_x = ref_static_features(inst)
    assert graph.features.dtype == ref_x.dtype
    assert graph.features.tobytes() == ref_x.tobytes()
    assert graph.adj.dtype == bool
    np.testing.assert_array_equal(graph.adj, ref_adjacency(inst))
    # vge.encode aggregates precedence and successor through adj itself,
    # which is their attention only while every row, dummies included, has
    # exactly one neighbour.
    assert np.all(graph.adj[:2].sum(axis=2) == 1)
    canvas = inst.num_ops + 3
    node_t, edge_t = reconstruction_targets(graph, canvas)
    assert edge_t.tobytes() == ref_edge_targets(inst, canvas).tobytes()
    assert node_t[: inst.num_ops].tobytes() == ref_x[: inst.num_ops].tobytes()


class TestStaticFeatures:
    def test_two_by_two_hand_values(self, two_by_two):
        x = static_features(two_by_two)
        # op (M1, J1): p=3, job total 5, machine-0 total 7, first op of job 1
        np.testing.assert_allclose(x[0], [3 / 5, 1.0, 3 / 7, 3 / 5, 1 / 2, 5 / 6])

    def test_single_op_instance_all_ones(self):
        inst = Instance(n=1, m=1, ops=(((0, 5),),))
        x = static_features(inst)
        np.testing.assert_allclose(x[0], np.ones(6))

    def test_dummy_rows(self, two_by_two):
        x = static_features(two_by_two)
        np.testing.assert_allclose(x[4], np.zeros(6))  # source
        np.testing.assert_allclose(x[5], [0, 0, 1, 1, 1, 0])  # sink

    def test_equal_duration_symmetry(self):
        inst = Instance(n=1, m=3, ops=(((0, 4), (1, 4), (2, 4)),))
        x = static_features(inst)
        for k in range(3):
            assert x[k, 0] == pytest.approx(1 / 3)
            assert x[k, 1] == 1.0
            assert x[k, 3] == pytest.approx((k + 1) / 3)
            assert x[k, 4] == pytest.approx((k + 1) / 3)

    def test_range_and_row_sums(self, ft06):
        x = static_features(ft06)
        assert np.all(x >= 0.0) and np.all(x <= 1.0)
        for j in range(ft06.n):
            rows = x[j * ft06.m:(j + 1) * ft06.m]
            assert rows[:, 0].sum() == pytest.approx(1.0, abs=1e-12)
            assert rows[:, 1].max() == 1.0  # the job's longest op
            assert np.all(np.diff(rows[:, 3]) > 0)  # strictly increasing
            assert np.all(np.diff(rows[:, 4]) > 0)


class TestEdges:
    def test_single_op(self):
        graph = build_graph(Instance(n=1, m=1, ops=(((0, 5),),)))
        assert nbrs(graph, 0, 0) == (1,)  # source
        assert nbrs(graph, 1, 0) == (2,)  # sink
        assert nbrs(graph, 2, 0) == (0,)  # self-loop, no sharing partner

    def test_chain_and_boundary(self, two_by_two):
        graph = build_graph(two_by_two)
        assert nbrs(graph, 0, 0) == (4,) and nbrs(graph, 0, 1) == (0,)
        assert nbrs(graph, 1, 0) == (1,) and nbrs(graph, 1, 1) == (5,)
        # machine 0 hosts ops 0 and 3; machine 1 hosts 1 and 2
        assert nbrs(graph, 2, 0) == (3,) and nbrs(graph, 2, 3) == (0,)
        assert nbrs(graph, 2, 1) == (2,) and nbrs(graph, 2, 2) == (1,)

    def test_sharing_symmetry(self, ft06):
        share = build_graph(ft06).adj[2]
        np.testing.assert_array_equal(share, share.T)

    def test_ft06_sharing_count(self, ft06):
        share = build_graph(ft06).adj[2, :ft06.num_ops]
        assert share.sum() == 6 * 6 * 5  # m * n * (n - 1) = 180
        assert not share[:, ft06.num_ops:].any()  # no sharing edge to a dummy

    def test_dummies_self_looped(self, two_by_two):
        graph = build_graph(two_by_two)
        for d in (4, 5):
            for e in range(3):
                assert nbrs(graph, e, d) == (d,)


class TestGraph:
    def test_node_count(self, ft06):
        graph = build_graph(ft06)
        assert graph.node_count == 38
        assert graph.adj.shape == (3, 38, 38)

    def test_adjacency_shapes(self, two_by_two):
        adj = build_graph(two_by_two).adj
        assert adj.shape == (3, 6, 6)
        # every real node has exactly one predecessor and one successor
        assert np.all(adj[0, :4].sum(axis=1) == 1)
        assert np.all(adj[1, :4].sum(axis=1) == 1)

    def test_reconstruction_targets_round_trip(self, two_by_two):
        graph = build_graph(two_by_two)
        node_t, edge_t = reconstruction_targets(graph, canvas=9)
        np.testing.assert_allclose(node_t[:4], graph.features[:4])
        assert np.all(node_t[4:] == 0)
        for e in range(3):
            np.testing.assert_array_equal(edge_t[:4, :4, e], graph.adj[e, :4, :4])
        assert np.all(edge_t[4:] == 0) and np.all(edge_t[:, 4:] == 0)

    def test_canvas_too_small(self, ft06):
        graph = build_graph(ft06)
        with pytest.raises(ValueError, match="canvas"):
            reconstruction_targets(graph, canvas=35)
