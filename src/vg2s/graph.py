"""Heterogeneous-graph view of an instance: static node features and the
precedence / successor / machine-sharing adjacency, with source/sink dummies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Instance


@dataclass(frozen=True)
class HeteroGraph:
    """Operation graph with N_O = n*m + 2 nodes.

    Node u = j*m + k is the k-th operation of job j; the last two nodes are
    the source and sink dummies.  features is N_O x 6 with all entries in
    [0, 1].  adj is the 3 x N_O x N_O boolean adjacency of the precedence,
    successor and machine-sharing edge types; adj[e, u, v] means v is a
    neighbor of u.  Every precedence and successor row, dummies included,
    has exactly one neighbor, so the encoder uses those two as they are;
    only machine-sharing rows are softmaxed, and each is nonempty
    (self-loops fill gaps), so that softmax is always well defined.
    """

    instance: Instance
    features: np.ndarray
    adj: np.ndarray

    @property
    def node_count(self) -> int:
        return self.instance.num_ops + 2


def static_features(inst: Instance) -> np.ndarray:
    """Six normalized per-operation features plus the two dummy rows.

    For operation k of job j on machine i with duration p:
      f1: p / (job total)
      f2: p / (max duration within the job)
      f3: p / (machine total)
      f4: (work of the job's ops 1..k) / (job total)
      f5: (machines visited by the job up to and including k) / m
      f6: (job total) / (max job total)
    Source row is all zeros; sink row is (0, 0, 1, 1, 1, 0).
    """
    n, m = inst.n, inst.m
    p = inst.durations.astype(np.float64)
    job_totals = np.array(inst.job_totals, dtype=np.float64)[:, None]
    mach_totals = np.array(inst.machine_totals, dtype=np.float64)
    cols = (
        p / job_totals,
        p / p.max(axis=1, keepdims=True),
        p / mach_totals[inst.machines],
        np.cumsum(p, axis=1) / job_totals,
        np.broadcast_to(np.arange(1, m + 1) / m, (n, m)),
        np.broadcast_to(job_totals / job_totals.max(), (n, m)),
    )
    x = np.zeros((n * m + 2, 6), dtype=np.float64)
    x[: n * m] = np.stack(cols, axis=-1).reshape(n * m, 6)
    x[n * m + 1] = (0.0, 0.0, 1.0, 1.0, 1.0, 0.0)  # sink; source row stays zero
    return x


def build_graph(inst: Instance) -> HeteroGraph:
    """Features and typed adjacency over the n*m + 2 node graph.

    Precedence: each op's single predecessor (the source for first ops).
    Successor: each op's single successor (the sink for last ops).
    Machine-sharing: all other real ops on the same machine; a node with no
    sharing partner (n = 1) gets a self-loop instead.  Dummies are
    self-looped in all three types.
    """
    n, m = inst.n, inst.m
    num = n * m
    source, sink = num, num + 1
    u = np.arange(num)
    k = u % m
    adj = np.zeros((3, num + 2, num + 2), dtype=bool)
    adj[0, u, np.where(k > 0, u - 1, source)] = True
    adj[1, u, np.where(k < m - 1, u + 1, sink)] = True
    mach = inst.machines.ravel()
    share = mach[:, None] == mach[None, :]
    np.fill_diagonal(share, n == 1)
    adj[2, :num, :num] = share
    adj[:, [source, sink], [source, sink]] = True
    return HeteroGraph(instance=inst, features=static_features(inst), adj=adj)


def reconstruction_targets(graph: HeteroGraph, canvas: int):
    """Zero-padded targets for the generative head: node features
    (canvas x 6) and the three real-node adjacency matrices
    (canvas x canvas x 3).  Dummy nodes and their edges are excluded."""
    num = graph.instance.num_ops
    if num > canvas:
        raise ValueError(f"instance has {num} operations, canvas holds {canvas}")
    node_t = np.zeros((canvas, 6), dtype=np.float64)
    node_t[:num] = graph.features[:num]
    edge_t = np.zeros((canvas, canvas, 3), dtype=np.float64)
    edge_t[:num, :num] = graph.adj[:, :num, :num].transpose(1, 2, 0)
    return node_t, edge_t
