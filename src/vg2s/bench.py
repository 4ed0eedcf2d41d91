"""Benchmark evaluation, latent export, and policy-vs-dispatching-rule
similarity traces, all emitted as deterministic CSV."""

from __future__ import annotations

import csv
from bisect import bisect_left, insort
from pathlib import Path

import numpy as np

from .checkpoint import ParamStore
from .env import ScheduleState
from .graph import build_graph
from .instance import GenConfig, Instance, generate_random
from .oracle import branch_and_bound
from .rules import Rule, decisions, dispatch, optimality_gap
from .trainer import Decisions, embed, rollout
from .vge import ModelConfig

PDR_METHODS = tuple(r.value for r in Rule)


def _greedy(inst: Instance, store: ParamStore,
            cfg: ModelConfig) -> tuple[Decisions, ScheduleState]:
    """Greedy decode conditioned on the latent mean (the decisions' z);
    returns the one episode's decisions and its complete schedule."""
    h_real, mu, _ = embed(build_graph(inst), store, cfg)
    dec, (st,) = rollout([inst], mu[None], [h_real], store, cfg, "greedy")
    return dec, st


def solve_with_model(inst: Instance, store: ParamStore, cfg: ModelConfig):
    """Greedy decode at the latent mean; returns (state, makespan)."""
    _, st = _greedy(inst, store, cfg)
    return st, st.makespan()


def eval_bench(instances: dict[str, Instance], methods: list[str],
               ubs: dict[str, int],
               store: ParamStore | None = None,
               model_cfg: ModelConfig | None = None,
               oracle_budget: int = 10_000_000) -> list[dict]:
    """One row per (instance, method) plus per-(family-prefix, size) group
    aggregates.  Gap stays blank when no best-known makespan is supplied."""
    rows = []
    for name in sorted(instances):
        inst = instances[name]
        for method in methods:
            if method == "oracle":
                res = branch_and_bound(inst, budget=oracle_budget)
                c = res.c_star
            elif method == "vg2s":
                if store is None or model_cfg is None:
                    raise ValueError("vg2s method needs a model checkpoint")
                _, c = solve_with_model(inst, store, model_cfg)
            else:
                _, c = dispatch(inst, Rule(method))
            ub = ubs.get(name)
            rows.append({
                "instance": name,
                "size": f"{inst.n}x{inst.m}",
                "method": method,
                "cmax": c,
                "ub": ub if ub is not None else "",
                "gap": round(optimality_gap(c, ub), 4) if ub is not None else "",
            })
    groups: dict[tuple[str, str, str], list[float]] = {}
    for row in rows:
        if row["gap"] == "":
            continue
        family = row["instance"].rstrip("0123456789_")
        key = (family, row["size"], row["method"])
        groups.setdefault(key, []).append(row["gap"])
    for (family, size, method) in sorted(groups):
        gaps = groups[(family, size, method)]
        rows.append({
            "instance": f"group:{family}",
            "size": size,
            "method": method,
            "cmax": "",
            "ub": "",
            "gap": round(float(np.mean(gaps)), 4),
        })
    return rows


def write_csv(rows: list[dict], path, columns: list[str] | None = None) -> None:
    """Header row plus one row per dict; the header names `columns`, or the
    first row's keys.  With neither, the file is empty."""
    if not rows and not columns:
        Path(path).write_text("")
        return
    columns = columns or list(rows[0])
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def _similarity_records(insts: list[Instance], actions: list[list[int]]) -> list[dict]:
    """Per-step records of each instance's complete decision list.  The
    available ops are the unfinished jobs' next ops, so a trace needs only
    their durations, kept sorted: at decision u = (j, k) they number
    `num_available`, and p_u's `pt_rank` is one more than the count shorter
    than it.  Then p_u leaves the list and job j's op k+1, if any, enters."""
    records = []
    for e, (inst, acts) in enumerate(zip(insts, actions)):
        m, durations = inst.m, inst.durations.ravel().tolist()
        available = sorted(durations[::m])
        for step, u in enumerate(acts, 1):
            k, shorter = u % m, bisect_left(available, durations[u])
            records.append({"instance": e, "step": step, "completed_ops": k,
                            "pt_rank": 1 + shorter, "num_available": len(available)})
            del available[shorter]
            if k + 1 < m:
                insort(available, durations[u + 1])
    return records


def pdr_similarity(count: int, n: int, m: int, seed: int,
                   store: ParamStore | None = None,
                   model_cfg: ModelConfig | None = None,
                   rule: Rule | None = None) -> list[dict]:
    """Greedy rollouts over `count` generated n x m instances; per decision
    step, the chosen job's completed-op count (most-work-remaining proxy)
    and the chosen op's processing-time rank (shortest-processing-time
    proxy).  Either a model checkpoint or a rule drives the choices."""
    rng = np.random.default_rng(seed)
    gen = GenConfig(m_lo=m, m_hi=m, n_hi=n)
    insts = [generate_random(gen, rng) for _ in range(count)]
    if rule is not None:
        actions = [decisions(inst, rule) for inst in insts]
    else:
        if store is None or model_cfg is None:
            raise ValueError("pdr_similarity needs a model or a rule")
        actions = [_greedy(inst, store, model_cfg)[0].actions[0].tolist() for inst in insts]
    return _similarity_records(insts, actions)


def export_latents(instances: dict[str, Instance], store: ParamStore,
                   model_cfg: ModelConfig) -> list[dict]:
    """One row per instance: id, the latent mean coordinates, and the
    greedy-decode makespan (projection to 2-D is done externally)."""
    rows = []
    for name in sorted(instances):
        dec, st = _greedy(instances[name], store, model_cfg)
        row = {"instance": name}
        for i, v in enumerate(dec.z[0]):
            row[f"mu_{i}"] = repr(float(v))
        row["greedy_cmax"] = st.makespan()
        rows.append(row)
    return rows


def gantt_svg(st, path) -> None:
    """Render a complete schedule as a simple SVG Gantt chart."""
    inst = st.inst
    c_max = st.makespan()
    scale = max(1.0, 900.0 / c_max)
    row_h, pad = 28, 40
    width = int(c_max * scale) + 2 * pad
    height = inst.m * row_h + 2 * pad
    palette = [
        "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
        "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
    ]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{pad}" y="20" font-size="14">makespan {c_max}</text>',
    ]
    for i in range(inst.m):
        y = pad + i * row_h
        parts.append(f'<text x="4" y="{y + row_h // 2}" font-size="11">M{i}</text>')
    machines = inst.machines.ravel().tolist()
    for u in range(inst.num_ops):
        j, k = divmod(u, inst.m)
        i = machines[u]
        x = pad + float(st.start[u]) * scale
        w = max(1.0, (float(st.end[u]) - float(st.start[u])) * scale)
        y = pad + i * row_h + 2
        color = palette[j % len(palette)]
        parts.append(
            f'<rect x="{x:.1f}" y="{y}" width="{w:.1f}" height="{row_h - 6}" '
            f'fill="{color}" stroke="#333"><title>J{j} op{k}</title></rect>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))
