"""Benchmark evaluation, latent export, and policy-vs-dispatching-rule
similarity traces, all emitted as deterministic CSV."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .checkpoint import ParamStore
from .env import BatchState, ScheduleState
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
    """Per-step records of replaying each instance's complete decision list,
    instance by instance.  The instances are the rows of one BatchState,
    stepped together; each step's available ops are the next ops of the
    rows' `live_jobs`, and a row leaves once its schedule is complete."""
    if not insts:
        return []
    batch = BatchState(insts)
    sizes = batch.sizes
    count, width = len(insts), int(sizes.max())
    chosen = np.zeros((count, width), dtype=np.int64)
    for e, acts in enumerate(actions):
        chosen[e, :sizes[e]] = acts
    ranks = np.zeros((count, width), dtype=np.int64)
    available = np.zeros((count, width), dtype=np.int64)
    ends = set(sizes.tolist())
    active = slice(None)
    for t in range(width):
        if t in ends:
            active = np.flatnonzero(sizes > t)
        counts = batch.live_count[active]
        slots = np.arange(counts.max())
        jobs = batch.live_jobs[active, :slots.size]
        # flat index of each live job's next op; the dummy job's is in bounds
        ops = batch.job_first[jobs] + batch._flat["next_op"][jobs]
        picks = chosen[active, t]
        picked = batch.durations[batch.op_offset[active] + picks]
        shorter = (batch.durations[ops] < picked[:, None]) & (slots < counts[:, None])
        ranks[active, t] = 1 + shorter.sum(axis=1)
        available[active, t] = counts
        batch.step(active, picks)
    completed = chosen % batch.m[:, None]
    return [{"instance": e, "step": t + 1, "completed_ops": c, "pt_rank": r,
             "num_available": a}
            for e in range(count)
            for t, c, r, a in zip(range(sizes[e]), completed[e].tolist(),
                                  ranks[e].tolist(), available[e].tolist())]


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
