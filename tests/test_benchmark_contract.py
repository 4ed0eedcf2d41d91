"""The benchmark's tracer (perfbench/spans.py) wraps vg2s functions at the
names their callers bind, by replacing `holder.__dict__[attr]`.  A refactor
that drops or moves one of those names, or stops calling through them,
breaks every traced benchmark run; these tests catch it in the unit suite
instead."""

from __future__ import annotations

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

from vg2s.bench import solve_with_model
from vg2s.trainer import InstancePool, TrainConfig, build_model, train_policy

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_binding_resolves():
    spans = _load_spans()
    missing = []
    for binding, _ in spans.WRAPS:
        holder, attr = spans._resolve(binding)
        if attr not in holder.__dict__:
            missing.append(binding)
    assert spans.WRAPS and missing == []


def test_production_path_reaches_wrapped_names(monkeypatch, two_by_two, tiny_cfg):
    """Phase 2 and the greedy solver call the policy layers through the
    `vg2s.trainer`/`vg2s.bench` bindings the tracer wraps (a path that
    bypassed them would leave their spans empty): one decode_step per
    lockstep decision, and in phase 2 one more that scores them all."""
    spans = _load_spans()
    counts = Counter()
    for binding, _ in spans.WRAPS:
        if binding.split(":")[0] not in ("vg2s.trainer", "vg2s.bench"):
            continue
        holder, attr = spans._resolve(binding)

        def counted(*args, _fn=holder.__dict__[attr], _key=binding, **kwargs):
            counts[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(holder, attr, counted)

    batch = 3
    cfg = TrainConfig(policy_epochs=1, batch_size=batch, seed=0)
    store = build_model(tiny_cfg, seed=0)
    pool = InstancePool(cfg, np.random.default_rng(0), frozen=[two_by_two])
    train_policy(cfg, tiny_cfg, store, pool, np.random.default_rng(0))
    steps = two_by_two.num_ops
    assert counts["vg2s.trainer:rollout"] == 1
    assert counts["vg2s.trainer:decode_step"] == steps + 1
    assert counts["vg2s.trainer:select_action"] == steps
    assert counts["vg2s.trainer:state_features"] == batch * steps
    for name in ("critic_value", "policy_loss", "critic_loss", "_sgd_step"):
        assert counts[f"vg2s.trainer:{name}"] == 1, name

    counts.clear()
    solve_with_model(two_by_two, store, tiny_cfg)
    assert counts["vg2s.bench:rollout"] == 1
    assert counts["vg2s.trainer:rollout"] == 0
    assert counts["vg2s.trainer:decode_step"] == steps
    assert counts["vg2s.trainer:select_action"] == steps
    assert counts["vg2s.trainer:state_features"] == steps
