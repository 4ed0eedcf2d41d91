"""Command-line surface: instance generation/parsing, solving, the two
training phases, benchmark evaluation, and the CSV exports."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .bench import (PDR_METHODS, eval_bench, export_latents, gantt_svg,
                    pdr_similarity, solve_with_model, write_csv)
from .checkpoint import ParamStore, load_checkpoint, save_checkpoint
from .env import replay, schedule_records
from .instance import GenConfig, Instance, parse_orlib, parse_taillard, generate_random
from .oracle import DEFAULT_BUDGET, branch_and_bound
from .rules import Rule, dispatch, improvement_rate, optimality_gap
from .trainer import (ENCODER_SECTIONS, InstancePool, TrainConfig,
                      build_model, train_policy, train_representation)
from .vge import ModelConfig

METHODS = [*PDR_METHODS, "oracle", "vg2s"]


def _seed_override(seed: int) -> int:
    env = os.environ.get("VG2S_SEED")
    return int(env) if env else seed


def load_configs(path: str | None) -> tuple[TrainConfig, ModelConfig]:
    """Read {"train": {...}, "model": {...}} JSON; missing keys keep defaults.
    An unreadable file, malformed JSON, an unknown key or an out-of-range
    value ends the program with one error line and exit status 2."""
    if not path:
        return TrainConfig(), ModelConfig()
    try:
        raw = json.loads(Path(path).read_text())
        return TrainConfig(**raw.get("train", {})), ModelConfig(**raw.get("model", {}))
    except (OSError, TypeError, ValueError) as exc:
        print(f"vg2s: error: config {path}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _read_input(load, path: str, *args):
    """load(path, *args); a missing or unreadable input path ends the
    program with one error line and exit status 2."""
    try:
        return load(path, *args)
    except OSError as exc:
        print(f"vg2s: error: {exc.filename or path}: {exc.strerror or exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _read_checkpoint(path: str, role: str) -> ParamStore:
    """load_checkpoint(path); a missing, unreadable or cut file ends the
    program with one error line and exit status 2."""
    try:
        return _read_input(load_checkpoint, path)
    except ValueError as exc:  # the message starts with the path
        print(f"vg2s: error: {role} {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _load_encoder(store: ParamStore, path: str) -> None:
    """Copy the frozen encoder (every ENCODER_SECTIONS parameter of `store`)
    from the checkpoint at `path`.  A checkpoint that lacks one of them,
    holds one in another shape or holds one the model does not have ends
    the program with one error line and exit status 2."""
    trained = _read_checkpoint(path, "encoder checkpoint")
    try:
        for name in store.names():
            if name.startswith(ENCODER_SECTIONS) and name not in trained:
                raise ValueError(f"missing parameter {name!r}")
        for section in ENCODER_SECTIONS:
            store.update(trained, section)
    except (KeyError, ValueError) as exc:
        print(f"vg2s: error: encoder checkpoint {path}: {exc.args[0]}", file=sys.stderr)
        raise SystemExit(2) from None


def _load_instance(path: str, fmt: str) -> Instance:
    text = Path(path).read_text()
    if fmt == "orlib":
        return parse_orlib(text)
    if fmt == "taillard":
        return parse_taillard(text)
    if fmt == "json":
        return Instance.from_json(text)
    raise ValueError(f"unknown format {fmt!r}")


def _load_instance_dir(path: str, fmt: str) -> dict[str, Instance]:
    out = {}
    for p in sorted(Path(path).iterdir()):
        if p.suffix in (".txt", ".json"):
            use_fmt = "json" if p.suffix == ".json" else fmt
            out[p.stem] = _load_instance(str(p), use_fmt)
    return out


def cmd_gen(args) -> int:
    rng = np.random.default_rng(_seed_override(args.seed))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = GenConfig()
    for idx in range(args.count):
        inst = generate_random(cfg, rng)
        (out_dir / f"gen_{idx:05d}.json").write_text(inst.to_json())
    print(f"wrote {args.count} instances to {out_dir}")
    return 0


def cmd_parse(args) -> int:
    inst = _read_input(_load_instance, args.file, args.format)
    print(f"{args.file}: {inst.n} jobs x {inst.m} machines, "
          f"load lower bound {inst.load_lower_bound()}")
    if args.json:
        print(inst.to_json())
    return 0


def cmd_solve(args) -> int:
    inst = _read_input(_load_instance, args.file, args.format)
    if args.method == "oracle":
        res = branch_and_bound(inst, budget=args.budget)
        st = replay(inst, res.schedule)
        c = res.c_star
        print(f"cmax {c} proven={res.proven} nodes={res.nodes_explored}")
    elif args.method == "vg2s":
        if not args.model:
            print("vg2s: error: solve --method vg2s requires --model", file=sys.stderr)
            return 2
        _, model_cfg = load_configs(args.config)
        store = _read_checkpoint(args.model, "model checkpoint")
        st, c = solve_with_model(inst, store, model_cfg)
        print(f"cmax {c}")
    else:
        st, c = dispatch(inst, Rule(args.method))
        print(f"cmax {c}")
    if args.out:
        Path(args.out).write_text(json.dumps(schedule_records(st), indent=2))
    if args.gantt:
        gantt_svg(st, args.gantt)
    return 0


def _write_report(report, path) -> None:
    rows = [dict(zip(report.columns, row)) for row in report.rows]
    write_csv(rows, path, list(report.columns))


def _pool_from_args(args, train_cfg, rng) -> InstancePool:
    frozen = None
    if getattr(args, "instances", None):
        frozen = list(_read_input(_load_instance_dir, args.instances, "json").values())
    return InstancePool(train_cfg, rng, frozen=frozen)


def cmd_train_repr(args) -> int:
    train_cfg, model_cfg = load_configs(args.config)
    if args.epochs:
        train_cfg = dataclasses.replace(train_cfg, repr_epochs=args.epochs)
    seed = _seed_override(args.seed if args.seed is not None else train_cfg.seed)
    train_cfg = dataclasses.replace(train_cfg, seed=seed)
    rng = np.random.default_rng(seed)
    store = build_model(model_cfg, seed)
    pool = _pool_from_args(args, train_cfg, rng)
    report = train_representation(train_cfg, model_cfg, store, pool, rng)
    save_checkpoint(store, args.checkpoint)
    if args.log:
        _write_report(report, args.log)
    print(f"phase 1 done: final loss {report.rows[-1][-1]:.4f}, "
          f"checkpoint {args.checkpoint}")
    return 0


def cmd_train_policy(args) -> int:
    train_cfg, model_cfg = load_configs(args.config)
    if args.epochs:
        train_cfg = dataclasses.replace(train_cfg, policy_epochs=args.epochs)
    if args.batch:
        train_cfg = dataclasses.replace(train_cfg, batch_size=args.batch)
    seed = _seed_override(args.seed if args.seed is not None else train_cfg.seed)
    train_cfg = dataclasses.replace(train_cfg, seed=seed)
    rng = np.random.default_rng(seed + 1)
    store = build_model(model_cfg, seed)
    if args.skip_phase1:
        pass  # baseline: the freshly initialized encoder is frozen as-is
    else:
        if not args.encoder_ckpt:
            print("vg2s: error: train-policy requires --encoder-ckpt (or --skip-phase1)",
                  file=sys.stderr)
            return 2
        _load_encoder(store, args.encoder_ckpt)
    pool = _pool_from_args(args, train_cfg, rng)
    report = train_policy(train_cfg, model_cfg, store, pool, rng)
    save_checkpoint(store, args.checkpoint)
    if args.log:
        _write_report(report, args.log)
    print(f"phase 2 done: final mean cmax {report.rows[-1][-1]:.2f}, "
          f"checkpoint {args.checkpoint}")
    return 0


def _load_ubs(path: str) -> dict[str, int]:
    """Read a JSON object mapping instance id -> best-known makespan.  Any
    value but a JSON integer >= 1 ends the program with one error line and
    exit status 2."""
    text = _read_input(Path.read_text, Path(path))
    try:
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("expected a JSON object of instance id -> makespan")
        for name, val in raw.items():
            if isinstance(val, bool) or not isinstance(val, int) or val < 1:
                raise ValueError(f"{name}: best-known makespan must be an integer "
                                 f">= 1, got {json.dumps(val)}")
    except ValueError as exc:
        print(f"vg2s: error: ub file {path}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    return raw


def cmd_eval(args) -> int:
    instances = _read_input(_load_instance_dir, args.dir, args.format)
    ubs = _load_ubs(args.ub_file) if args.ub_file else {}
    store = model_cfg = None
    if "vg2s" in args.methods:
        if not args.model:
            print("vg2s: error: eval with method vg2s requires --model", file=sys.stderr)
            return 2
        _, model_cfg = load_configs(args.config)
        store = _read_checkpoint(args.model, "model checkpoint")
    rows = eval_bench(instances, args.methods, ubs, store=store,
                      model_cfg=model_cfg, oracle_budget=args.budget)
    write_csv(rows, args.out, ["instance", "size", "method", "cmax", "ub", "gap"])
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_export_latents(args) -> int:
    _, model_cfg = load_configs(args.config)
    store = _read_checkpoint(args.model, "model checkpoint")
    instances = _read_input(_load_instance_dir, args.instances, "json")
    rows = export_latents(instances, store, model_cfg)
    columns = ["instance"] + [f"mu_{i}" for i in range(model_cfg.d_latent)] + ["greedy_cmax"]
    write_csv(rows, args.out, columns)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_similarity(args) -> int:
    if not 1 <= args.machines <= args.jobs:
        print(f"vg2s: error: similarity needs 1 <= --machines <= --jobs, got "
              f"--jobs {args.jobs} --machines {args.machines}", file=sys.stderr)
        return 2
    store = model_cfg = rule = None
    if args.rule:
        rule = Rule(args.rule)
    else:
        if not args.model:
            print("vg2s: error: similarity requires --model or --rule", file=sys.stderr)
            return 2
        _, model_cfg = load_configs(args.config)
        store = _read_checkpoint(args.model, "model checkpoint")
    rows = pdr_similarity(args.count, args.jobs, args.machines,
                          _seed_override(args.seed),
                          store=store, model_cfg=model_cfg, rule=rule)
    write_csv(rows, args.out,
              ["instance", "step", "completed_ops", "pt_rank", "num_available"])
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_gap(args) -> int:
    try:
        if args.baseline is not None:
            value = improvement_rate(args.baseline, args.cmax)
        else:
            value = optimality_gap(args.cmax, args.ub)
    except ValueError as exc:  # a nonpositive reference makespan
        print(f"vg2s: error: gap: {exc}", file=sys.stderr)
        return 2
    print(f"{value:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vg2s",
                                     description="Job-shop scheduling lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate random instances as JSON")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("parse", help="parse and validate an instance file")
    p.add_argument("file")
    p.add_argument("--format", choices=["orlib", "taillard", "json"], required=True)
    p.add_argument("--json", action="store_true", help="print the native JSON form")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("solve", help="solve one instance")
    p.add_argument("file")
    p.add_argument("--format", choices=["orlib", "taillard", "json"], default="orlib")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--model")
    p.add_argument("--config")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--out", help="schedule JSON output path")
    p.add_argument("--gantt", help="Gantt SVG output path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("train-repr", help="phase 1: representation learning")
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.add_argument("--instances", help="directory of JSON instances (frozen pool)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--log", help="per-epoch loss CSV path")
    p.set_defaults(func=cmd_train_repr)

    p = sub.add_parser("train-policy", help="phase 2: policy learning")
    p.add_argument("--encoder-ckpt")
    p.add_argument("--skip-phase1", action="store_true",
                   help="baseline: freeze a randomly initialized encoder")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.add_argument("--instances", help="directory of JSON instances (frozen pool)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--log", help="per-epoch loss CSV path")
    p.set_defaults(func=cmd_train_policy)

    p = sub.add_parser("eval", help="benchmark evaluation report")
    p.add_argument("--dir", required=True)
    p.add_argument("--format", choices=["orlib", "taillard", "json"], default="orlib")
    p.add_argument("--methods", nargs="+", required=True, choices=METHODS)
    p.add_argument("--ub-file", help="JSON mapping instance id -> best-known cmax")
    p.add_argument("--model")
    p.add_argument("--config")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-latents", help="latent-mean CSV for projection")
    p.add_argument("--model", required=True)
    p.add_argument("--config")
    p.add_argument("--instances", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_latents)

    p = sub.add_parser("similarity", help="dispatching-rule similarity traces")
    p.add_argument("--model")
    p.add_argument("--rule", choices=PDR_METHODS)
    p.add_argument("--config")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--jobs", type=int, default=6)
    p.add_argument("--machines", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_similarity)

    p = sub.add_parser("gap", help="optimality gap / improvement rate")
    p.add_argument("cmax", type=float)
    ref = p.add_mutually_exclusive_group(required=True)
    ref.add_argument("--ub", type=float, help="best-known makespan: print the optimality gap")
    ref.add_argument("--baseline", type=float, help="baseline makespan: print the improvement rate")
    p.set_defaults(func=cmd_gap)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
