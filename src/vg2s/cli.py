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
from .policy import NonFiniteLogits
from .rules import Rule, dispatch, improvement_rate, optimality_gap
from .trainer import (ENCODER_SECTIONS, InstancePool, TrainConfig, TrainingDiverged,
                      build_model, train_policy, train_representation)
from .vge import RETIRED_PARAMS, ModelConfig

METHODS = [*PDR_METHODS, "oracle", "vg2s"]
OUTPUT_FILES = ("out", "gantt", "log", "checkpoint")  # the argparse dests of output files
INSTANCE_DIR = "directory of instances, .json files as JSON and .txt as OR-Library"
PARSERS = {"orlib": parse_orlib, "taillard": parse_taillard, "json": Instance.from_json}


class UsageError(Exception):
    """A bad input from the command line or a file it names; `main` prints
    it as one `vg2s: error:` line and exits with status 2."""


def load_configs(path: str | None, args=None, **options: str) -> tuple[TrainConfig, ModelConfig]:
    """Read {"train": {...}, "model": {...}} JSON; missing keys keep defaults.
    Then each TrainConfig field named in `options` (field=dest) takes the
    value of the command-line option args.<dest> when it is given, and the
    seed takes VG2S_SEED when that is set.  An unreadable file, malformed or
    too deep JSON, an unknown key or a value the configs' own checks reject
    raises UsageError naming the file, or the option."""
    train_cfg, model_cfg = TrainConfig(), ModelConfig()
    if path:
        try:
            raw = json.loads(Path(path).read_text())
            if not isinstance(raw, dict):
                raise ValueError('expected a JSON object with "train" and "model"')
            train_cfg = TrainConfig(**raw.get("train", {}))
            model_cfg = ModelConfig(**raw.get("model", {}))
        except (OSError, TypeError, ValueError, RecursionError) as exc:
            raise UsageError(f"config {path}: {exc}") from None
    given = {name: (f"--{dest}", getattr(args, dest, None)) for name, dest in options.items()}
    env = os.environ.get("VG2S_SEED")
    if "seed" in options and env:
        try:
            env = int(env)
        except ValueError:
            pass  # not an integer: the seed check below rejects it by name
        given["seed"] = ("VG2S_SEED", env)
    for name, (option, value) in given.items():
        if value is not None:
            try:
                train_cfg = dataclasses.replace(train_cfg, **{name: value})
            except ValueError as exc:
                raise UsageError(f"{option}: {exc}") from None
    return train_cfg, model_cfg


def _seed(args) -> int:
    """--seed, or VG2S_SEED when set, checked as TrainConfig checks its seed."""
    return load_configs(None, args, seed="seed")[0].seed


def _read_input(load, path: str, *args):
    """load(path, *args); a missing or unreadable input path raises UsageError."""
    try:
        return load(path, *args)
    except OSError as exc:
        raise UsageError(f"{exc.filename or path}: {exc.strerror or exc}") from None


def _read_checkpoint(store: ParamStore, path: str, role: str,
                     prefixes: tuple[str, ...] = ("",)) -> None:
    """Copy into `store` every parameter under `prefixes` from the
    checkpoint at `path`, after dropping the parameters an older model had
    and this one retired (names matching vge.RETIRED_PARAMS).  A missing,
    unreadable, cut or malformed file, or one whose names or shapes under
    `prefixes` differ from the store's, raises UsageError."""
    try:
        loaded = _read_input(load_checkpoint, path)
    except ValueError as exc:  # the message starts with the path
        raise UsageError(f"{role} {exc}") from None
    trained = ParamStore()
    for name in loaded.names():
        if not RETIRED_PARAMS.fullmatch(name):
            trained.add(name, loaded[name].data)
    try:
        store.update(trained, prefixes)
    except ValueError as exc:
        raise UsageError(f"{role} {path}: {exc}") from None


def _load_model(args, missing: str) -> tuple[ParamStore, ModelConfig]:
    """The model the --config settings build, holding the --model
    checkpoint's values; without --model, raises UsageError with the
    message `missing`.  A checkpoint whose parameter names or shapes differ
    from that model's raises UsageError naming the first such parameter."""
    if not args.model:
        raise UsageError(missing)
    _, model_cfg = load_configs(args.config)
    store = build_model(model_cfg, 0)
    _read_checkpoint(store, args.model, "model checkpoint")
    return store, model_cfg


def _load_instance(path: str, fmt: str) -> Instance:
    """Parse the instance file at `path`; a malformed or too deeply nested one
    raises UsageError naming the file, with the parser's message (and line number)."""
    parse = PARSERS[fmt]
    try:
        return parse(Path(path).read_text())
    except KeyError as exc:  # a JSON instance without "n", "m" or "jobs"
        raise UsageError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError, RecursionError) as exc:
        raise UsageError(f"{path}: {exc}") from None


def _check_nonnegative(args) -> None:
    """Reject a negative --budget or --count before any work."""
    for dest in ("budget", "count"):
        value = getattr(args, dest, None)
        if value is not None and value < 0:
            raise UsageError(f"--{dest} must be >= 0, got {value}")


def _check_output_dirs(args) -> None:
    """Every output file named on the command line must go into an existing
    directory and not be one, so a bad path fails before any work or write."""
    for dest in OUTPUT_FILES:
        path = getattr(args, dest, None)
        if path and not Path(path).parent.is_dir():
            raise UsageError(f"--{dest} {path}: directory {Path(path).parent} does not exist")
        if path and Path(path).is_dir():
            raise UsageError(f"--{dest} {path}: is a directory, not a file")


def _check_canvas(frozen: dict[str, Instance] | None, gen: GenConfig, canvas: int) -> None:
    """Every instance phase 1 can draw, from the frozen pool or from `gen`,
    must fit the model's canvas of `canvas` operations."""
    holds = f"the model's canvas holds {canvas} (canvas_jobs x canvas_machines)"
    if frozen is None and gen.n_hi * gen.m_hi > canvas:
        raise UsageError(f"generated instances have up to {gen.n_hi} x {gen.m_hi} "
                         f"operations, but {holds}")
    for name, inst in (frozen or {}).items():
        if inst.num_ops > canvas:
            raise UsageError(f"--instances: instance {name} has {inst.num_ops} operations, but {holds}")


def _load_instance_dir(path: str, fmt: str) -> dict[str, Instance]:
    out = {}
    for p in sorted(Path(path).iterdir()):
        if p.suffix in (".txt", ".json"):
            use_fmt = "json" if p.suffix == ".json" else fmt
            out[p.stem] = _load_instance(str(p), use_fmt)
    return out


def cmd_gen(args) -> int:
    rng = np.random.default_rng(_seed(args))
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, at the path or above it
        raise UsageError(f"--out {out_dir}: {exc.strerror or exc}") from None
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
        store, model_cfg = _load_model(args, "solve --method vg2s requires --model")
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


def cmd_train(args) -> int:
    """train-repr (phase 1) and train-policy (phase 2, on the frozen encoder
    of --encoder-ckpt or, with --skip-phase1, a freshly initialized one)."""
    policy = args.command == "train-policy"
    epochs = "policy_epochs" if policy else "repr_epochs"
    train_cfg, model_cfg = load_configs(args.config, args, **{epochs: "epochs"},
                                        batch_size="batch", seed="seed")
    store = build_model(model_cfg, train_cfg.seed)
    if policy and not args.skip_phase1:
        if not args.encoder_ckpt:
            raise UsageError("train-policy requires --encoder-ckpt (or --skip-phase1)")
        _read_checkpoint(store, args.encoder_ckpt, "encoder checkpoint", ENCODER_SECTIONS)
    rng = np.random.default_rng(train_cfg.seed + 1 if policy else train_cfg.seed)
    frozen = None
    if args.instances:
        frozen = _read_input(_load_instance_dir, args.instances, "orlib")
    try:
        pool = InstancePool(train_cfg, rng,
                            frozen=None if frozen is None else list(frozen.values()))
    except ValueError as exc:  # an empty frozen pool
        raise UsageError(f"--instances {args.instances}: {exc}") from None
    if not policy:  # phase 1 reconstructs every instance on the model's canvas
        _check_canvas(frozen, pool.gen_cfg, model_cfg.canvas)
    try:
        report = (train_policy if policy else train_representation)(
            train_cfg, model_cfg, store, pool, rng)
    except TrainingDiverged as exc:
        raise UsageError(f"training diverged: {exc}") from None
    try:
        save_checkpoint(store, args.checkpoint)
    except ValueError as exc:  # the last steps left a non-finite parameter
        raise UsageError(f"training diverged: {exc}") from None
    if args.log:
        write_csv([dict(zip(report.columns, row)) for row in report.rows], args.log,
                  list(report.columns))
    final = report.rows[-1][-1]
    done = (f"phase 2 done: final mean cmax {final:.2f}" if policy
            else f"phase 1 done: final loss {final:.4f}")
    print(f"{done}, checkpoint {args.checkpoint}")
    return 0


def _load_ubs(path: str) -> dict[str, int]:
    """Read a JSON object mapping instance id -> best-known makespan.  Any
    value but a JSON integer in [1, 2^63 - 1] raises UsageError; no
    makespan is larger, since an Instance's duration sums fit int64."""
    try:
        raw = json.loads(_read_input(Path.read_text, Path(path)))
        if not isinstance(raw, dict):
            raise ValueError("expected a JSON object of instance id -> makespan")
        for name, val in raw.items():
            if isinstance(val, bool) or not isinstance(val, int) or not 1 <= val < 2**63:
                raise ValueError(f"{name}: best-known makespan must be an integer "
                                 f"in [1, 2^63 - 1], got {json.dumps(val)}")
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"ub file {path}: {exc}") from None
    return raw


def cmd_eval(args) -> int:
    instances = _read_input(_load_instance_dir, args.dir, args.format)
    ubs = _load_ubs(args.ub_file) if args.ub_file else {}
    store = model_cfg = None
    if "vg2s" in args.methods:
        store, model_cfg = _load_model(args, "eval with method vg2s requires --model")
    rows = eval_bench(instances, args.methods, ubs, store=store,
                      model_cfg=model_cfg, oracle_budget=args.budget)
    write_csv(rows, args.out, ["instance", "size", "method", "cmax", "ub", "gap"])
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_export_latents(args) -> int:
    store, model_cfg = _load_model(args, "export-latents requires --model")
    instances = _read_input(_load_instance_dir, args.instances, "orlib")
    rows = export_latents(instances, store, model_cfg)
    columns = ["instance"] + [f"mu_{i}" for i in range(model_cfg.d_latent)] + ["greedy_cmax"]
    write_csv(rows, args.out, columns)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_similarity(args) -> int:
    if not 1 <= args.machines <= args.jobs:
        raise UsageError(f"similarity needs 1 <= --machines <= --jobs, got "
                         f"--jobs {args.jobs} --machines {args.machines}")
    store = model_cfg = rule = None
    if args.rule:
        rule = Rule(args.rule)
    else:
        store, model_cfg = _load_model(args, "similarity requires --model or --rule")
    rows = pdr_similarity(args.count, args.jobs, args.machines, _seed(args),
                          store=store, model_cfg=model_cfg, rule=rule)
    write_csv(rows, args.out,
              ["instance", "step", "completed_ops", "pt_rank", "num_available"])
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_gap(args) -> int:
    for name, value in (("cmax", args.cmax), ("--ub", args.ub), ("--baseline", args.baseline)):
        if value is not None and not np.isfinite(value):
            raise UsageError(f"gap: {name} must be a finite number, got {value}")
    try:
        if args.baseline is not None:
            value = improvement_rate(args.baseline, args.cmax)
        else:
            value = optimality_gap(args.cmax, args.ub)
    except ValueError as exc:  # a nonpositive reference makespan
        raise UsageError(f"gap: {exc}") from None
    if not np.isfinite(value):
        raise UsageError(f"gap: the result overflows ({value})")
    print(f"{value:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vg2s",
                                     description="Job-shop scheduling lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate random instances as JSON")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", dest="out_dir", required=True,
                   help="directory for the instances; created if missing")
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
    p.add_argument("--instances", help=INSTANCE_DIR + " (frozen pool)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--log", help="per-epoch loss CSV path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("train-policy", help="phase 2: policy learning")
    p.add_argument("--encoder-ckpt")
    p.add_argument("--skip-phase1", action="store_true",
                   help="baseline: freeze a randomly initialized encoder")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.add_argument("--instances", help=INSTANCE_DIR + " (frozen pool)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--log", help="per-epoch loss CSV path")
    p.set_defaults(func=cmd_train)

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
    p.add_argument("--instances", required=True, help=INSTANCE_DIR)
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
    """Run one command.  A bad input ends it with one `vg2s: error:` line on
    stderr and exit status 2, as argparse ends its own usage errors."""
    args = build_parser().parse_args(argv)
    try:
        _check_output_dirs(args)
        _check_nonnegative(args)
        return args.func(args)
    except (UsageError, NonFiniteLogits) as exc:  # the latter: a model that diverged
        print(f"vg2s: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


if __name__ == "__main__":
    sys.exit(main())
