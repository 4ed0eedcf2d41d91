"""The benchmark's workloads.

Each workload has a `setup(seed)` that builds everything a user would build
before the first unit of work (the part `setup_s` times), and a
`block(state, rec)` that runs a few units back to back (closed loop, one
caller) and returns (attempted, failed) after checking every output.

Units: an epoch on `policy-train` and `repr-train`, one instance evaluated
by the greedy model and all six dispatching rules on `eval`, one
branch-and-bound call on `oracle`.
"""

from __future__ import annotations

import dataclasses
import os
import time
from pathlib import Path

import numpy as np

from vg2s import bench, checkpoint, env, instance, oracle, rules, trainer
from vg2s.instance import GenConfig, Instance
from vg2s.rules import Rule
from vg2s.vge import ModelConfig

# Acceptance-criterion-7 model: the phase-2 run of the test gate.
POLICY_MODEL = ModelConfig(d_graph=16, d_latent=8, n_heads=2,
                           canvas_jobs=6, canvas_machines=6,
                           conv_channels=32, conv_channels_min=8,
                           glimpse_layers=1, glimpse_heads=2,
                           d_glimpse=8, d_logit=8, critic_hidden=16)
DEFAULT_MODEL = ModelConfig()
# Eval solves 8x8 instances, the middle of the default GenConfig's 25-81 ops.
# A p50 over that generator's whole size mix falls in a gap between size
# groups, and moved 17% between seeds.
EVAL_SHAPE = GenConfig(m_lo=8, m_hi=8, n_hi=8)
# Untrained eval weights come from one fixed seed: greedy decisions, and with
# them the per-step work, depend on the weights, which are the program's, not
# the input's.
EVAL_MODEL_SEED = 0

# Oracle library: FT06 plus 6x6 and 7x7 instances drawn by
# generate_random(GenConfig(m_lo=s, m_hi=s, n_hi=s), default_rng(seed)).
# Optima come from branch_and_bound run to proof; FT06 = 55 is the published
# one.  The set is fixed rather than seeded because proof effort differs
# tenfold between random instances, which would swamp any timing bound.
# Five calls per pass put p50 and p90 in the middle of one instance's
# repeated samples: FT06's and the 7x7's.  Each of those takes at least twice
# as long as the next faster instance, because the host's speed can swing by
# 1.7x within a run and closer neighbours would then trade places.
ORACLE_BUDGET = 25_000
ORACLE_LIBRARY = (  # (size, generator seed, optimum), besides FT06
    (5, 4, 408), (5, 7, 431), (6, 11, 513), (7, 0, 667),
)
FT06_OPTIMUM = 55


def schedule_ok(inst: Instance, st, makespan: int) -> bool:
    """The schedule replays through env.replay, op by op in start order, to
    the same start times and the reported makespan, which is at least the
    load lower bound."""
    if not st.done:
        return False
    order = sorted(range(inst.num_ops), key=lambda u: (int(st.start[u]), u))
    try:
        again = env.replay(inst, order)
    except env.ActionError:
        return False
    return (np.array_equal(again.start, st.start)
            and again.makespan() == makespan
            and makespan >= inst.load_lower_bound())


def oracle_ok(inst: Instance, optimum: int, best_rule: int, res) -> bool:
    """The incumbent replays to c_star, which lies between the load bound and
    the best rule's makespan and equals the optimum when proven."""
    if not inst.load_lower_bound() <= res.c_star <= best_rule:
        return False
    if res.proven and res.c_star != optimum:
        return False
    try:
        return env.replay(inst, res.schedule).makespan() == res.c_star
    except ValueError:  # an unavailable action, or an incomplete schedule
        return False


class EpochPool(trainer.InstancePool):
    """InstancePool that marks epoch boundaries.  Both training loops call
    refresh(epoch) once at the top of every epoch; train_policy calls it
    once more before filling its encoder cache (set `skip_next`).
    `offset` continues the epoch count across calls of the training loop,
    so a generated pool still regenerates every `pool_refresh` epochs."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.recorder = None
        self.offset = 0
        self.skip_next = False

    def refresh(self, epoch: int) -> bool:
        rec = self.recorder
        if rec is None:
            return super().refresh(self.offset + epoch)
        if self.skip_next:
            self.skip_next = False
        else:
            rec.begin(f"epoch {self.offset + epoch}")
        return rec.call("trainer.pool_refresh", super().refresh, self.offset + epoch)


@dataclasses.dataclass
class TrainState:
    cfg: trainer.TrainConfig
    store: object
    pool: EpochPool
    rng: np.random.Generator


class _Training:
    """A block is one call of the training loop for `block_epochs` epochs;
    an epoch fails if any loss it logged is non-finite, and every epoch of
    a block that raised TrainingDiverged fails."""

    block_epochs: int
    warmup_epochs: int
    cache_fill: bool  # the loop refreshes the pool once before its first epoch

    def __init__(self, block_epochs: int | None = None):
        if block_epochs is not None:
            self.block_epochs = block_epochs

    def _run(self, st: TrainState, epochs: int) -> trainer.LossReport:
        raise NotImplementedError

    def _warm_up(self, st: TrainState) -> TrainState:
        self._run(st, self.warmup_epochs)
        st.pool.offset += self.warmup_epochs
        return st

    def block(self, st: TrainState, rec):
        before = len(rec.units)
        st.pool.recorder = rec
        st.pool.skip_next = self.cache_fill
        try:
            report = self._run(st, self.block_epochs)
        except trainer.TrainingDiverged:
            report = None
        finally:
            rec.end()
            st.pool.recorder = None
            st.pool.offset += self.block_epochs
        attempted = len(rec.units) - before
        if report is None or len(report.rows) != attempted:
            return attempted, attempted
        return attempted, sum(not np.all(np.isfinite(row[1:])) for row in report.rows)


class PolicyTrain(_Training):
    """Phase 2 at the acceptance-criterion-7 config: 20 frozen 6x6
    instances, B=4, lr 1e-3."""

    name = "policy-train"
    block_epochs = 10
    warmup_epochs = 2
    cache_fill = True

    def setup(self, seed: int) -> TrainState:
        rng = np.random.default_rng(seed)
        gen = GenConfig(m_lo=6, m_hi=6, n_hi=6)
        frozen = [instance.generate_random(gen, rng) for _ in range(20)]
        cfg = trainer.TrainConfig(batch_size=4, lr_policy=1e-3, seed=seed)
        return self._warm_up(TrainState(cfg, trainer.build_model(POLICY_MODEL, seed),
                                        EpochPool(cfg, rng, frozen=frozen), rng))

    def _run(self, st: TrainState, epochs: int) -> trainer.LossReport:
        cfg = dataclasses.replace(st.cfg, policy_epochs=epochs)
        return trainer.train_policy(cfg, POLICY_MODEL, st.store, st.pool, st.rng)


class ReprTrain(_Training):
    """Phase 1 at the default ModelConfig with a generated pool (default
    GenConfig, 64 instances, regenerated every 5 epochs)."""

    name = "repr-train"
    block_epochs = 25
    warmup_epochs = 5
    cache_fill = False

    def setup(self, seed: int) -> TrainState:
        pool_seq, train_seq = np.random.SeedSequence(seed).spawn(2)
        cfg = trainer.TrainConfig(pool_size=64, pool_refresh=5, seed=seed)
        return self._warm_up(TrainState(cfg, trainer.build_model(DEFAULT_MODEL, seed),
                                        EpochPool(cfg, np.random.default_rng(pool_seq)),
                                        np.random.default_rng(train_seq)))

    def _run(self, st: TrainState, epochs: int) -> trainer.LossReport:
        cfg = dataclasses.replace(st.cfg, repr_epochs=epochs)
        return trainer.train_representation(cfg, DEFAULT_MODEL, st.store, st.pool, st.rng)


@dataclasses.dataclass
class EvalState:
    store: object
    rng: np.random.Generator
    load_s: float
    ckpt_bytes: int


class Eval:
    """Forward-only inference: per instance, a greedy solve with a model
    saved and loaded through the checkpoint format, then all six rules."""

    name = "eval"

    def __init__(self, scratch: Path, pass_size: int = 25):
        self.pass_size = pass_size
        self.scratch = scratch

    def setup(self, seed: int) -> EvalState:
        rng = np.random.default_rng(seed)
        path = self.scratch / f"eval-{os.getpid()}.ckpt"
        try:
            checkpoint.save_checkpoint(trainer.build_model(DEFAULT_MODEL, EVAL_MODEL_SEED), path)
            t0 = time.perf_counter()
            store = checkpoint.load_checkpoint(path)
            load_s = time.perf_counter() - t0
            size = path.stat().st_size
        finally:
            path.unlink(missing_ok=True)
        warm = instance.generate_random(GenConfig(m_lo=5, m_hi=5, n_hi=5),
                                        np.random.default_rng(seed + 1))
        bench.solve_with_model(warm, store, DEFAULT_MODEL)
        return EvalState(store, rng, load_s, size)

    def block(self, st: EvalState, rec):
        failed = 0
        for _ in range(self.pass_size):
            inst = instance.generate_random(EVAL_SHAPE, st.rng)
            rec.begin(f"instance {len(rec.units)}")
            solved = bench.solve_with_model(inst, st.store, DEFAULT_MODEL)
            ruled = [rules.dispatch(inst, rule) for rule in Rule]
            rec.end()
            if not all(schedule_ok(inst, s, c) for s, c in [solved, *ruled]):
                failed += 1
        return self.pass_size, failed


@dataclasses.dataclass
class OracleState:
    library: list[tuple[str, Instance, int, int]]  # (name, instance, optimum, best rule makespan)
    rng: np.random.Generator


class Oracle:
    """Branch-and-bound at a fixed node budget over the fixed library; the
    seed sets the call order of every pass."""

    name = "oracle"

    def __init__(self, root: Path, library=ORACLE_LIBRARY):
        self.entries = library
        self.ft06 = root / "src" / "vg2s" / "data" / "ft06.txt"

    def setup(self, seed: int) -> OracleState:
        insts = [("ft06", instance.parse_orlib(self.ft06.read_text()), FT06_OPTIMUM)]
        for size, gen_seed, optimum in self.entries:
            gen = GenConfig(m_lo=size, m_hi=size, n_hi=size)
            insts.append((f"{size}x{size} seed {gen_seed}",
                          instance.generate_random(gen, np.random.default_rng(gen_seed)),
                          optimum))
        library = [(name, inst, opt, min(rules.dispatch(inst, r)[1] for r in Rule))
                   for name, inst, opt in insts]
        return OracleState(library, np.random.default_rng(seed))

    def block(self, st: OracleState, rec):
        failed = 0
        for i in st.rng.permutation(len(st.library)):
            name, inst, optimum, best_rule = st.library[i]
            rec.begin(name)
            res = oracle.branch_and_bound(inst, budget=ORACLE_BUDGET)
            rec.count("oracle.nodes", res.nodes_explored)
            rec.count("oracle.proven", int(res.proven))
            rec.end()
            if not oracle_ok(inst, optimum, best_rule, res):
                failed += 1
        return len(st.library), failed
