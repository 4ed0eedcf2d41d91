"""Two-phase training: variational representation learning, then policy
learning against the frozen encoder, with instance-pool management."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .checkpoint import ParamStore
from .env import BatchState, ScheduleState, state_features
from .graph import HeteroGraph, build_graph
from .instance import GenConfig, Instance, generate_random
from .policy import (NonFiniteLogits, build_critic_params, build_policy_params,
                     critic_value, decode_step, log_prob, project_keys, select_action)
from .vge import (ModelConfig, build_decoder_params, build_encoder_params,
                  check_fields, latent, representation_loss)
from . import vge

ENCODER_SECTIONS = ("encoder.", "latent.", "decoder.")


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    repr_epochs: int = 2000
    policy_epochs: int = 3000
    batch_size: int = 8
    lr_repr: float = 1e-2          # alpha
    lr_policy: float = 1e-3        # beta
    alpha_entropy: float = 0.01
    pool_refresh: int = 5
    pool_size: int = 64
    seed: int = 0

    def __post_init__(self):
        check_fields(self, {"seed": 0})
        for name in ("lr_repr", "lr_policy"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class LossReport:
    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)

    def append(self, *values):
        self.rows.append(tuple(values))


class InstancePool:
    """Either a frozen instance list or a generated pool of
    max(batch_size, pool_size) slots, redrawn every `pool_refresh` epochs.

    A refresh draws one seed per slot and builds nothing.  Slot i's
    instance is generate_random(gen_cfg, default_rng(seed_i)), made the
    first time `instance(i)` asks for it; its graph is built the first time
    `graph(i)` does.  Both are kept until the next refresh (for a frozen
    pool, for good), so an epoch pays only for the slots it samples."""

    def __init__(self, cfg: TrainConfig, rng: np.random.Generator,
                 frozen: list[Instance] | None = None,
                 gen_cfg: GenConfig | None = None):
        self.cfg = cfg
        self.rng = rng
        self.frozen = frozen
        self.gen_cfg = gen_cfg or GenConfig()
        self.generation = -1
        self.seeds = np.zeros(0, dtype=np.int64)
        self._instances: list[Instance | None] = []
        self._graphs: list[HeteroGraph | None] = []
        if frozen is not None:
            if not frozen:
                raise ValueError("frozen instance list is empty")
            self._instances = list(frozen)
            self._graphs = [None] * len(frozen)

    def refresh(self, epoch: int) -> bool:
        """Redraw the slot seeds if due; returns True when contents changed."""
        if self.frozen is not None:
            return False
        gen = (epoch - 1) // self.cfg.pool_refresh
        if gen == self.generation:
            return False
        self.generation = gen
        size = max(self.cfg.batch_size, self.cfg.pool_size)
        self.seeds = self.rng.integers(2**63, size=size)
        self._instances = [None] * size
        self._graphs = [None] * size
        return True

    def instance(self, i: int) -> Instance:
        inst = self._instances[i]
        if inst is None:
            rng = np.random.default_rng(int(self.seeds[i]))
            inst = self._instances[i] = generate_random(self.gen_cfg, rng)
        return inst

    def graph(self, i: int) -> HeteroGraph:
        graph = self._graphs[i]
        if graph is None:
            graph = self._graphs[i] = build_graph(self.instance(i))
        return graph

    def __len__(self) -> int:
        """The number of slots, made or not."""
        return len(self._instances)

    def sample(self) -> int:
        return int(self.rng.integers(len(self)))


def build_model(cfg: ModelConfig, seed: int) -> ParamStore:
    rng = np.random.default_rng(seed)
    store = ParamStore()
    build_encoder_params(store, cfg, rng)
    build_decoder_params(store, cfg, rng)
    build_policy_params(store, cfg, rng)
    build_critic_params(store, cfg, rng)
    return store


def _sgd_step(params, lr: float):
    for p in params:
        p.data -= lr * p.grad


def train_representation(cfg: TrainConfig, model_cfg: ModelConfig,
                         store: ParamStore, pool: InstancePool,
                         rng: np.random.Generator) -> LossReport:
    """Phase 1: per epoch, sample one instance, sample z, reconstruct, and
    take one gradient step on the encoder, latent, and generative params."""
    params = [p for s in ENCODER_SECTIONS for p in store.section(s)]
    report = LossReport(("epoch", "kl", "node", "edge", "total"))
    for epoch in range(1, cfg.repr_epochs + 1):
        pool.refresh(epoch)
        graph = pool.graph(pool.sample())
        ad.zero_grad(params)
        with ad.Tape() as tape:
            loss, parts = representation_loss(graph, store, model_cfg, rng)
        if not np.isfinite(parts["total"]):
            raise TrainingDiverged(f"non-finite representation loss at epoch {epoch}")
        ad.backward(loss)
        _check_gradients(params, "representation", epoch)
        _sgd_step(params, cfg.lr_repr)
        # A tape and its tensors form a reference cycle; break it so the
        # epoch's activations are freed by reference counting, not whenever
        # the cyclic collector next runs.
        tape.nodes.clear()
        report.append(epoch, parts["kl"], parts["node"], parts["edge"], parts["total"])
    return report


@dataclass
class Decisions:
    """Every decision of a lockstep batch, as (B, T, ...) arrays with T the
    longest episode: what decode_step read at each one, the action and
    its log-probability under the policy that sampled it.

    `feats` holds each decision's `state_features`, one slot per available
    op, zero-padded to n_max slots, so it grows with the number of jobs
    rather than of ops; `ops` maps each slot to its op row of `h_real`, -1
    for a slot after the last available op.  `attend` is decode_step's
    glimpse mask over the zero-padded op rows.  Steps after an episode's
    end are padding: op row 0 alone attended and in slot 0, action 0,
    log-probability 0, and `valid` False.
    """

    z: np.ndarray          # (B, d_latent)
    h_real: np.ndarray     # (B, N, d_latent)
    actions: np.ndarray    # (B, T)
    log_probs: np.ndarray  # (B, T)
    feats: np.ndarray      # (B, T, n_max, 6)
    attend: np.ndarray     # (B, T, N)
    ops: np.ndarray        # (B, T, n_max)
    valid: np.ndarray      # (B, T)


def scaled_q(inst: Instance, makespan: int) -> float:
    return -makespan / inst.load_lower_bound()


def rollout(insts: list[Instance], z: np.ndarray, h_real: list[np.ndarray],
            store: ParamStore, model_cfg: ModelConfig, mode: str,
            rng: np.random.Generator | None = None) -> tuple[Decisions, list[ScheduleState]]:
    """Run one full episode per instance, all in lockstep, on plain arrays
    (autodiff.plain, so no Tensor is built); returns the decisions and each
    episode's complete schedule.

    z: latent vectors (B, d_latent); h_real: each instance's real-node
    embeddings (n*m, d_latent).  Op rows are zero-padded to the largest
    n*m, and the episodes share one BatchState.  Step t is one
    state_features, one decode_step and one BatchState.step over the
    episodes that have a t-th decision, so an episode leaves the batch
    when its schedule is complete; until the first does, the batch is
    addressed by a slice.  `log_prob_totals` scores the recorded decisions
    on a tape.
    """
    sizes = np.array([inst.num_ops for inst in insts])
    count, width = len(insts), int(sizes.max())
    padded = np.zeros((count, width, model_cfg.d_latent))
    for e, rows in enumerate(h_real):
        padded[e, :sizes[e]] = rows
    valid = np.arange(width) < sizes[:, None]
    ops = np.full((count, width, max(inst.n for inst in insts)), -1)
    ops[~valid, 0] = 0  # op row 0 after the end
    dec = Decisions(z, padded, np.zeros((count, width), dtype=np.int64), np.zeros((count, width)),
                    np.zeros(ops.shape + (6,)), ~valid[..., None] & (np.arange(width) == 0),
                    ops, valid)
    params = {name: store[name].data for name in store.names()}
    all_keys = project_keys(padded, params, model_cfg, ad.plain)
    batch = BatchState(insts)
    ends = set(sizes.tolist())
    active, keys, first = slice(None), all_keys, np.full((count, 1), -1)
    for t in range(width):
        if t in ends:
            active = np.flatnonzero(sizes > t)
            keys = all_keys.rows(active)
        feats, slot_ops = state_features(batch, active)
        slots = feats.shape[1]
        dec.feats[active, t, :slots] = feats
        dec.ops[active, t, :slots] = slot_ops
        attend = ~batch.scheduled[active]
        dec.attend[active, t] = attend
        prev = dec.actions[active, t - 1:t] if t else first
        logits = decode_step(z[active], prev, keys, feats[:, None], attend[:, None],
                             slot_ops[:, None], params, model_cfg, ad.plain)
        picks, lps = select_action(logits[:, 0], mode, rng)
        dec.actions[active, t] = picks
        dec.log_probs[active, t] = lps
        batch.step(active, picks)
    return dec, [batch.schedule(e) for e in range(count)]


def log_prob_totals(dec: Decisions, store: ParamStore, model_cfg: ModelConfig) -> ad.Tensor:
    """Taped (B,) sums of each episode's log-probabilities under the current
    policy, teacher forced through the recorded decisions: one project_keys
    and one decode_step over all B * T of them, padded ones weighted 0."""
    prev = np.concatenate([np.full((len(dec.actions), 1), -1), dec.actions[:, :-1]], axis=1)
    logits = decode_step(dec.z, prev, project_keys(dec.h_real, store, model_cfg), dec.feats,
                         dec.attend, dec.ops, store, model_cfg)
    return ad.tsum(ad.mul(log_prob(logits, dec.actions), dec.valid * 1.0), axis=1)


def policy_loss(log_prob_total: ad.Tensor, advantages: np.ndarray,
                alpha_entropy: float) -> ad.Tensor:
    """Batch-mean surrogate whose gradient is the score-function estimator:
    each episode contributes (A - alpha_entropy) * log pi with the
    advantage treated as a constant."""
    terms = ad.mul(log_prob_total, advantages - alpha_entropy)
    return ad.mul(ad.tsum(terms), 1.0 / len(advantages))


def critic_loss(values: ad.Tensor, targets: np.ndarray) -> ad.Tensor:
    if values.shape != targets.shape:
        raise ValueError("mismatched batch lengths")
    return ad.mul(ad.tsum(ad.square(ad.sub(values, targets))), 1.0 / len(targets))


def _check_gradients(params, what: str, epoch: int) -> None:
    if not all(np.isfinite(p.grad).all() for p in params):
        raise TrainingDiverged(f"non-finite {what} gradient at epoch {epoch}")


def embed(graph: HeteroGraph, store: ParamStore,
          model_cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frozen-encoder outputs of one instance as plain arrays: the real-node
    embeddings and the latent (mu, sigma), evaluated at eps = 0."""
    h = vge.encode(graph, store, model_cfg)
    sample = latent(h, store, model_cfg, eps=np.zeros(model_cfg.d_latent))
    return (h.data[: graph.instance.num_ops].copy(), sample.mu.data.copy(),
            sample.sigma.data.copy())


class EncoderCache:
    """Frozen-encoder outputs per pool generation: real-node embeddings and
    the latent (mu, sigma) of every instance, computed without a tape."""

    def __init__(self, store: ParamStore, model_cfg: ModelConfig):
        self.store = store
        self.model_cfg = model_cfg
        self.entries: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def rebuild(self, pool: InstancePool):
        self.entries = [embed(pool.graph(i), self.store, self.model_cfg)
                        for i in range(len(pool))]

    def draw(self, idx: int, rng: np.random.Generator):
        h_real, mu, sigma = self.entries[idx]
        eps = rng.standard_normal(mu.shape[0])
        return h_real, mu + eps * sigma


def train_policy(cfg: TrainConfig, model_cfg: ModelConfig, store: ParamStore,
                 pool: InstancePool, rng: np.random.Generator) -> LossReport:
    """Phase 2: the encoder/latent/decoder sections are read-only; per
    epoch, one untaped lockstep rollout samples B episodes, one taped pass
    scores all their decisions, and one descent step follows on critic
    loss minus policy objective, which ascends the policy and descends the
    critic (the two losses share no parameter)."""
    params = store.section("policy.") + store.section("critic.")
    cache = EncoderCache(store, model_cfg)
    pool.refresh(1)
    cache.rebuild(pool)
    columns = ["epoch", "policy_loss", "critic_loss", "mean_cmax"]
    report = LossReport(tuple(columns))

    for epoch in range(1, cfg.policy_epochs + 1):
        if pool.refresh(epoch):
            cache.rebuild(pool)
        insts, h_real, zs = [], [], []
        for _ in range(cfg.batch_size):
            idx = pool.sample()
            h, z = cache.draw(idx, rng)
            insts.append(pool.instance(idx))
            h_real.append(h)
            zs.append(z)
        z = np.stack(zs)
        try:
            dec, states = rollout(insts, z, h_real, store, model_cfg, "sample", rng=rng)
        except NonFiniteLogits:  # finite but huge parameters or latents
            raise TrainingDiverged(f"non-finite policy logits at epoch {epoch}") from None
        makespans = [st.makespan() for st in states]
        q = np.array([scaled_q(inst, c) for inst, c in zip(insts, makespans)])
        # Python's left-to-right sum; numpy's row sums round differently.
        targets = q - cfg.alpha_entropy * np.array([sum(row) for row in dec.log_probs.tolist()])
        with ad.Tape() as tape:
            log_prob_total = log_prob_totals(dec, store, model_cfg)
            values = critic_value(ad.Tensor(z), store, model_cfg)
            l_pol = policy_loss(log_prob_total, q - values.data, cfg.alpha_entropy)
            l_cr = critic_loss(values, targets)
            if not (np.isfinite(l_pol.data) and np.isfinite(l_cr.data)):
                raise TrainingDiverged(f"non-finite policy/critic loss at epoch {epoch}")
            ad.zero_grad(params)
            ad.backward(ad.sub(l_cr, l_pol))
        _check_gradients(params, "policy/critic", epoch)
        _sgd_step(params, cfg.lr_policy)
        # An overflowing step would otherwise surface in the next rollout;
        # phase 1's parameters are checked when the checkpoint is saved.
        if not all(np.isfinite(p.data).all() for p in params):
            raise TrainingDiverged(f"non-finite policy/critic parameter after epoch {epoch}")
        tape.nodes.clear()  # as in train_representation
        report.append(epoch, float(l_pol.data), float(l_cr.data),
                      float(np.mean(makespans)))
    return report
