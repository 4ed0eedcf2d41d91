"""Two-phase training: variational representation learning, then policy
learning against the frozen encoder, with instance-pool management."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .checkpoint import ParamStore
from .env import reset, state_features
from .graph import HeteroGraph, build_graph
from .instance import GenConfig, Instance, generate_random
from .policy import (build_critic_params, build_policy_params, critic_value,
                     decode_step, log_prob, project_keys, select_action)
from .vge import (ModelConfig, build_decoder_params, build_encoder_params,
                  latent, representation_loss)
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
    scale_q: bool = True
    seed: int = 0

    def __post_init__(self):
        for name in ("repr_epochs", "policy_epochs", "batch_size",
                     "lr_repr", "lr_policy", "pool_refresh", "pool_size"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class LossReport:
    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)

    def append(self, *values):
        self.rows.append(tuple(values))


class InstancePool:
    """Either a frozen instance list or a generated pool regenerated every
    `refresh` epochs; graphs are built lazily and cached per generation."""

    def __init__(self, cfg: TrainConfig, rng: np.random.Generator,
                 frozen: list[Instance] | None = None,
                 gen_cfg: GenConfig | None = None):
        self.cfg = cfg
        self.rng = rng
        self.frozen = frozen
        self.gen_cfg = gen_cfg or GenConfig()
        self.generation = -1
        self.instances: list[Instance] = []
        self.graphs: list[HeteroGraph] = []
        if frozen is not None:
            self.instances = list(frozen)
            self.graphs = [build_graph(inst) for inst in self.instances]

    def refresh(self, epoch: int) -> bool:
        """Regenerate the pool if due; returns True when contents changed."""
        if self.frozen is not None:
            return False
        gen = (epoch - 1) // self.cfg.pool_refresh
        if gen == self.generation:
            return False
        self.generation = gen
        size = max(self.cfg.batch_size, self.cfg.pool_size)
        self.instances = [generate_random(self.gen_cfg, self.rng) for _ in range(size)]
        self.graphs = [build_graph(inst) for inst in self.instances]
        return True

    def sample(self) -> int:
        return int(self.rng.integers(len(self.instances)))


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
        graph = pool.graphs[pool.sample()]
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
class Trajectory:
    actions: list[int]
    log_probs: list[float]
    makespan: int


@dataclass
class Episodes:
    """Episodes decoded in lockstep; with a taped rollout, `log_prob_total`
    is the (B,) differentiable sum of each episode's log-probabilities."""

    trajectories: list[Trajectory]
    log_prob_total: ad.Tensor | None = None


def scaled_q(inst: Instance, makespan: int, scale: bool) -> float:
    if scale:
        return -makespan / inst.load_lower_bound()
    return -float(makespan)


def rollout(insts: list[Instance], z: np.ndarray, h_real: list[np.ndarray],
            store: ParamStore, model_cfg: ModelConfig, mode: str,
            rng: np.random.Generator | None = None,
            taped: bool = False) -> Episodes:
    """Run one full episode per instance, all in lockstep.

    z: latent vectors (B, d_latent); h_real: each instance's real-node
    embeddings (n*m, d_latent).  Op rows are zero-padded to the largest
    n*m; step t is one decode_step call over the episodes that have a t-th
    decision, so an episode leaves the batch when its schedule is complete.
    With `taped`, each episode's summed log-probability is differentiable
    w.r.t. the policy parameters.
    """
    sizes = np.array([inst.num_ops for inst in insts])
    width = int(sizes.max())
    padded = np.zeros((len(insts), width, model_cfg.d_latent))
    for e, rows in enumerate(h_real):
        padded[e, :sizes[e]] = rows
    all_keys = project_keys(padded, store, model_cfg)
    states = [reset(inst) for inst in insts]
    actions = [[] for _ in insts]
    log_probs = [[] for _ in insts]
    prev = np.zeros(len(insts), dtype=np.int64)
    active = np.arange(len(insts))
    keys = all_keys
    step_terms, owners = [], []
    for t in range(width):
        if (sizes[active] <= t).any():
            active = np.flatnonzero(sizes > t)
            keys = all_keys.rows(active)
        feats = np.zeros((len(active), width, 6))
        attend = np.zeros((len(active), width), dtype=bool)
        avail = np.zeros((len(active), width), dtype=bool)
        for row, e in enumerate(active):
            st = states[e]
            feats[row, :sizes[e]] = state_features(st)
            attend[row, :sizes[e]] = ~st.scheduled
            avail[row, st.available()] = True
        h_prev = None if t == 0 else padded[active, prev[active]]
        logits = decode_step(z[active], h_prev, keys, feats, attend, avail,
                             store, model_cfg)
        picks, lps = select_action(logits.data, mode, rng)
        if taped:
            step_terms.append(log_prob(logits, picks))
            owners.append(active)
        for e, action, lp in zip(active, picks.tolist(), lps.tolist()):
            states[e].step(action)
            actions[e].append(action)
            log_probs[e].append(lp)
        prev[active] = picks
    trajectories = [Trajectory(a, lp, st.makespan())
                    for a, lp, st in zip(actions, log_probs, states)]
    total = None
    if taped:
        owner = np.concatenate(owners)
        members = np.zeros((owner.size, len(insts)))
        members[np.arange(owner.size), owner] = 1.0
        total = ad.matmul(ad.concat(step_terms, axis=0), members)
    return Episodes(trajectories, total)


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
        self.entries = [embed(graph, self.store, self.model_cfg) for graph in pool.graphs]

    def draw(self, idx: int, rng: np.random.Generator):
        h_real, mu, sigma = self.entries[idx]
        eps = rng.standard_normal(mu.shape[0])
        return h_real, mu + eps * sigma


def train_policy(cfg: TrainConfig, model_cfg: ModelConfig, store: ParamStore,
                 pool: InstancePool, rng: np.random.Generator) -> LossReport:
    """Phase 2: the encoder/latent/decoder sections are read-only; per
    epoch, one lockstep rollout of B sampled episodes feeds one descent
    step on critic loss minus policy objective, which ascends the policy
    and descends the critic (the two losses share no parameter)."""
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
            insts.append(pool.instances[idx])
            h_real.append(h)
            zs.append(z)
        z = np.stack(zs)
        with ad.Tape() as tape:
            episodes = rollout(insts, z, h_real, store, model_cfg, "sample",
                               rng=rng, taped=True)
            values = critic_value(ad.Tensor(z), store, model_cfg)
            trajs = episodes.trajectories
            q = np.array([scaled_q(inst, traj.makespan, cfg.scale_q)
                          for inst, traj in zip(insts, trajs)])
            targets = q - cfg.alpha_entropy * np.array([sum(traj.log_probs) for traj in trajs])
            l_pol = policy_loss(episodes.log_prob_total, q - values.data, cfg.alpha_entropy)
            l_cr = critic_loss(values, targets)
            if not (np.isfinite(l_pol.data) and np.isfinite(l_cr.data)):
                raise TrainingDiverged(f"non-finite policy/critic loss at epoch {epoch}")
            ad.zero_grad(params)
            ad.backward(ad.sub(l_cr, l_pol))
        _check_gradients(params, "policy/critic", epoch)
        _sgd_step(params, cfg.lr_policy)
        tape.nodes.clear()  # as in train_representation
        report.append(epoch, float(l_pol.data), float(l_cr.data),
                      float(np.mean([traj.makespan for traj in trajs])))
    return report
