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
                     decode_step, select_action)
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
    log_prob_total: ad.Tensor | None = None


def scaled_q(inst: Instance, makespan: int, scale: bool) -> float:
    if scale:
        return -makespan / inst.load_lower_bound()
    return -float(makespan)


def rollout(inst: Instance, z: ad.Tensor, h_real: ad.Tensor,
            store: ParamStore, model_cfg: ModelConfig, mode: str,
            rng: np.random.Generator | None = None,
            taped: bool = False) -> Trajectory:
    """Run one full episode of n*m decisions.  With `taped`, the summed
    log-probability is differentiable w.r.t. the policy parameters."""
    st = reset(inst)
    actions: list[int] = []
    log_probs: list[float] = []
    lp_terms = []
    prev = None
    while not st.done:
        avail = st.available()
        feats = state_features(st)
        step_out = decode_step(z, h_real, prev, feats, st.scheduled, avail,
                               store, model_cfg)
        action, lp = select_action(step_out.full, mode, rng)
        if taped:
            lp_terms.append(step_out.log_prob(action))
        actions.append(action)
        log_probs.append(lp)
        st.step(action)
        prev = action
    total = None
    if taped:
        total = lp_terms[0]
        for term in lp_terms[1:]:
            total = ad.add(total, term)
    return Trajectory(
        actions=actions,
        log_probs=log_probs,
        makespan=st.makespan(),
        log_prob_total=total,
    )


def policy_loss(batch: list[tuple[Trajectory, float]], alpha_entropy: float) -> ad.Tensor:
    """Batch-mean surrogate whose gradient is the score-function estimator:
    each trajectory contributes (A - alpha_entropy) * log pi with the
    advantage treated as a constant."""
    total = None
    for traj, advantage in batch:
        if traj.log_prob_total is None:
            raise ValueError("policy_loss needs taped trajectories")
        term = ad.mul(traj.log_prob_total, advantage - alpha_entropy)
        total = term if total is None else ad.add(total, term)
    return ad.mul(total, 1.0 / len(batch))


def critic_loss(values: list[ad.Tensor], targets: list[float]) -> ad.Tensor:
    if len(values) != len(targets):
        raise ValueError("mismatched batch lengths")
    total = None
    for v, t in zip(values, targets):
        term = ad.square(ad.sub(v, t))
        total = term if total is None else ad.add(total, term)
    return ad.mul(total, 1.0 / len(values))


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
        z = mu + eps * sigma
        return ad.Tensor(h_real), ad.Tensor(z)


def train_policy(cfg: TrainConfig, model_cfg: ModelConfig, store: ParamStore,
                 pool: InstancePool, rng: np.random.Generator) -> LossReport:
    """Phase 2: the encoder/latent/decoder sections are read-only; per
    epoch, B sampled rollouts feed one descent step on critic loss minus
    policy objective, which ascends the policy and descends the critic
    (the two losses share no parameter)."""
    params = store.section("policy.") + store.section("critic.")
    cache = EncoderCache(store, model_cfg)
    pool.refresh(1)
    cache.rebuild(pool)
    columns = ["epoch", "policy_loss", "critic_loss", "mean_cmax"]
    report = LossReport(tuple(columns))

    for epoch in range(1, cfg.policy_epochs + 1):
        if pool.refresh(epoch):
            cache.rebuild(pool)
        batch = []
        values = []
        targets = []
        cmaxes = []
        with ad.Tape():
            for _ in range(cfg.batch_size):
                idx = pool.sample()
                inst = pool.instances[idx]
                h_real, z = cache.draw(idx, rng)
                traj = rollout(inst, z, h_real, store, model_cfg, "sample",
                               rng=rng, taped=True)
                v = critic_value(z, store, model_cfg)
                q = scaled_q(inst, traj.makespan, cfg.scale_q)
                advantage = q - float(v.data)
                batch.append((traj, advantage))
                values.append(v)
                targets.append(q - cfg.alpha_entropy * sum(traj.log_probs))
                cmaxes.append(traj.makespan)
            l_pol = policy_loss(batch, cfg.alpha_entropy)
            l_cr = critic_loss(values, targets)
            if not (np.isfinite(l_pol.data) and np.isfinite(l_cr.data)):
                raise TrainingDiverged(f"non-finite policy/critic loss at epoch {epoch}")
            ad.zero_grad(params)
            ad.backward(ad.sub(l_cr, l_pol))
            _sgd_step(params, cfg.lr_policy)
        report.append(epoch, float(l_pol.data), float(l_cr.data),
                      float(np.mean(cmaxes)))
    return report

