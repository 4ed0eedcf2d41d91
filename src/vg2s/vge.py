"""Variational graph encoder: edge-typed multi-head aggregation over the
operation graph (precedence and successor copy their one neighbour's
projection, machine-sharing attends), a diagonal-Gaussian latent model, and
a transposed-conv generative head with its reconstruction / divergence
losses."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .checkpoint import ParamStore
from .graph import HeteroGraph, reconstruction_targets
from .nnutil import add_linear, add_mlp, glorot, linear, mlp

SIGMA_FLOOR = 1e-5
PROB_CLAMP = 1e-7
SHARE = 2  # the machine-sharing edge type, the only one that attends
# Attention vectors of the one-neighbour edge types, which older checkpoints
# still hold: a softmax over one neighbour is 1 whatever they score.
RETIRED_PARAMS = re.compile(r"encoder\.gat\.e[01]\.h\d+\.a[12]")


def check_fields(cfg, minimum: dict[str, int]) -> None:
    """Reject a config dataclass whose int fields are not ints (a bool is
    not one) or fall below their minimum (1 unless `minimum` names it), or
    whose float fields are not finite numbers."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.type == "int":
            least = minimum.get(f.name, 1)
            if not isinstance(value, int) or isinstance(value, bool) or value < least:
                raise ValueError(f"{f.name} must be an integer >= {least}, got {value!r}")
        elif f.type == "float":
            if (not isinstance(value, (int, float)) or isinstance(value, bool)
                    or not math.isfinite(value)):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture dimensions; defaults are the documented desk-scale
    working set (the published grid search is not reproduced here)."""

    d_graph: int = 64
    d_latent: int = 64
    n_heads: int = 4
    appnp_iters: int = 3
    appnp_teleport: float = 0.1
    canvas_jobs: int = 9
    canvas_machines: int = 9
    conv_channels: int = 256
    conv_channels_min: int = 32
    glimpse_layers: int = 2
    glimpse_heads: int = 4
    d_glimpse: int = 64
    d_logit: int = 64
    logit_clip: float = 10.0
    critic_hidden: int = 64

    def __post_init__(self):
        check_fields(self, {"appnp_iters": 0})
        if not 0 <= self.appnp_teleport <= 1:
            raise ValueError("appnp_teleport must lie in [0, 1]")
        if self.logit_clip <= 0:
            raise ValueError("logit_clip must be positive")

    @property
    def canvas(self) -> int:
        return self.canvas_jobs * self.canvas_machines

    @property
    def conv_layers(self) -> int:
        return max(1, math.ceil(math.log2(self.canvas)))

    def channel_schedule(self) -> list[int]:
        chans = [self.conv_channels]
        for _ in range(self.conv_layers):
            chans.append(max(chans[-1] // 2, self.conv_channels_min))
        return chans


@dataclass
class LatentSample:
    mu: ad.Tensor
    sigma: ad.Tensor
    z: ad.Tensor


def build_encoder_params(store: ParamStore, cfg: ModelConfig, rng) -> None:
    add_mlp(store, "encoder.embed", 6, cfg.d_graph, cfg.d_graph, rng)
    for e in range(3):
        for head in range(cfg.n_heads):
            tag = f"encoder.gat.e{e}.h{head}"
            store.add(f"{tag}.w", glorot(rng, cfg.d_graph, cfg.d_latent))
            # Drawn for every type: each later parameter's initial bytes follow these draws.
            a1, a2 = (glorot(rng, cfg.d_latent, 1, shape=(cfg.d_latent,)) for _ in range(2))
            if e == SHARE:
                store.add(f"{tag}.a1", a1)
                store.add(f"{tag}.a2", a2)
    add_linear(store, "encoder.proj", 3 * cfg.n_heads * cfg.d_latent, cfg.d_latent, rng)
    add_mlp(store, "latent.shared", cfg.d_latent, 2 * cfg.d_latent, 2 * cfg.d_latent, rng)
    add_linear(store, "latent.mu", cfg.d_latent, cfg.d_latent, rng)
    add_linear(store, "latent.sigma", cfg.d_latent, cfg.d_latent, rng)


def build_decoder_params(store: ParamStore, cfg: ModelConfig, rng) -> None:
    chans = cfg.channel_schedule()
    add_linear(store, "decoder.init", cfg.d_latent, chans[0], rng)
    for p in range(cfg.conv_layers):
        store.add(
            f"decoder.up{p}.w",
            glorot(rng, chans[p] * 4, chans[p + 1], shape=(chans[p], chans[p + 1], 4)),
        )
        store.add(f"decoder.up{p}.b", np.zeros(chans[p + 1]))
    store.add("decoder.node.w", glorot(rng, chans[-1] * 3, 6, shape=(6, chans[-1], 3)))
    store.add("decoder.node.b", np.zeros(6))
    store.add("decoder.edge.w", glorot(rng, chans[-1] * 3, 3, shape=(3, chans[-1], 3)))
    store.add("decoder.edge.b", np.zeros(3))


def _union_propagation(graph: HeteroGraph) -> np.ndarray:
    """Row-normalized union adjacency (all three edge sets plus self loops)
    used by the smoothing iteration."""
    n = graph.node_count
    adj = graph.adj.any(axis=0) | np.eye(n, dtype=bool)
    mat = adj.astype(np.float64)
    return mat / mat.sum(axis=1, keepdims=True)


def _attention(h_lin: ad.Tensor, store: ParamStore, tag: str, mask: np.ndarray) -> ad.Tensor:
    """One head's attention weights: a masked softmax over each row's
    neighbours of leaky_relu(a1 . h_i + a2 . h_j)."""
    n, d = h_lin.shape
    s1 = ad.matmul(h_lin, ad.reshape(store[f"{tag}.a1"], (d, 1)))
    s2 = ad.matmul(h_lin, ad.reshape(store[f"{tag}.a2"], (d, 1)))
    scores = ad.leaky_relu(ad.add(s1, ad.reshape(s2, (1, n))))
    return ad.masked_softmax(scores, mask, axis=1)


def encode(graph: HeteroGraph, store: ParamStore, cfg: ModelConfig) -> ad.Tensor:
    """Node embeddings (N_O x d_latent) via edge-typed heads, a shared
    projection, and teleport-smoothed aggregation plus the projection itself
    (a residual connection).  Precedence and successor rows hold one
    neighbour each, so their heads copy that neighbour's projection (the
    softmax over one entry is exactly 1); only machine-sharing heads attend."""
    x = ad.Tensor(graph.features)
    h_embed = mlp(store, "encoder.embed", x)

    per_type = []
    for e in range(3):
        adj_e = graph.adj[e].astype(np.float64)
        heads = []
        for head in range(cfg.n_heads):
            tag = f"encoder.gat.e{e}.h{head}"
            h_lin = ad.matmul(h_embed, store[f"{tag}.w"])
            alpha = _attention(h_lin, store, tag, graph.adj[e]) if e == SHARE else adj_e
            heads.append(ad.elu(ad.matmul(alpha, h_lin)))
        per_type.append(ad.concat(heads, axis=1))
    combined = ad.concat(per_type, axis=1)
    h_proj = linear(store, "encoder.proj", combined)

    prop = ad.Tensor(_union_propagation(graph))
    h = h_proj
    for _ in range(cfg.appnp_iters):
        h = ad.add(
            ad.mul(ad.matmul(prop, h), 1.0 - cfg.appnp_teleport),
            ad.mul(h_proj, cfg.appnp_teleport),
        )
    return ad.add(h, h_proj)


def latent(h: ad.Tensor, store: ParamStore, cfg: ModelConfig,
           eps: np.ndarray | None = None, rng=None) -> LatentSample:
    """Pool node embeddings, predict (mu, sigma), reparameterize."""
    pooled = ad.tmean(h, axis=0)
    shared = mlp(store, "latent.shared", pooled)
    h_mu, h_sigma = ad.split(shared, (cfg.d_latent, cfg.d_latent), axis=0)
    mu = linear(store, "latent.mu", h_mu)
    sigma = ad.add(ad.softplus(linear(store, "latent.sigma", h_sigma)), SIGMA_FLOOR)
    if eps is None:
        eps = (rng.standard_normal(cfg.d_latent) if rng is not None
               else np.zeros(cfg.d_latent))
    z = ad.add(mu, ad.mul(sigma, eps))
    return LatentSample(mu=mu, sigma=sigma, z=z)


def kl_loss(mu: ad.Tensor, sigma: ad.Tensor) -> ad.Tensor:
    """Closed-form divergence from the unit Gaussian prior, summed over
    coordinates: 1/2 sum(sigma^2 + mu^2 - 1 - log sigma^2)."""
    if np.any(sigma.data <= 0):
        raise ValueError("kl_loss needs strictly positive sigma")
    var = ad.square(sigma)
    terms = ad.sub(ad.sub(ad.add(var, ad.square(mu)), 1.0), ad.log(var))
    return ad.mul(ad.tsum(terms), 0.5)


def _edge_head(seq: ad.Tensor, w: ad.Tensor, b: ad.Tensor, out_len: int) -> ad.Tensor:
    """conv1d(interp_linear(seq, out_len), w, b, padding=1), mixing channels
    before the resize: interp_linear acts along the sequence only, so each
    tap's channel mix w[:, :, kk] commutes with it.  The resize then moves
    k * C_out tap rows instead of C_in channels, and a constant 0/1 kernel
    sums each tap's rows at that tap's offset."""
    c_out, c_in, k = w.shape
    taps = ad.matmul(ad.reshape(ad.transpose(w, (2, 0, 1)), (k * c_out, c_in)), seq)
    tap_sum = np.stack([np.eye(c_out, k * c_out, kk * c_out) for kk in range(k)], -1)
    return ad.conv1d(ad.interp_linear(taps, out_len), tap_sum, b, padding=1)


def decode(z: ad.Tensor, store: ParamStore, cfg: ModelConfig) -> tuple[ad.Tensor, ad.Tensor]:
    """Latent vector -> (node probabilities canvas x 6, edge probabilities
    canvas x canvas x 3), all strictly inside (0, 1)."""
    chans = cfg.channel_schedule()
    seq = ad.reshape(linear(store, "decoder.init", z), (chans[0], 1))
    for p in range(cfg.conv_layers):
        seq = ad.conv_transpose1d(seq, store[f"decoder.up{p}.w"], store[f"decoder.up{p}.b"],
                                  stride=2, padding=1)
        if p < cfg.conv_layers - 1:
            seq = ad.elu(seq)
    canvas = cfg.canvas
    node_seq = ad.adaptive_avg_pool1d(seq, canvas)
    p_node = ad.sigmoid(ad.conv1d(node_seq, store["decoder.node.w"], store["decoder.node.b"], padding=1))
    p_node = ad.transpose(p_node, (1, 0))
    p_edge = ad.sigmoid(_edge_head(seq, store["decoder.edge.w"], store["decoder.edge.b"],
                                   canvas * canvas))
    p_edge = ad.transpose(ad.reshape(p_edge, (3, canvas, canvas)), (1, 2, 0))
    return p_node, p_edge


def recon_loss(p_node: ad.Tensor, p_edge: ad.Tensor,
               node_t: np.ndarray, edge_t: np.ndarray) -> tuple[ad.Tensor, ad.Tensor]:
    """Binary cross-entropy of node features and the three adjacency
    channels over the full padded canvas; returns (node loss, edge loss)."""
    if np.any((node_t < 0) | (node_t > 1)) or np.any((edge_t < 0) | (edge_t > 1)):
        raise ValueError("reconstruction targets must lie in [0, 1]")
    k = node_t.shape[0]

    def bce(p, t):
        p = ad.clamp(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
        return ad.sub(
            ad.mul(ad.mul(ad.Tensor(t), ad.log(p)), -1.0),
            ad.mul(ad.Tensor(1.0 - t), ad.log(ad.sub(1.0, p))),
        )

    l_node = ad.mul(ad.tsum(bce(p_node, node_t)), 1.0 / k)
    l_edge = ad.mul(ad.tsum(bce(p_edge, edge_t)), 1.0 / (k * k))
    return l_node, l_edge


def representation_loss(graph: HeteroGraph, store: ParamStore, cfg: ModelConfig,
                        rng) -> tuple[ad.Tensor, dict]:
    """Full phase-1 loss for one instance: KL + node + edge reconstruction."""
    h = encode(graph, store, cfg)
    sample = latent(h, store, cfg, rng=rng)
    p_node, p_edge = decode(sample.z, store, cfg)
    node_t, edge_t = reconstruction_targets(graph, cfg.canvas)
    l_node, l_edge = recon_loss(p_node, p_edge, node_t, edge_t)
    l_kl = kl_loss(sample.mu, sample.sigma)
    total = ad.add(ad.add(l_kl, l_node), l_edge)
    parts = {
        "kl": float(l_kl.data),
        "node": float(l_node.data),
        "edge": float(l_edge.data),
        "total": float(total.data),
    }
    return total, parts
