"""Reference encoder in which every edge type attends, for the differential
tests of `vg2s.vge.encode`, and the parameter layout that goes with it.

Precedence and successor rows of the graph hold exactly one neighbour, so
the masked softmax of those types is the adjacency itself, whatever the
scores; `vge.encode` therefore runs the score path for machine-sharing only
and the model keeps no attention vectors for the other two types.  This
module keeps the all-types form: its `encode` scores every type, and
`build_model` builds the parameter store that the model had before the
`encoder.gat.e{0,1}.h*.a{1,2}` vectors were retired (the checkpoint layout
that older files carry).
"""

from __future__ import annotations

import numpy as np

from vg2s import autodiff as ad
from vg2s.checkpoint import ParamStore
from vg2s.graph import HeteroGraph
from vg2s.nnutil import add_linear, add_mlp, glorot, linear, mlp
from vg2s.policy import build_critic_params, build_policy_params
from vg2s.vge import ModelConfig, _union_propagation, build_decoder_params


def build_encoder_params(store: ParamStore, cfg: ModelConfig, rng) -> None:
    """Encoder and latent parameters with attention vectors for all three
    edge types, in the order older checkpoints list them."""
    add_mlp(store, "encoder.embed", 6, cfg.d_graph, cfg.d_graph, rng)
    for e in range(3):
        for head in range(cfg.n_heads):
            tag = f"encoder.gat.e{e}.h{head}"
            store.add(f"{tag}.w", glorot(rng, cfg.d_graph, cfg.d_latent))
            store.add(f"{tag}.a1", glorot(rng, cfg.d_latent, 1, shape=(cfg.d_latent,)))
            store.add(f"{tag}.a2", glorot(rng, cfg.d_latent, 1, shape=(cfg.d_latent,)))
    add_linear(store, "encoder.proj", 3 * cfg.n_heads * cfg.d_latent, cfg.d_latent, rng)
    add_mlp(store, "latent.shared", cfg.d_latent, 2 * cfg.d_latent, 2 * cfg.d_latent, rng)
    add_linear(store, "latent.mu", cfg.d_latent, cfg.d_latent, rng)
    add_linear(store, "latent.sigma", cfg.d_latent, cfg.d_latent, rng)


def build_model(cfg: ModelConfig, seed: int) -> ParamStore:
    """`trainer.build_model` with the all-types encoder parameters."""
    rng = np.random.default_rng(seed)
    store = ParamStore()
    build_encoder_params(store, cfg, rng)
    build_decoder_params(store, cfg, rng)
    build_policy_params(store, cfg, rng)
    build_critic_params(store, cfg, rng)
    return store


def encode(graph: HeteroGraph, store: ParamStore, cfg: ModelConfig) -> ad.Tensor:
    """`vge.encode` with a scored, masked-softmax attention for every edge
    type and head."""
    x = ad.Tensor(graph.features)
    h_embed = mlp(store, "encoder.embed", x)
    n = graph.node_count

    per_type = []
    for e in range(3):
        heads = []
        for head in range(cfg.n_heads):
            tag = f"encoder.gat.e{e}.h{head}"
            h_lin = ad.matmul(h_embed, store[f"{tag}.w"])
            s1 = ad.matmul(h_lin, ad.reshape(store[f"{tag}.a1"], (cfg.d_latent, 1)))
            s2 = ad.matmul(h_lin, ad.reshape(store[f"{tag}.a2"], (cfg.d_latent, 1)))
            scores = ad.leaky_relu(ad.add(s1, ad.reshape(s2, (1, n))))
            alpha = ad.masked_softmax(scores, graph.adj[e], axis=1)
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
