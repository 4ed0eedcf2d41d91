"""Autoregressive operation-selection policy with glimpse attention and
tanh-clipped pointer logits, plus the latent-state critic."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .checkpoint import ParamStore
from .nnutil import add_linear, add_mlp, glorot, linear, mlp
from .vge import ModelConfig


def build_policy_params(store: ParamStore, cfg: ModelConfig, rng) -> None:
    d2 = 2 * cfg.d_latent
    d_qk = cfg.d_latent + cfg.d_glimpse
    add_mlp(store, "policy.state", 6, cfg.d_latent, cfg.d_latent, rng)
    store.add("policy.dummy_prev", glorot(rng, cfg.d_latent, 1, shape=(cfg.d_latent,)))
    for layer in range(cfg.glimpse_layers):
        for head in range(cfg.glimpse_heads):
            tag = f"policy.glimpse.l{layer}.h{head}"
            store.add(f"{tag}.wq", glorot(rng, d2, d_qk))
            store.add(f"{tag}.wk", glorot(rng, d2, d_qk))
            store.add(f"{tag}.wv", glorot(rng, d2, d2))
    store.add("policy.lc.wq", glorot(rng, d2, cfg.d_latent + cfg.d_logit))
    store.add("policy.lc.wk", glorot(rng, d2, cfg.d_latent + cfg.d_logit))


def build_critic_params(store: ParamStore, cfg: ModelConfig, rng) -> None:
    add_linear(store, "critic.fc1", cfg.d_latent, cfg.critic_hidden, rng)
    add_linear(store, "critic.fc2", cfg.critic_hidden, 1, rng)


@dataclass
class EpisodeKeys:
    """Key projections of a batch of episodes.  W holds every weight applied
    to keys = [h_real, state_emb] side by side in K columns: each glimpse
    head's wk and wv, then the pointer's wk.  Within an episode the h_real
    half of the keys is constant, so `fixed` = h_real @ W[:d] is computed
    once per rollout, shape (B, N, K); each step adds state_emb @
    `w_state`, with `w_state` = W[d:]."""

    fixed: ad.Tensor
    w_state: ad.Tensor
    widths: list[int]

    def rows(self, episodes: np.ndarray) -> "EpisodeKeys":
        return EpisodeKeys(ad.take(self.fixed, episodes, axis=0), self.w_state,
                           self.widths)


def project_keys(h_real: np.ndarray, store: ParamStore, cfg: ModelConfig) -> EpisodeKeys:
    """h_real: (B, N, d_latent) real-node embeddings, zero-padded to N rows."""
    names = [f"policy.glimpse.l{layer}.h{head}.{w}"
             for layer in range(cfg.glimpse_layers)
             for head in range(cfg.glimpse_heads) for w in ("wk", "wv")]
    names.append("policy.lc.wk")
    weights = ad.concat([store[name] for name in names], axis=1)
    w_real, w_state = ad.split(weights, [cfg.d_latent, cfg.d_latent], axis=0)
    return EpisodeKeys(ad.matmul(h_real, w_real), w_state,
                       [store[name].data.shape[1] for name in names])


def decode_step(z: np.ndarray, h_prev: np.ndarray | None, keys: EpisodeKeys,
                state_feats: np.ndarray, attend_mask: np.ndarray,
                avail_mask: np.ndarray, store: ParamStore, cfg: ModelConfig) -> ad.Tensor:
    """One pointer step of b episodes over N (padded) operation rows.

    z: latent vectors (b, d_latent); h_prev: embeddings of each episode's
    previous action (b, d_latent), or None at the first step, which uses
    the learned dummy; keys: the b episodes' rows of the rollout's
    projections; state_feats: (b, N, 6); attend_mask marks the unscheduled
    real ops (the glimpse attends to these only); avail_mask marks the
    selectable ops.  Returns the (b, N) taped logits, -inf wherever
    avail_mask is False.
    """
    if not avail_mask.any(axis=1).all():
        raise ValueError("decode_step with an empty available set")
    if not attend_mask.any(axis=1).all():
        raise ValueError("glimpse attention has no unscheduled operations")
    count, num_ops = avail_mask.shape
    d_head = (cfg.d_latent + cfg.d_glimpse) / cfg.glimpse_heads

    if h_prev is None:
        h_prev = ad.mul(np.ones((count, 1)), store["policy.dummy_prev"])
    context = ad.concat([z, h_prev], axis=1)

    state_emb = mlp(store, "policy.state", ad.Tensor(state_feats))
    projected = ad.add(keys.fixed, ad.matmul(state_emb, keys.w_state))
    parts = iter(ad.split(projected, keys.widths, axis=2))  # in W's column order

    q = context
    for layer in range(cfg.glimpse_layers):
        head_sum = None
        for head in range(cfg.glimpse_heads):
            tag = f"policy.glimpse.l{layer}.h{head}"
            kh, vh = next(parts), next(parts)
            qh = ad.matmul(q, store[f"{tag}.wq"])
            scores = ad.matmul(kh, ad.reshape(qh, (count, -1, 1)))
            scores = ad.mul(ad.reshape(scores, (count, num_ops)), 1.0 / np.sqrt(d_head))
            weights = ad.masked_softmax(scores, attend_mask, axis=1)
            contrib = ad.reshape(ad.matmul(ad.reshape(weights, (count, 1, num_ops)), vh),
                                 (count, 2 * cfg.d_latent))
            head_sum = contrib if head_sum is None else ad.add(head_sum, contrib)
        q = head_sum

    q_lc = ad.matmul(q, store["policy.lc.wq"])
    raw = ad.reshape(ad.matmul(next(parts), ad.reshape(q_lc, (count, -1, 1))),
                     (count, num_ops))
    logits = ad.mul(ad.tanh(ad.mul(raw, 1.0 / cfg.d_latent)), cfg.logit_clip)
    return ad.add(logits, np.where(avail_mask, 0.0, -np.inf))


def log_prob(logits: ad.Tensor, actions: np.ndarray) -> ad.Tensor:
    """Taped (b,) log-probabilities of one action per row of decode_step's
    masked logits."""
    count, num_ops = logits.shape
    chosen = ad.take(ad.reshape(logits, (-1,)), np.arange(count) * num_ops + actions)
    return ad.sub(chosen, ad.logsumexp(logits, axis=1))


def select_action(logits: np.ndarray, mode: str, rng=None) -> tuple[np.ndarray, np.ndarray]:
    """Pick one action per row of a (b, N) logit array (-inf marks
    unavailable).

    Returns (actions, log probabilities), each of shape (b,).  Greedy takes
    each row's argmax with ties to the lowest index; sampling draws row by
    row from the softmax, one uniform per row, as `rng.choice` would.
    """
    finite = np.isfinite(logits)
    if not finite.any(axis=1).all():
        raise ValueError("select_action: a row has no finite logit")
    shifted = logits - np.where(finite, logits, -np.inf).max(axis=1, keepdims=True)
    e = np.where(finite, np.exp(shifted), 0.0)
    probs = e / e.sum(axis=1, keepdims=True)
    if mode == "greedy":
        actions = np.argmax(probs, axis=1)
    elif mode == "sample":
        if rng is None:
            raise ValueError("sampling mode needs an rng")
        cdf = probs.cumsum(axis=1)
        cdf /= cdf[:, -1:]
        actions = (cdf <= rng.random(len(probs))[:, None]).sum(axis=1)
    else:
        raise ValueError(f"unknown selection mode {mode!r}")
    return actions, np.log(probs[np.arange(len(probs)), actions])


def critic_value(z: ad.Tensor, store: ParamStore, cfg: ModelConfig) -> ad.Tensor:
    """Soft state-value estimate per latent vector: shape z.shape[:-1]."""
    hidden = ad.tanh(linear(store, "critic.fc1", z))
    return ad.reshape(linear(store, "critic.fc2", hidden), z.shape[:-1])
