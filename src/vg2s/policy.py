"""Autoregressive operation-selection policy with glimpse attention and
tanh-clipped pointer logits, plus the latent-state critic."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .checkpoint import ParamStore
from .nnutil import add_linear, add_mlp, glorot, linear, mlp
from .vge import ModelConfig


class NonFiniteLogits(ValueError):
    """A row of logits has a NaN or no finite entry: the policy's numbers
    have diverged."""


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
class Attention:
    """One attention block of a batch of episodes over N op rows, head-major.

    Its keys act on [h_real, state_emb] (2d = 2 * d_latent columns) and are
    held in query space: each head's query weights wq (2d, w), with the
    score scale folded in, are multiplied into them once per rollout, so a
    2d-wide query row scores them with no product of its own.  `keys_t`
    (B, H, 2d, N) holds wq @ the keys of every row with state_emb at the
    constant c of an unavailable op; `wk_state_t` (H, 2d, d) holds wq @
    the transposed state half of the key weights, which corrects the keys
    of available rows.  Glimpse blocks carry `values` (B, H, N, 2d) and
    `wv_state` (H, d, 2d), unfolded; the pointer is a one-head block
    without them.  Each is a taped Tensor or, from an untaped projection,
    a plain array.
    """

    keys_t: ad.Tensor | np.ndarray
    wk_state_t: ad.Tensor | np.ndarray
    values: ad.Tensor | np.ndarray | None = None
    wv_state: ad.Tensor | np.ndarray | None = None

    def rows(self, episodes: np.ndarray) -> "Attention":
        # `values` is a transposed view (`keys_t` a fresh product).  np.take
        # copies rows C-ordered, as ad.take does; indexing would keep the
        # transposed layout, and the products would round otherwise.
        values = None if self.values is None else np.take(self.values, episodes, axis=0)
        return replace(self, keys_t=np.take(self.keys_t, episodes, axis=0), values=values)


@dataclass
class EpisodeKeys:
    """Key projections of a batch of episodes, computed once per rollout.

    Rows outside a decision's available ops take zero features, so they all
    embed to c = mlp("policy.state")(0) (`state_zero`).
    Each block's fixed keys (in query space, see Attention) and values are
    projected with every row at c; a decode step adds only the available
    rows' corrections, through (mlp(f) - c) and the blocks' state weights.
    `h_real` (B, N, d_latent) holds the embeddings the keys were projected
    from, which a decision reads back as its previous action's.
    """

    h_real: np.ndarray
    state_zero: ad.Tensor | np.ndarray
    glimpses: list[Attention]
    pointer: Attention

    def rows(self, episodes: np.ndarray) -> "EpisodeKeys":
        return EpisodeKeys(self.h_real[episodes], self.state_zero,
                           [blk.rows(episodes) for blk in self.glimpses],
                           self.pointer.rows(episodes))


def _heads(x, count: int, axes: tuple[int, ...], xp):
    """Split the last axis of x into `count` heads, then permute the axes."""
    return xp.transpose(xp.reshape(x, x.shape[:-1] + (count, -1)), axes)


def project_keys(h_real: np.ndarray, store, cfg: ModelConfig, xp=ad) -> EpisodeKeys:
    """The rollout's key projections; h_real: (B, N, d_latent) real-node
    embeddings, zero-padded to N rows.  Each block's keys come out already
    multiplied by its scaled query weights, one (H, 2d, w) @ (B, H, w, N)
    product per block.  On the ops of `xp`: autodiff with `store` a
    ParamStore, or autodiff.plain with `store` its arrays by name."""
    d, heads = cfg.d_latent, cfg.glimpse_heads
    d_qk = d + cfg.d_glimpse
    tags = [f"policy.glimpse.l{layer}" for layer in range(cfg.glimpse_layers)]
    # Every key weight side by side: per layer all heads' wk, then all
    # heads' wv; the pointer's wk last.
    names = [f"{tag}.h{head}.{w}" for tag in tags for w in ("wk", "wv")
             for head in range(heads)]
    names.append("policy.lc.wk")
    w_real, w_state = xp.split(xp.concat([store[name] for name in names], axis=1),
                               [d, d], axis=0)
    state_zero = mlp(store, "policy.state", np.zeros(6), xp)
    fixed = xp.add(xp.matmul(h_real, w_real), xp.matmul(state_zero, w_state))
    widths = [heads * d_qk, heads * 2 * d] * cfg.glimpse_layers + [d + cfg.d_logit]
    fixed_parts = iter(xp.split(fixed, widths, axis=2))
    state_parts = iter(xp.split(w_state, widths, axis=1))

    def block(wq, count: int, scale: float, values: bool) -> Attention:
        wq = xp.mul(_heads(wq, count, (1, 0, 2), xp), scale)
        out = Attention(xp.matmul(wq, _heads(next(fixed_parts), count, (0, 2, 3, 1), xp)),
                        xp.matmul(wq, _heads(next(state_parts), count, (1, 2, 0), xp)))
        if values:
            out.values = _heads(next(fixed_parts), count, (0, 2, 1, 3), xp)
            out.wv_state = _heads(next(state_parts), count, (1, 0, 2), xp)
        return out

    glimpses = [block(xp.concat([store[f"{tag}.h{head}.wq"] for head in range(heads)], axis=1),
                      heads, 1.0 / np.sqrt(d_qk / heads), True) for tag in tags]
    return EpisodeKeys(h_real, state_zero, glimpses,
                       block(store["policy.lc.wq"], 1, 1.0 / d, False))


def decode_step(z: np.ndarray, prev: np.ndarray, keys: EpisodeKeys,
                state_feats: np.ndarray, attend_mask: np.ndarray,
                ops: np.ndarray, store, cfg: ModelConfig, xp=ad):
    """T pointer decisions of each of b episodes over N (padded) op rows.

    z: latent vectors (b, d_latent); prev: (b, T) op row of each decision's
    previous action, or -1 at an episode's first decision, which uses the
    learned dummy; keys: the b episodes' rows of the rollout's projections;
    attend_mask (b, T, N) marks the unscheduled real ops (the glimpse
    attends to these only).  ops (b, T, n) maps each decision's slots to
    its selectable op rows, -1 for a slot that holds none, wherever it
    falls (a rollout's slot j holds job j's next op, and is empty once job
    j is finished), and state_feats (b, T, n, 6) holds the `state_features`
    of those slots; the features of an empty slot are not read.  Returns
    the (b, T, N) logits, -inf at every op row no slot maps to.  A rollout
    step is T = 1; scoring the recorded decisions of a rollout is T = its
    longest episode.  The ops are those of `xp`, as in project_keys, which
    made `keys`: taped Tensors on autodiff, plain arrays on autodiff.plain.

    The T decisions of an episode are the query rows of one product per
    head with its keys and one with its values, so no per-decision copy of
    the keys is built.  `keys` already holds every op row at the zero
    features of an op that is not available, in query space, so the
    (b, 1, T, 2d) context rows multiply into them with no query product.
    Only the slots are embedded, as e = mlp(f) - c, and their corrections
    enter each score as e . (W_state,k W_q q) and each context as
    (w_avail e) W_state,v, through a one-hot (b, 1, T, n, N) selection from
    slots to op rows, whose rows are zero at the empty slots; only these
    corrections batch over decisions.  All heads of a layer share one
    batched matmul and one softmax.  Per head a decision thus costs
    O((N + d) * 2d) plus the selection products, not the O(N * d * K) of
    projecting every row's K key columns.
    """
    count, steps, slots = ops.shape
    if state_feats.shape[:3] != ops.shape:
        raise ValueError(f"state_feats has {state_feats.shape[2]} slots per decision, "
                         f"the slot map {slots}")
    filled = ops >= 0
    if not filled.any(axis=-1).all():
        raise ValueError("decode_step with an empty available set")
    if not attend_mask.any(axis=-1).all():
        raise ValueError("glimpse attention has no unscheduled operations")
    num_ops = attend_mask.shape[-1]
    # `select` maps each decision's slots to its op rows, and `blocked`
    # is -inf at every op row outside them.
    hit = np.flatnonzero(filled)
    rows = ops.reshape(-1)[hit]
    select = np.zeros((count * steps * slots, num_ops))
    select[hit, rows] = 1.0
    select = select.reshape(count, 1, steps, slots, num_ops)
    blocked = np.full((count * steps, num_ops), -np.inf)
    blocked[hit // slots, rows] = 0.0

    first = prev < 0
    h_prev = keys.h_real[np.arange(count)[:, None], prev]  # -1 reads a row zeroed below
    if first.any():
        h_prev[first] = 0.0
        h_prev = xp.add(h_prev, xp.mul(first[..., None] * 1.0, store["policy.dummy_prev"]))
    q = xp.reshape(xp.concat([np.repeat(z[:, None], steps, axis=1), h_prev], axis=2),
                   (count, 1, steps, -1))

    # The corrections' products take the decisions as a batch axis, (b, 1,
    # T, ...), shared by all heads; `across` moves a head-major (b, H, T,
    # ...) tensor's decision rows to that axis (tail (1, -1)) and back
    # (tail (-1,)).
    def across(x, *tail: int):
        return xp.reshape(x, x.shape[:3] + tail)

    moved = xp.sub(mlp(store, "policy.state", state_feats[:, None], xp),
                   keys.state_zero)  # (b, 1, T, n, d)
    moved_t = xp.transpose(moved, (0, 1, 2, 4, 3))

    def scores(query, blk: Attention):
        """(b, H, T, N) scaled scores of every head of one block."""
        state_q = across(xp.matmul(query, blk.wk_state_t), 1, -1)
        correction = xp.matmul(xp.matmul(state_q, moved_t), select)
        return xp.add(xp.matmul(query, blk.keys_t), across(correction, -1))

    attend = attend_mask[:, None]
    for blk in keys.glimpses:
        weights = xp.masked_softmax(scores(q, blk), attend)
        picked = xp.matmul(xp.matmul(across(weights, 1, -1), np.swapaxes(select, -1, -2)), moved)
        heads = xp.add(xp.matmul(weights, blk.values),
                       xp.matmul(across(picked, -1), blk.wv_state))
        q = xp.tsum(heads, axis=1, keepdims=True)

    raw = xp.reshape(scores(q, keys.pointer), (count, steps, num_ops))
    logits = xp.mul(xp.tanh(raw), cfg.logit_clip)
    return xp.add(logits, blocked.reshape(count, steps, num_ops))


def log_prob(logits: ad.Tensor, actions: np.ndarray) -> ad.Tensor:
    """Taped log-probabilities of one action per decision of decode_step's
    masked (..., N) logits; actions has the leading shape, and so does the
    result."""
    num_ops = logits.shape[-1]
    flat = np.arange(actions.size).reshape(actions.shape) * num_ops + actions
    chosen = ad.take(ad.reshape(logits, (-1,)), flat)
    return ad.sub(chosen, ad.logsumexp(logits, axis=-1))


def select_action(logits: np.ndarray, mode: str, rng=None) -> tuple[np.ndarray, np.ndarray]:
    """Pick one action per row of a (b, N) logit array (-inf marks
    unavailable).

    Returns (actions, log probabilities), each of shape (b,).  Greedy takes
    each row's argmax with ties to the lowest index; sampling draws row by
    row from the softmax, one uniform per row, as `rng.choice` would.
    """
    top = logits.max(axis=1, keepdims=True)
    if not np.isfinite(top).all():
        raise NonFiniteLogits("select_action: a row has a NaN or no finite logit "
                              "(have the model's parameters diverged?)")
    e = np.exp(logits - top)  # exactly 0 at -inf
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
