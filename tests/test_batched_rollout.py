"""The lockstep batched rollout against the scalar one-episode reference.

`reference_decode_step`, `reference_select_action` and `reference_rollout`
are the scalar path phase 2 and the greedy solver used before rollouts were
batched: one decode_step per decision of one episode, over that episode's
own n*m ops, with keys = [h_real, state_emb] projected whole at every step.
The batched path splits that projection, pads op rows and masks them, and
sums log-probabilities through a membership matrix, so it matches the
reference up to rounding, not bit for bit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from autodiff_extra import softmax
from env_reference import available, state_features
from helpers import instance_batches, random_instance
from vg2s import autodiff as ad
from vg2s.env import UNSET, ScheduleState, replay
from vg2s.graph import build_graph
from vg2s.instance import Instance
from vg2s.nnutil import mlp
from vg2s.policy import decode_step, project_keys
from vg2s.trainer import Decisions, build_model, embed, log_prob_totals, rollout

LOG_PROB_TOL = 1e-12   # absolute, per step and per episode total
GRAD_TOL = 1e-10       # relative to each parameter's largest |gradient|
# Floor of that scale: a gradient that cancels to zero in exact arithmetic
# (two identical jobs, say) is left with ~1e-16 of rounding noise, which no
# relative bound holds.
GRAD_SCALE_FLOOR = 1e-3
GLIMPSE_MASK_FILL = -1e8  # additive: a product would flip negative scores


@dataclass
class StepLogits:
    avail: list[int]
    logits_avail: ad.Tensor
    full: np.ndarray

    def log_prob(self, action: int) -> ad.Tensor:
        idx = self.avail.index(action)
        chosen = ad.take(self.logits_avail, np.array([idx]))
        return ad.sub(ad.tsum(chosen), ad.logsumexp(self.logits_avail, axis=0))


def reference_decode_step(z, h_real, prev_action, state_feats, sched_mask, avail,
                          store, cfg) -> StepLogits:
    """One pointer step of one episode over its n*m real op nodes."""
    num_ops = h_real.data.shape[0]
    d_head = (cfg.d_latent + cfg.d_glimpse) / cfg.glimpse_heads
    if prev_action is None:
        h_prev = store["policy.dummy_prev"]
    else:
        h_prev = ad.reshape(ad.take(h_real, np.array([prev_action])), (cfg.d_latent,))
    context = ad.concat([z, h_prev], axis=0)
    state_emb = mlp(store, "policy.state", ad.Tensor(state_feats))
    keys = ad.concat([h_real, state_emb], axis=1)
    attend_mask = ~np.asarray(sched_mask, dtype=bool)
    q = context
    for layer in range(cfg.glimpse_layers):
        head_sum = None
        for head in range(cfg.glimpse_heads):
            tag = f"policy.glimpse.l{layer}.h{head}"
            qh = ad.matmul(q, store[f"{tag}.wq"])
            kh = ad.matmul(keys, store[f"{tag}.wk"])
            vh = ad.matmul(keys, store[f"{tag}.wv"])
            scores = ad.mul(ad.matmul(kh, ad.reshape(qh, (-1, 1))), 1.0 / np.sqrt(d_head))
            scores = ad.reshape(scores, (num_ops,))
            scores = ad.add(scores, np.where(attend_mask, 0.0, GLIMPSE_MASK_FILL))
            weights = softmax(scores, axis=0)
            contrib = ad.reshape(ad.matmul(ad.reshape(weights, (1, -1)), vh),
                                 (2 * cfg.d_latent,))
            head_sum = contrib if head_sum is None else ad.add(head_sum, contrib)
        q = head_sum
    q_lc = ad.matmul(q, store["policy.lc.wq"])
    k_lc = ad.matmul(keys, store["policy.lc.wk"])
    raw = ad.reshape(ad.matmul(k_lc, ad.reshape(q_lc, (-1, 1))), (num_ops,))
    logits_all = ad.mul(ad.tanh(ad.mul(raw, 1.0 / cfg.d_latent)), cfg.logit_clip)
    logits_avail = ad.take(logits_all, np.array(avail))
    full = np.full(num_ops, -np.inf)
    full[avail] = logits_avail.data
    return StepLogits(avail=list(avail), logits_avail=logits_avail, full=full)


def reference_log_prob(logits: np.ndarray, action: int) -> float:
    """select_action's log-probability of `action` under one full logit
    vector."""
    finite = np.isfinite(logits)
    shifted = logits - logits[finite].max()
    e = np.where(finite, np.exp(shifted), 0.0)
    return float(np.log(e[action] / e.sum()))


def reference_rollout(inst, z, h_real, store, cfg, actions):
    """One episode teacher forced through `actions`, one scalar decode_step
    per decision.  Returns (per-step log-probs, taped log-probability total,
    per-step full logit vectors)."""
    z, h_real = ad.Tensor(z), ad.Tensor(h_real)
    st_ = ScheduleState(inst)
    log_probs, terms, fulls = [], [], []
    prev = None
    for action in actions:
        feats = np.zeros((inst.num_ops, 6))  # the reference reads dense features
        feats[available(st_)] = state_features(st_)
        out = reference_decode_step(z, h_real, prev, feats, st_.start != UNSET,
                                    available(st_), store, cfg)
        terms.append(out.log_prob(action))
        log_probs.append(reference_log_prob(out.full, action))
        fulls.append(out.full)
        st_.step(action)
        prev = action
    assert st_.done
    total = terms[0]
    for term in terms[1:]:
        total = ad.add(total, term)
    return log_probs, total, fulls


ONE_BY_ONE = Instance(n=1, m=1, ops=(((0, 5),),))
ONE_BY_FOUR = Instance(n=1, m=4, ops=(((2, 1), (0, 7), (3, 7), (1, 2)),))
TWO_BY_THREE = Instance(n=2, m=3, ops=(((0, 3), (1, 2), (2, 4)), ((2, 2), (0, 4), (1, 1))))
IDENTICAL_JOBS = Instance(n=4, m=2, ops=(((0, 1), (1, 1)),) * 4)


# 120 op rows but at most 12 available at a step: most rows take the fixed
# keys, and the available-row corrections carry every decision.
TWELVE_BY_TEN = random_instance(12, 10, seed=12)


def _batch_inputs(insts, cfg, model_seed, seed):
    store = build_model(cfg, seed=model_seed)
    rng = np.random.default_rng(seed)
    h_real, mus, zs = [], [], []
    for inst in insts:
        h, mu, sigma = embed(build_graph(inst), store, cfg)
        h_real.append(h)
        mus.append(mu)
        zs.append(mu + sigma * rng.standard_normal(mu.shape[0]))
    return store, rng, h_real, np.stack(mus), np.stack(zs)


def _grads(store, loss):
    params = store.section("policy.")
    ad.zero_grad(params)
    ad.backward(loss)
    return [p.grad.copy() for p in params]


@settings(max_examples=60, deadline=None)
@given(insts=instance_batches(), layers=st.integers(1, 2),
       model_seed=st.integers(0, 100), seed=st.integers(0, 10_000))
@example(insts=[ONE_BY_ONE], layers=1, model_seed=0, seed=0)
@example(insts=[ONE_BY_FOUR, ONE_BY_ONE, TWO_BY_THREE], layers=1, model_seed=1, seed=1)
@example(insts=[TWO_BY_THREE, ONE_BY_FOUR], layers=2, model_seed=2, seed=2)
@example(insts=[TWELVE_BY_TEN, TWO_BY_THREE], layers=2, model_seed=3, seed=3)
def test_batched_rollout_matches_scalar_reference(tiny_cfg, insts, layers, model_seed, seed):
    """With the batched rollout's sampled actions forced on the reference,
    per-step log-probs, per-episode totals and policy gradients agree, and
    each returned schedule is the one its actions build."""
    cfg = dataclasses.replace(tiny_cfg, glimpse_layers=layers)
    store, rng, h_real, _, z = _batch_inputs(insts, cfg, model_seed, seed)
    weights = rng.uniform(-2.0, 2.0, len(insts))
    dec, states = rollout(insts, z, h_real, store, cfg, "sample", rng=rng)
    with ad.Tape():
        totals = log_prob_totals(dec, store, cfg)
        grads = _grads(store, ad.tsum(ad.mul(totals, weights)))
    with ad.Tape():
        loss = None
        for e, (inst, state) in enumerate(zip(insts, states)):
            actions = dec.actions[e, :inst.num_ops].tolist()
            log_probs, total, _ = reference_rollout(inst, z[e], h_real[e], store, cfg, actions)
            replayed = replay(inst, actions)
            np.testing.assert_array_equal(state.start, replayed.start)
            np.testing.assert_array_equal(state.end, replayed.end)
            np.testing.assert_allclose(dec.log_probs[e, :inst.num_ops], log_probs,
                                       rtol=0, atol=LOG_PROB_TOL)
            assert not dec.log_probs[e, inst.num_ops:].any()
            np.testing.assert_allclose(totals.data[e], total.data,
                                       rtol=0, atol=LOG_PROB_TOL)
            term = ad.mul(total, weights[e])
            loss = term if loss is None else ad.add(loss, term)
        ref_grads = _grads(store, loss)
    names = [name for name in store.names() if name.startswith("policy.")]
    for name, got, want in zip(names, grads, ref_grads):
        scale = max(np.abs(want).max(), GRAD_SCALE_FLOOR)
        assert np.abs(got - want).max() <= GRAD_TOL * scale, name


@settings(max_examples=40, deadline=None)
@given(insts=instance_batches(), layers=st.integers(1, 2),
       model_seed=st.integers(0, 100))
@example(insts=[ONE_BY_ONE, ONE_BY_FOUR], layers=1, model_seed=0)
@example(insts=[IDENTICAL_JOBS, TWO_BY_THREE], layers=1, model_seed=0)
@example(insts=[TWELVE_BY_TEN], layers=2, model_seed=3)
def test_greedy_actions_match_scalar_reference(tiny_cfg, insts, layers, model_seed):
    """Greedy episodes at the latent means pick the reference's greedy
    action at every step.  Where the reference's top logits tie to within
    rounding (identical jobs, say), either pick is the greedy one: the
    lowest-index tie-break then depends on the last bit of each logit,
    which differs between any two summation orders."""
    cfg = dataclasses.replace(tiny_cfg, glimpse_layers=layers)
    store, _, h_real, mu, _ = _batch_inputs(insts, cfg, model_seed, 0)
    dec, _ = rollout(insts, mu, h_real, store, cfg, "greedy")
    for e, inst in enumerate(insts):
        actions = dec.actions[e, :inst.num_ops].tolist()
        log_probs, _, fulls = reference_rollout(inst, mu[e], h_real[e], store, cfg, actions)
        for action, full in zip(actions, fulls):
            assert full[action] >= full.max() - LOG_PROB_TOL
        np.testing.assert_allclose(dec.log_probs[e, :inst.num_ops], log_probs,
                                   rtol=0, atol=LOG_PROB_TOL)


def test_padded_decisions_contribute_nothing(tiny_cfg):
    """A 2x2 episode batched with a 4x3 one is padded to 12 op rows and 12
    decisions.  Its log-probability total and policy gradient equal those of
    the same episode (same z, same actions) scored alone."""
    insts = [random_instance(2, 2, seed=4), random_instance(4, 3, seed=5)]
    store, rng, h_real, _, z = _batch_inputs(insts, tiny_cfg, 0, 0)
    batched, _ = rollout(insts, z, h_real, store, tiny_cfg, "sample", rng=rng)
    steps, jobs = 4, 2
    assert not batched.valid[0, steps:].any()
    assert not batched.attend[0, :steps, steps:].any()
    assert batched.ops[0, :steps].max() < steps
    alone = Decisions(batched.z[:1], batched.h_real[:1, :steps], batched.actions[:1, :steps],
                      batched.log_probs[:1, :steps], batched.feats[:1, :steps, :jobs],
                      batched.attend[:1, :steps, :steps], batched.ops[:1, :steps, :jobs],
                      batched.valid[:1, :steps])
    with ad.Tape():
        totals = log_prob_totals(batched, store, tiny_cfg)
        grads = _grads(store, ad.tsum(ad.mul(totals, np.array([1.0, 0.0]))))
    with ad.Tape():
        total = log_prob_totals(alone, store, tiny_cfg)
        ref_grads = _grads(store, ad.tsum(total))
    np.testing.assert_allclose(totals.data[0], total.data[0], rtol=0, atol=LOG_PROB_TOL)
    for got, want in zip(grads, ref_grads):
        scale = max(np.abs(want).max(), GRAD_SCALE_FLOOR)
        assert np.abs(got - want).max() <= GRAD_TOL * scale


def _arrays(store):
    """The store's parameter arrays by name, as an untaped rollout reads them."""
    return {name: store[name].data for name in store.names()}


def _assert_same_bits(got, want):
    assert isinstance(got, np.ndarray) and not isinstance(got, ad.Tensor)
    np.testing.assert_array_equal(got, want.data, strict=True)


@settings(max_examples=40, deadline=None)
@given(insts=instance_batches(), layers=st.integers(1, 2),
       model_seed=st.integers(0, 100), seed=st.integers(0, 10_000))
@example(insts=[ONE_BY_ONE], layers=1, model_seed=0, seed=0)
@example(insts=[IDENTICAL_JOBS, ONE_BY_ONE], layers=2, model_seed=1, seed=1)
@example(insts=[TWELVE_BY_TEN, TWO_BY_THREE], layers=2, model_seed=3, seed=3)
def test_plain_namespace_matches_autodiff(tiny_cfg, insts, layers, model_seed, seed):
    """project_keys and decode_step on autodiff.plain return exactly the
    bits of autodiff's Tensors: every block of the projection, and the
    logits of a rollout's recorded decisions, scored all at once (T = the
    longest episode) and one step at a time (T = 1)."""
    cfg = dataclasses.replace(tiny_cfg, glimpse_layers=layers)
    store, rng, h_real, _, z = _batch_inputs(insts, cfg, model_seed, seed)
    dec, _ = rollout(insts, z, h_real, store, cfg, "sample", rng=rng)
    params = _arrays(store)
    taped = project_keys(dec.h_real, store, cfg)
    plain = project_keys(dec.h_real, params, cfg, ad.plain)
    _assert_same_bits(plain.state_zero, taped.state_zero)
    assert len(plain.glimpses) == len(taped.glimpses) == layers
    for got, want in zip(plain.glimpses + [plain.pointer], taped.glimpses + [taped.pointer]):
        for field in ("wq", "keys_t", "wk_state_t", "values", "wv_state"):
            if getattr(want, field) is None:
                assert getattr(got, field) is None
            else:
                _assert_same_bits(getattr(got, field), getattr(want, field))

    prev = np.concatenate([np.full((len(insts), 1), -1), dec.actions[:, :-1]], axis=1)
    inputs = (dec.feats, dec.attend, dec.ops)
    _assert_same_bits(decode_step(dec.z, prev, plain, *inputs, params, cfg, ad.plain),
                      decode_step(dec.z, prev, taped, *inputs, store, cfg))
    for t in range(dec.actions.shape[1]):
        step = [x[:, t:t + 1] for x in (prev,) + inputs]
        _assert_same_bits(decode_step(dec.z, *step[:1], plain, *step[1:], params, cfg, ad.plain),
                          decode_step(dec.z, *step[:1], taped, *step[1:], store, cfg))


def test_untaped_rollouts_build_no_tensor(tiny_cfg, monkeypatch):
    """A sampling and a greedy rollout of a mixed batch, with episodes
    leaving it at different steps, construct no autodiff Tensor; the
    scoring pass, which a backward pass walks, does."""
    insts = [TWO_BY_THREE, ONE_BY_FOUR, random_instance(3, 3, seed=1)]
    store, rng, h_real, mu, z = _batch_inputs(insts, tiny_cfg, 0, 0)
    built = [0]
    init = ad.Tensor.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(ad.Tensor, "__init__", counted)
    dec, _ = rollout(insts, z, h_real, store, tiny_cfg, "sample", rng=rng)
    rollout(insts, mu, h_real, store, tiny_cfg, "greedy")
    assert built[0] == 0
    log_prob_totals(dec, store, tiny_cfg)
    assert built[0] > 0
