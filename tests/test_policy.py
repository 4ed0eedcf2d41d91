from __future__ import annotations

import numpy as np
import pytest

from env_reference import available, state_features
from helpers import grad_check, random_instance
from vg2s import autodiff as ad
from vg2s.checkpoint import ParamStore
from vg2s.env import UNSET, ScheduleState
from vg2s.graph import build_graph
from vg2s.policy import (build_critic_params, build_policy_params,
                         critic_value, decode_step, log_prob, project_keys,
                         select_action)
from vg2s.trainer import build_model, log_prob_totals, rollout
from vg2s.vge import build_encoder_params, encode, latent


@pytest.fixture()
def policy_setup(two_by_two, tiny_cfg, rng):
    store = ParamStore()
    build_encoder_params(store, tiny_cfg, rng)
    build_policy_params(store, tiny_cfg, rng)
    build_critic_params(store, tiny_cfg, rng)
    graph = build_graph(two_by_two)
    h = encode(graph, store, tiny_cfg)
    h_real = ad.take(h, np.arange(4))
    z = latent(h, store, tiny_cfg).z
    st_ = ScheduleState(two_by_two)
    return store, h_real, z, st_


# decode_step's two namespaces: taped Tensors over a ParamStore, and plain
# arrays over its arrays by name.
NAMESPACES = pytest.mark.parametrize("xp", [ad, ad.plain], ids=["autodiff", "plain"])


def _params(store, xp):
    return store if xp is ad else {name: store[name].data for name in store.names()}


def step_logits(setup, cfg, prev=None, avail=None, attend=None, xp=ad):
    """decode_step for the one episode of `setup` (a batch of one), over
    `avail`, a subset of its available ops (all of them by default), on
    the ops of `xp`."""
    store, h_real, z, st_ = setup
    store = _params(store, xp)
    ops = available(st_)
    avail = ops if avail is None else avail
    feats = state_features(st_)[[ops.index(u) for u in avail]]
    if attend is None:
        attend = np.ones((1, 1, 4), dtype=bool)
    prev = np.array([[-1 if prev is None else prev]])
    out = decode_step(z.data[None], prev, project_keys(h_real.data[None], store, cfg, xp),
                      feats[None, None], attend, np.array([[avail]], dtype=np.int64),
                      store, cfg, xp)
    return xp.reshape(out, (1, 4))


class TestDecodeStep:
    def test_full_vector_masking(self, policy_setup, tiny_cfg):
        full = step_logits(policy_setup, tiny_cfg).data[0]
        assert np.flatnonzero(np.isfinite(full)).tolist() == [0, 2]
        assert np.isneginf(full[1]) and np.isneginf(full[3])
        assert np.all(np.isfinite(full[[0, 2]]))

    def test_logit_clip_bound(self, policy_setup, tiny_cfg):
        full = step_logits(policy_setup, tiny_cfg).data
        assert np.all(np.abs(full[np.isfinite(full)]) <= tiny_cfg.logit_clip)

    def test_single_available_prob_one(self, policy_setup, tiny_cfg):
        out = step_logits(policy_setup, tiny_cfg, avail=[2])
        assert np.exp(log_prob(out, np.array([2])).data[0]) == pytest.approx(1.0)

    def test_log_probs_normalize(self, policy_setup, tiny_cfg):
        out = step_logits(policy_setup, tiny_cfg)
        total = sum(np.exp(log_prob(out, np.array([a])).data[0]) for a in (0, 2))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_prev_action_changes_logits(self, policy_setup, tiny_cfg):
        a = step_logits(policy_setup, tiny_cfg, prev=None).data
        b = step_logits(policy_setup, tiny_cfg, prev=1).data
        finite = np.isfinite(a)
        assert not np.allclose(a[finite], b[finite])

    @NAMESPACES
    def test_empty_avail_rejected(self, policy_setup, tiny_cfg, xp):
        with pytest.raises(ValueError):
            step_logits(policy_setup, tiny_cfg, avail=[], xp=xp)

    @NAMESPACES
    def test_all_scheduled_rejected(self, policy_setup, tiny_cfg, xp):
        with pytest.raises(ValueError):
            step_logits(policy_setup, tiny_cfg, avail=[0],
                        attend=np.zeros((1, 1, 4), dtype=bool), xp=xp)

    @NAMESPACES
    def test_dense_features_rejected(self, policy_setup, tiny_cfg, xp):
        """state_feats holds one slot per slot of the map: the dense (N, 6)
        features of every op row, 4 rows for 2 available ops, fail."""
        store, h_real, z, st_ = policy_setup
        store = _params(store, xp)
        keys = project_keys(h_real.data[None], store, tiny_cfg, xp)
        dense = np.zeros((4, 6))
        dense[available(st_)] = state_features(st_)
        with pytest.raises(ValueError, match="slots"):
            decode_step(z.data[None], np.array([[-1]]), keys, dense[None, None],
                        np.ones((1, 1, 4), dtype=bool), np.array([[available(st_)]]),
                        store, tiny_cfg, xp)


def _two_episodes(tiny_cfg, n=6, m=5, seed=3, points=(3, 11)):
    """Inputs of one decode_step for two episodes of an n x m instance, at
    two points (step counts) of a random schedule, one decision each
    (T = 1): (store, z, h_real, feats, attend, ops), feats and the op
    rows `ops` in slot order."""
    rng = np.random.default_rng(seed)
    inst = random_instance(n, m, seed)
    store = build_model(tiny_cfg, seed=seed)
    h_real = rng.normal(size=(2, inst.num_ops, tiny_cfg.d_latent))
    z = rng.normal(size=(2, tiny_cfg.d_latent))
    feats, attend, ops = np.zeros((2, 1, n, 6)), [], np.full((2, 1, n), -1)
    for e, steps in enumerate(points):
        st_ = ScheduleState(inst)
        for _ in range(steps):
            st_.step(int(rng.choice(available(st_))))
        avail = available(st_)
        feats[e, 0, :len(avail)] = state_features(st_)
        ops[e, 0, :len(avail)] = avail
        attend.append(st_.start == UNSET)
    slots = (ops >= 0).sum(axis=-1).max()
    return (store, z, h_real, feats[:, :, :slots], np.stack(attend)[:, None], ops[..., :slots])


PREV = np.zeros((2, 1), dtype=np.int64)  # op 0 was each episode's previous action


class TestAvailableRows:
    def test_rows_outside_avail_not_read(self, tiny_cfg):
        """decode_step reads the slots of available ops only: garbage in
        the slots after a decision's available count leaves every logit
        unchanged, bit for bit."""
        # 4 ops left of 30 in the second episode: fewer available than 6
        store, z, h_real, feats, attend, ops = _two_episodes(tiny_cfg, points=(3, 26))
        keys = project_keys(h_real, store, tiny_cfg)
        want = decode_step(z, PREV, keys, feats, attend, ops, store, tiny_cfg).data
        real = ops >= 0
        assert not real.all()
        noisy = feats.copy()
        noisy[~real] = np.random.default_rng(0).normal(size=(int((~real).sum()), 6)) * 50
        got = decode_step(z, PREV, keys, noisy, attend, ops, store, tiny_cfg).data
        np.testing.assert_array_equal(got, want)
        # ...and the features of the real slots are read.
        noisy[real] += 1.0
        moved = decode_step(z, PREV, keys, noisy, attend, ops, store, tiny_cfg).data
        avail = np.isfinite(want)
        assert avail.sum() == real.sum()
        assert not np.allclose(moved[avail], want[avail])

    def test_no_step_node_spans_every_key(self, tiny_cfg):
        """Neither a taped step nor the taped scoring of a whole rollout
        records a tensor of B * N * K values (K key columns of every op row),
        the size of project_keys' one fixed projection: the full per-step
        key projection stays gone, and the T decisions of an episode share
        its keys rather than each gathering a copy (B * T * N * K).  The
        scoring pass's largest nodes are its (B, H, T, N) attention scores,
        under B * N * K while H * T < K, as in the 4x4 and 3x4 batch here."""
        cfg = tiny_cfg  # K: each glimpse head's wk and wv, then the pointer's wk
        key_columns = (cfg.glimpse_layers * cfg.glimpse_heads * (3 * cfg.d_latent + cfg.d_glimpse)
                       + cfg.d_latent + cfg.d_logit)
        store, z, h_real, feats, attend, ops = _two_episodes(tiny_cfg, n=10, m=8)
        count, _, num_ops = attend.shape
        with ad.Tape() as tape:
            keys = project_keys(h_real, store, tiny_cfg)
            before = len(tape.nodes)
            out = decode_step(z, PREV, keys, feats, attend, ops, store, tiny_cfg)
            log_prob(out, np.argmax(out.data, axis=-1))
        step_nodes = tape.nodes[before:]
        assert step_nodes
        assert max(node.data.size for node in step_nodes) < count * num_ops * key_columns

        insts = [random_instance(4, 4, seed=1), random_instance(3, 4, seed=2)]
        h_real = [np.random.default_rng(e).normal(size=(inst.num_ops, cfg.d_latent))
                  for e, inst in enumerate(insts)]
        decisions, _ = rollout(insts, z, h_real, store, cfg, "sample",
                               rng=np.random.default_rng(0))
        assert cfg.glimpse_heads * decisions.actions.shape[1] < key_columns
        with ad.Tape() as tape:
            log_prob_totals(decisions, store, cfg)
        num_ops = decisions.h_real.shape[1]
        assert max(node.data.size for node in tape.nodes) <= count * num_ops * key_columns


class TestSelectAction:
    def test_greedy_argmax(self):
        logits = np.array([[-np.inf, 2.0, -np.inf, 5.0]])
        action, logp = select_action(logits, "greedy")
        assert action.tolist() == [3]
        assert logp[0] == pytest.approx(np.log(np.exp(5) / (np.exp(2) + np.exp(5))))

    def test_greedy_tie_lowest_index(self):
        action, _ = select_action(np.array([[1.0, 1.0, -np.inf]]), "greedy")
        assert action.tolist() == [0]

    def test_sample_respects_mask(self, rng):
        logits = np.array([[-np.inf, 0.0, -np.inf, 0.0]])
        for _ in range(50):
            action, _ = select_action(logits, "sample", rng)
            assert action[0] in (1, 3)

    def test_sample_needs_rng(self):
        with pytest.raises(ValueError):
            select_action(np.array([[0.0, 1.0]]), "sample")

    def test_all_masked_rejected(self):
        with pytest.raises(ValueError):
            select_action(np.array([[-np.inf, -np.inf]]), "greedy")
        with pytest.raises(ValueError):  # one dead row among live ones
            select_action(np.array([[0.0, 1.0], [-np.inf, -np.inf]]), "greedy")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            select_action(np.array([[0.0]]), "argmax")

    def test_sample_frequencies(self, rng):
        # two options with logit gap ln 3: expect roughly 3:1 ratio
        logits = np.array([[np.log(3.0), 0.0]])
        hits = sum(select_action(logits, "sample", rng)[0][0] == 0 for _ in range(4000))
        assert abs(hits / 4000 - 0.75) < 0.03

    def test_rows_sample_as_rng_choice(self):
        """Each row draws what one rng.choice call per row, in order, would
        draw from the same generator, and reports that action's log-prob."""
        gen = np.random.default_rng(5)
        logits = gen.normal(size=(6, 7))
        logits[gen.random((6, 7)) < 0.5] = -np.inf
        logits[:, 3] = 0.0
        actions, logps = select_action(logits, "sample", np.random.default_rng(8))
        rng = np.random.default_rng(8)
        for row, action, logp in zip(logits, actions, logps):
            probs = np.exp(row - row.max())
            probs /= probs.sum()
            assert action == rng.choice(len(probs), p=probs)
            assert logp == pytest.approx(np.log(probs[action]), abs=1e-12)


class TestCritic:
    def test_scalar_output(self, policy_setup, tiny_cfg):
        store, _, z, _ = policy_setup
        v = critic_value(z, store, tiny_cfg)
        assert v.data.shape == ()

    def test_batch_rows_match_single_latents(self, policy_setup, tiny_cfg, rng):
        store, _, _, _ = policy_setup
        zs = rng.normal(size=(3, tiny_cfg.d_latent))
        batch = critic_value(ad.Tensor(zs), store, tiny_cfg)
        assert batch.data.shape == (3,)
        for z, v in zip(zs, batch.data):
            assert critic_value(ad.Tensor(z), store, tiny_cfg).data == pytest.approx(v, abs=1e-15)

    def test_depends_on_latent(self, policy_setup, tiny_cfg, rng):
        store, _, _, _ = policy_setup
        a = critic_value(ad.as_tensor(rng.normal(size=tiny_cfg.d_latent)), store, tiny_cfg)
        b = critic_value(ad.as_tensor(rng.normal(size=tiny_cfg.d_latent)), store, tiny_cfg)
        assert a.data != b.data


class TestGradients:
    def test_policy_log_prob_gradient(self, policy_setup, tiny_cfg):
        store, h_real, z, st_ = policy_setup
        feats = state_features(st_)
        sched = np.zeros(4, dtype=bool)
        z_fixed = z.data.copy()
        h_fixed = h_real.data.copy()
        params = store.section("policy.")

        ops = np.array([[available(st_)]])

        def f():
            keys = project_keys(h_fixed[None], store, tiny_cfg)
            out = decode_step(z_fixed[None], np.array([[-1]]), keys, feats[None, None],
                              ~sched[None, None], ops, store, tiny_cfg)
            return ad.mul(ad.tsum(log_prob(out, np.array([[2]]))), -1.0)

        passed, rel = grad_check(f, params)
        assert passed, f"policy gradient mismatch {rel}"

    def test_critic_gradient(self, policy_setup, tiny_cfg):
        store, _, z, _ = policy_setup
        z_fixed = z.data.copy()
        params = store.section("critic.")

        def f():
            return ad.square(critic_value(ad.as_tensor(z_fixed), store, tiny_cfg))

        passed, rel = grad_check(f, params)
        assert passed, f"critic gradient mismatch {rel}"
