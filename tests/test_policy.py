from __future__ import annotations

import numpy as np
import pytest

from vg2s import autodiff as ad
from vg2s.autodiff import grad_check
from vg2s.checkpoint import ParamStore
from vg2s.env import reset, state_features
from vg2s.graph import build_graph
from vg2s.policy import (build_critic_params, build_policy_params,
                         critic_value, decode_step, log_prob, project_keys,
                         select_action)
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
    st_ = reset(two_by_two)
    return store, h_real, z, st_


def step_logits(setup, cfg, prev=None, avail=None, attend=None):
    """decode_step for the one episode of `setup` (a batch of one)."""
    store, h_real, z, st_ = setup
    avail_mask = np.zeros((1, 4), dtype=bool)
    avail_mask[0, st_.available() if avail is None else avail] = True
    if attend is None:
        attend = np.ones((1, 4), dtype=bool)
    h_prev = None if prev is None else h_real.data[None, prev]
    return decode_step(z.data[None], h_prev, project_keys(h_real.data[None], store, cfg),
                       state_features(st_)[None], attend, avail_mask, store, cfg)


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

    def test_empty_avail_rejected(self, policy_setup, tiny_cfg):
        with pytest.raises(ValueError):
            step_logits(policy_setup, tiny_cfg, avail=[])

    def test_all_scheduled_rejected(self, policy_setup, tiny_cfg):
        with pytest.raises(ValueError):
            step_logits(policy_setup, tiny_cfg, avail=[0],
                        attend=np.zeros((1, 4), dtype=bool))


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

        avail = np.zeros((1, 4), dtype=bool)
        avail[0, st_.available()] = True

        def f():
            keys = project_keys(h_fixed[None], store, tiny_cfg)
            out = decode_step(z_fixed[None], None, keys, feats[None], ~sched[None],
                              avail, store, tiny_cfg)
            return ad.mul(ad.tsum(log_prob(out, np.array([2]))), -1.0)

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
