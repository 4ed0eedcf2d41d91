from __future__ import annotations

import gc

import numpy as np
import pytest

from vg2s import autodiff as ad
from vg2s.bench import solve_with_model
from vg2s.env import replay
from vg2s.instance import GenConfig, generate_random
from vg2s.trainer import (ENCODER_SECTIONS, EncoderCache, InstancePool,
                          TrainConfig, TrainingDiverged, build_model, rollout,
                          scaled_q, train_policy, train_representation)


@pytest.fixture()
def small_pool(two_by_two):
    cfg = TrainConfig(repr_epochs=3, policy_epochs=2, batch_size=2, pool_size=2)
    pool = InstancePool(cfg, np.random.default_rng(1), frozen=[two_by_two])
    return cfg, pool


class TestTrainConfig:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(lr_repr=-1.0)


class TestInstancePool:
    def test_frozen_never_refreshes(self, two_by_two):
        cfg = TrainConfig()
        pool = InstancePool(cfg, np.random.default_rng(0), frozen=[two_by_two])
        assert not pool.refresh(1)
        assert pool.instances == [two_by_two]

    def test_generated_refresh_cadence(self):
        cfg = TrainConfig(pool_refresh=5, pool_size=4, batch_size=2)
        pool = InstancePool(cfg, np.random.default_rng(0),
                            gen_cfg=GenConfig(m_lo=2, m_hi=2, n_hi=3))
        assert pool.refresh(1)
        first = list(pool.instances)
        for epoch in range(2, 6):
            assert not pool.refresh(epoch)
        assert pool.instances == first
        assert pool.refresh(6)
        assert pool.instances != first

    def test_sample_in_range(self, small_pool):
        _, pool = small_pool
        assert all(pool.sample() == 0 for _ in range(5))


class TestBuildModel:
    def test_all_sections_present(self, tiny_cfg):
        store = build_model(tiny_cfg, seed=3)
        for prefix in ("encoder.", "latent.", "decoder.", "policy.", "critic."):
            assert store.section(prefix), prefix

    def test_seed_determinism(self, tiny_cfg):
        a = build_model(tiny_cfg, seed=3)
        b = build_model(tiny_cfg, seed=3)
        assert a.section_bytes("") == b.section_bytes("")
        c = build_model(tiny_cfg, seed=4)
        assert a.section_bytes("") != c.section_bytes("")


class TestScaledQ:
    def test_scaled(self, two_by_two):
        assert scaled_q(two_by_two, 14, True) == pytest.approx(-2.0)

    def test_unscaled(self, two_by_two):
        assert scaled_q(two_by_two, 14, False) == -14.0


class TestPhase1:
    def test_loss_decreases_and_logs(self, tiny_cfg, small_pool):
        cfg, pool = small_pool
        cfg = TrainConfig(repr_epochs=40, lr_repr=3e-3, seed=0)
        store = build_model(tiny_cfg, seed=0)
        report = train_representation(cfg, tiny_cfg, store, pool,
                                      np.random.default_rng(0))
        assert report.columns == ("epoch", "kl", "node", "edge", "total")
        assert len(report.rows) == 40
        first, last = report.rows[0][-1], report.rows[-1][-1]
        assert last < first

    def test_only_encoder_sections_move(self, tiny_cfg, small_pool):
        cfg, pool = small_pool
        store = build_model(tiny_cfg, seed=0)
        pol_before = store.section_bytes("policy.")
        cr_before = store.section_bytes("critic.")
        enc_before = store.section_bytes("encoder.")
        train_representation(cfg, tiny_cfg, store, pool, np.random.default_rng(0))
        assert store.section_bytes("policy.") == pol_before
        assert store.section_bytes("critic.") == cr_before
        assert store.section_bytes("encoder.") != enc_before

    def test_epoch_tapes_freed_without_cyclic_gc(self, tiny_cfg, small_pool):
        # Peak memory must not depend on when the cyclic collector runs.
        cfg, pool = small_pool
        store = build_model(tiny_cfg, seed=0)
        gc.collect()
        gc.disable()
        try:
            train_representation(cfg, tiny_cfg, store, pool, np.random.default_rng(0))
            alive = [o for o in gc.get_objects() if isinstance(o, ad.Tape)]
        finally:
            gc.enable()
        assert alive == []

    def test_non_finite_gradient_raises(self, tiny_cfg, small_pool, monkeypatch):
        cfg, pool = small_pool
        store = build_model(tiny_cfg, seed=0)
        poison_backward(monkeypatch, store["encoder.embed.fc1.w"])
        before = store.section_bytes("encoder.")
        with pytest.raises(TrainingDiverged, match="gradient at epoch 1"):
            train_representation(cfg, tiny_cfg, store, pool, np.random.default_rng(0))
        assert store.section_bytes("encoder.") == before


def poison_backward(monkeypatch, param):
    """Make every backward pass leave a NaN in `param`'s gradient, as an
    overflow inside the backward pass would, while the loss stays finite."""
    backward = ad.backward

    def poisoned(loss):
        backward(loss)
        param.grad.flat[0] = np.nan

    monkeypatch.setattr(ad, "backward", poisoned)


class TestRollout:
    def test_valid_complete_schedule(self, two_by_two, tiny_cfg, rng):
        store = build_model(tiny_cfg, seed=0)
        pool = InstancePool(TrainConfig(), rng, frozen=[two_by_two])
        cache = EncoderCache(store, tiny_cfg)
        cache.rebuild(pool)
        h_real, z = cache.draw(0, rng)
        traj = rollout([two_by_two], z[None], [h_real], store, tiny_cfg, "sample",
                       rng=rng).trajectories[0]
        assert sorted(traj.actions) == [0, 1, 2, 3]
        assert replay(two_by_two, traj.actions).makespan() == traj.makespan
        assert traj.makespan in (7, 11)

    def test_greedy_deterministic(self, two_by_two, tiny_cfg, rng):
        store = build_model(tiny_cfg, seed=0)
        pool = InstancePool(TrainConfig(), rng, frozen=[two_by_two])
        cache = EncoderCache(store, tiny_cfg)
        cache.rebuild(pool)
        h_real, mu, _ = cache.entries[0]
        a = rollout([two_by_two], mu[None], [h_real], store, tiny_cfg, "greedy")
        b = rollout([two_by_two], mu[None], [h_real], store, tiny_cfg, "greedy")
        assert a.trajectories[0].actions == b.trajectories[0].actions

    def test_taped_log_prob_matches_sum(self, two_by_two, tiny_cfg, rng):
        store = build_model(tiny_cfg, seed=0)
        pool = InstancePool(TrainConfig(), rng, frozen=[two_by_two])
        cache = EncoderCache(store, tiny_cfg)
        cache.rebuild(pool)
        h_real, z = cache.draw(0, rng)
        with ad.Tape():
            episodes = rollout([two_by_two], z[None], [h_real], store, tiny_cfg,
                               "sample", rng=rng, taped=True)
        traj = episodes.trajectories[0]
        assert episodes.log_prob_total.data[0] == pytest.approx(sum(traj.log_probs))


class TestPhase2:
    def test_encoder_frozen(self, two_by_two, tiny_cfg):
        cfg = TrainConfig(policy_epochs=3, batch_size=2, seed=0)
        store = build_model(tiny_cfg, seed=0)
        pool = InstancePool(cfg, np.random.default_rng(0), frozen=[two_by_two])
        frozen_before = [store.section_bytes(s) for s in ENCODER_SECTIONS]
        pol_before = store.section_bytes("policy.")
        cr_before = store.section_bytes("critic.")
        report = train_policy(cfg, tiny_cfg, store, pool, np.random.default_rng(0))
        for section, before in zip(ENCODER_SECTIONS, frozen_before):
            assert store.section_bytes(section) == before, section
        assert store.section_bytes("policy.") != pol_before
        assert store.section_bytes("critic.") != cr_before
        assert report.columns == ("epoch", "policy_loss", "critic_loss", "mean_cmax")
        assert len(report.rows) == 3

    def test_deterministic_given_seeds(self, two_by_two, tiny_cfg):
        results = []
        for _ in range(2):
            cfg = TrainConfig(policy_epochs=3, batch_size=2, seed=0)
            store = build_model(tiny_cfg, seed=0)
            pool = InstancePool(cfg, np.random.default_rng(0), frozen=[two_by_two])
            train_policy(cfg, tiny_cfg, store, pool, np.random.default_rng(0))
            results.append(store.section_bytes("policy."))
        assert results[0] == results[1]

    def test_epoch_tapes_freed_without_cyclic_gc(self, two_by_two, tiny_cfg):
        # Peak memory must not depend on when the cyclic collector runs.
        cfg = TrainConfig(policy_epochs=3, batch_size=2, seed=0)
        store = build_model(tiny_cfg, seed=0)
        pool = InstancePool(cfg, np.random.default_rng(0), frozen=[two_by_two])
        gc.collect()
        gc.disable()
        try:
            train_policy(cfg, tiny_cfg, store, pool, np.random.default_rng(0))
            alive = [o for o in gc.get_objects() if isinstance(o, ad.Tape)]
        finally:
            gc.enable()
        assert alive == []

    def test_non_finite_gradient_raises(self, two_by_two, tiny_cfg, monkeypatch):
        cfg = TrainConfig(policy_epochs=2, batch_size=2, seed=0)
        store = build_model(tiny_cfg, seed=0)
        pool = InstancePool(cfg, np.random.default_rng(0), frozen=[two_by_two])
        poison_backward(monkeypatch, store["critic.fc1.w"])
        before = store.section_bytes("policy.") + store.section_bytes("critic.")
        with pytest.raises(TrainingDiverged, match="gradient at epoch 1"):
            train_policy(cfg, tiny_cfg, store, pool, np.random.default_rng(0))
        assert store.section_bytes("policy.") + store.section_bytes("critic.") == before


class TestGreedyEval:
    def test_mean_over_pool(self, tiny_cfg, rng):
        gen = GenConfig(m_lo=2, m_hi=2, n_hi=3)
        insts = [generate_random(gen, rng) for _ in range(3)]
        pool = InstancePool(TrainConfig(), rng, frozen=insts)
        store = build_model(tiny_cfg, seed=0)
        mean = np.mean([solve_with_model(inst, store, tiny_cfg)[1]
                        for inst in pool.instances])
        assert mean >= np.mean([i.load_lower_bound() for i in insts])
