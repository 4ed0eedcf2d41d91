from __future__ import annotations

import gc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import param_bytes, random_instance, section_bytes, traced
from vg2s import autodiff as ad
from vg2s import trainer
from vg2s.bench import solve_with_model
from vg2s.checkpoint import load_checkpoint, save_checkpoint
from vg2s.env import replay
from vg2s.instance import GenConfig, generate_random
from vg2s.trainer import (ENCODER_SECTIONS, EncoderCache, InstancePool,
                          TrainConfig, TrainingDiverged, build_model,
                          log_prob_totals, rollout, scaled_q, train_policy,
                          train_representation)
from vg2s.vge import ModelConfig


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


def every_instance(pool: InstancePool) -> list:
    """Every slot's instance, making any not yet made."""
    return [pool.instance(i) for i in range(len(pool))]


class TestInstancePool:
    def test_frozen_never_refreshes(self, two_by_two):
        cfg = TrainConfig()
        pool = InstancePool(cfg, np.random.default_rng(0), frozen=[two_by_two])
        assert not pool.refresh(1)
        assert len(pool) == 1 and pool.instance(0) == two_by_two

    def test_empty_frozen_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            InstancePool(TrainConfig(), np.random.default_rng(0), frozen=[])

    def test_generated_refresh_cadence(self):
        cfg = TrainConfig(pool_refresh=5, pool_size=4, batch_size=2)
        pool = InstancePool(cfg, np.random.default_rng(0),
                            gen_cfg=GenConfig(m_lo=2, m_hi=2, n_hi=3))
        assert pool.refresh(1)
        first = every_instance(pool)
        for epoch in range(2, 6):
            assert not pool.refresh(epoch)
        assert every_instance(pool) == first
        assert pool.refresh(6)
        assert every_instance(pool) != first

    def test_sample_in_range(self, small_pool):
        _, pool = small_pool
        assert all(pool.sample() == 0 for _ in range(5))


def count_builds(monkeypatch) -> Counter:
    """Count the calls through the `vg2s.trainer` bindings of
    generate_random and build_graph, the ones the benchmark's tracer wraps."""
    counts = Counter()
    for name in ("generate_random", "build_graph"):
        def counted(*args, _fn=getattr(trainer, name), _name=name):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(trainer, name, counted)
    return counts


# GenConfigs of up to 6 x 6 operations: 1 <= m_lo <= m_hi <= n_hi, 1 <= p_lo <= p_hi.
GEN_CONFIGS = st.tuples(st.integers(1, 4), st.integers(0, 1), st.integers(0, 1),
                        st.integers(1, 50), st.integers(0, 50)).map(
    lambda t: GenConfig(m_lo=t[0], m_hi=t[0] + t[1], n_hi=t[0] + t[1] + t[2],
                        p_lo=t[3], p_hi=t[3] + t[4]))


class TestLazyPool:
    """A generated pool makes a slot's instance and graph on first use."""

    def test_refresh_builds_nothing(self, monkeypatch):
        counts = count_builds(monkeypatch)
        pool = InstancePool(TrainConfig(pool_size=64), np.random.default_rng(0))
        assert pool.refresh(1) and pool.refresh(6)
        assert len(pool) == 64 and pool.sample() in range(64)
        assert counts == {}

    def test_phase1_builds_only_sampled_slots(self, monkeypatch, tiny_cfg):
        cfg = TrainConfig(repr_epochs=10, pool_size=64, pool_refresh=5)
        pool = InstancePool(cfg, np.random.default_rng(0),
                            gen_cfg=GenConfig(m_lo=2, m_hi=2, n_hi=2))
        sampled = []  # (generation, slot) per epoch
        sample = pool.sample

        def recorded():
            sampled.append((pool.generation, sample()))
            return sampled[-1][1]

        monkeypatch.setattr(pool, "sample", recorded)
        counts = count_builds(monkeypatch)
        train_representation(cfg, tiny_cfg, build_model(tiny_cfg, 0), pool,
                             np.random.default_rng(0))
        assert len(sampled) == 10 and {g for g, _ in sampled} == {0, 1}
        distinct = len(set(sampled))
        assert counts == {"generate_random": distinct, "build_graph": distinct}

    def test_frozen_graphs_built_once(self, monkeypatch, tiny_cfg, two_by_two):
        insts = [two_by_two, random_instance(3, 2, seed=0), random_instance(2, 3, seed=1)]
        counts = count_builds(monkeypatch)
        cfg = TrainConfig(policy_epochs=2, batch_size=2)
        pool = InstancePool(cfg, np.random.default_rng(0), frozen=insts)
        store = build_model(tiny_cfg, 0)
        for _ in range(2):
            train_policy(cfg, tiny_cfg, store, pool, np.random.default_rng(0))
        assert counts == {"build_graph": len(insts)}

    @settings(max_examples=40, deadline=None)
    @given(GEN_CONFIGS, st.integers(0, 2**32), st.permutations(range(6)))
    def test_slots_are_seeded_and_order_free(self, gen_cfg, seed, order):
        """Slot i is generate_random(gen_cfg, default_rng(seed_i)); two pools
        of one seed hold the same slots in every generation, whichever order
        their slots are first touched in."""
        cfg = TrainConfig(pool_size=6, batch_size=2, pool_refresh=2)
        a, b = (InstancePool(cfg, np.random.default_rng(seed), gen_cfg=gen_cfg)
                for _ in range(2))
        for epoch in (1, 3, 5):
            assert a.refresh(epoch) and b.refresh(epoch)
            touched = {i: b.graph(i).instance for i in order}
            for i in range(len(a)):
                want = generate_random(gen_cfg, np.random.default_rng(a.seeds[i]))
                assert a.instance(i) == want == touched[i]
            assert every_instance(a) == every_instance(b)


class TestBuildModel:
    def test_all_sections_present(self, tiny_cfg):
        store = build_model(tiny_cfg, seed=3)
        for prefix in ("encoder.", "latent.", "decoder.", "policy.", "critic."):
            assert store.section(prefix), prefix

    def test_seed_determinism(self, tiny_cfg):
        a = build_model(tiny_cfg, seed=3)
        b = build_model(tiny_cfg, seed=3)
        assert section_bytes(a, "") == section_bytes(b, "")
        c = build_model(tiny_cfg, seed=4)
        assert section_bytes(a, "") != section_bytes(c, "")

    def test_holds_only_the_parameters(self):
        """The default model keeps its parameter values and no gradient
        buffers: what stays allocated is at most 1.05x their bytes."""
        build_model(ModelConfig(), 0)  # import-time and first-call allocations
        store, _, retained = traced(lambda: build_model(ModelConfig(), 0))
        assert retained <= 1.05 * param_bytes(store)


def with_gradients(store) -> set[str]:
    """The names of the parameters that hold a gradient buffer (read off
    the private buffer: reading `grad` allocates one)."""
    return {name for name in store.names() if store[name]._grad is not None}


def names_under(store, prefixes: tuple[str, ...]) -> set[str]:
    return {name for name in store.names() if name.startswith(prefixes)}


class TestGradientBuffers:
    """Each phase allocates gradients only for the sections it trains, and
    inference allocates none."""

    def test_greedy_solve_on_a_loaded_store_allocates_none(self, tiny_cfg, two_by_two,
                                                            tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(tiny_cfg, seed=0), path)
        store = load_checkpoint(path)
        solve_with_model(two_by_two, store, tiny_cfg)
        assert with_gradients(store) == set()

    def test_phase1_only_encoder_sections(self, tiny_cfg, small_pool):
        _, pool = small_pool
        store = build_model(tiny_cfg, seed=0)
        train_representation(TrainConfig(repr_epochs=1), tiny_cfg, store, pool,
                             np.random.default_rng(0))
        assert with_gradients(store) == names_under(store, ENCODER_SECTIONS)

    def test_phase2_only_policy_and_critic(self, tiny_cfg, two_by_two):
        cfg = TrainConfig(policy_epochs=1, batch_size=2, seed=0)
        store = build_model(tiny_cfg, seed=0)
        pool = InstancePool(cfg, np.random.default_rng(0), frozen=[two_by_two])
        train_policy(cfg, tiny_cfg, store, pool, np.random.default_rng(0))
        assert with_gradients(store) == names_under(store, ("policy.", "critic."))


class TestScaledQ:
    def test_scaled(self, two_by_two):
        assert scaled_q(two_by_two, 14) == pytest.approx(-2.0)


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
        pol_before = section_bytes(store, "policy.")
        cr_before = section_bytes(store, "critic.")
        enc_before = section_bytes(store, "encoder.")
        train_representation(cfg, tiny_cfg, store, pool, np.random.default_rng(0))
        assert section_bytes(store, "policy.") == pol_before
        assert section_bytes(store, "critic.") == cr_before
        assert section_bytes(store, "encoder.") != enc_before

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
        before = section_bytes(store, "encoder.")
        with pytest.raises(TrainingDiverged, match="gradient at epoch 1"):
            train_representation(cfg, tiny_cfg, store, pool, np.random.default_rng(0))
        assert section_bytes(store, "encoder.") == before


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
        dec, (st_,) = rollout([two_by_two], z[None], [h_real], store, tiny_cfg, "sample",
                              rng=rng)
        actions = dec.actions[0].tolist()
        assert sorted(actions) == [0, 1, 2, 3]
        assert replay(two_by_two, actions).makespan() == st_.makespan()
        assert st_.makespan() in (7, 11)

    def test_greedy_deterministic(self, two_by_two, tiny_cfg, rng):
        store = build_model(tiny_cfg, seed=0)
        pool = InstancePool(TrainConfig(), rng, frozen=[two_by_two])
        cache = EncoderCache(store, tiny_cfg)
        cache.rebuild(pool)
        h_real, mu, _ = cache.entries[0]
        a, _ = rollout([two_by_two], mu[None], [h_real], store, tiny_cfg, "greedy")
        b, _ = rollout([two_by_two], mu[None], [h_real], store, tiny_cfg, "greedy")
        assert a.actions[0].tolist() == b.actions[0].tolist()

    def test_taped_log_prob_matches_sum(self, two_by_two, tiny_cfg, rng):
        store = build_model(tiny_cfg, seed=0)
        pool = InstancePool(TrainConfig(), rng, frozen=[two_by_two])
        cache = EncoderCache(store, tiny_cfg)
        cache.rebuild(pool)
        h_real, z = cache.draw(0, rng)
        dec, _ = rollout([two_by_two], z[None], [h_real], store, tiny_cfg, "sample", rng=rng)
        with ad.Tape():
            total = log_prob_totals(dec, store, tiny_cfg)
        assert total.data[0] == pytest.approx(sum(dec.log_probs[0].tolist()))


class TestPhase2:
    def test_encoder_frozen(self, two_by_two, tiny_cfg):
        cfg = TrainConfig(policy_epochs=3, batch_size=2, seed=0)
        store = build_model(tiny_cfg, seed=0)
        pool = InstancePool(cfg, np.random.default_rng(0), frozen=[two_by_two])
        frozen_before = [section_bytes(store, s) for s in ENCODER_SECTIONS]
        pol_before = section_bytes(store, "policy.")
        cr_before = section_bytes(store, "critic.")
        report = train_policy(cfg, tiny_cfg, store, pool, np.random.default_rng(0))
        for section, before in zip(ENCODER_SECTIONS, frozen_before):
            assert section_bytes(store, section) == before, section
        assert section_bytes(store, "policy.") != pol_before
        assert section_bytes(store, "critic.") != cr_before
        assert report.columns == ("epoch", "policy_loss", "critic_loss", "mean_cmax")
        assert len(report.rows) == 3

    def test_deterministic_given_seeds(self, two_by_two, tiny_cfg):
        results = []
        for _ in range(2):
            cfg = TrainConfig(policy_epochs=3, batch_size=2, seed=0)
            store = build_model(tiny_cfg, seed=0)
            pool = InstancePool(cfg, np.random.default_rng(0), frozen=[two_by_two])
            train_policy(cfg, tiny_cfg, store, pool, np.random.default_rng(0))
            results.append(section_bytes(store, "policy."))
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

    def test_tape_does_not_grow_with_episode_length(self, two_by_two, tiny_cfg, monkeypatch):
        """Each epoch runs one backward pass, over a tape of the same length
        whether its episodes take 4 decisions or 16."""
        backward = ad.backward
        lengths = []

        def counted(loss):
            lengths.append(len(loss.tape.nodes))
            backward(loss)

        monkeypatch.setattr(ad, "backward", counted)
        for inst in (two_by_two, random_instance(4, 4, seed=0)):
            cfg = TrainConfig(policy_epochs=2, batch_size=2, seed=0)
            store = build_model(tiny_cfg, seed=0)
            pool = InstancePool(cfg, np.random.default_rng(0), frozen=[inst])
            train_policy(cfg, tiny_cfg, store, pool, np.random.default_rng(0))
        assert len(lengths) == 4
        assert len(set(lengths)) == 1

    def test_non_finite_gradient_raises(self, two_by_two, tiny_cfg, monkeypatch):
        cfg = TrainConfig(policy_epochs=2, batch_size=2, seed=0)
        store = build_model(tiny_cfg, seed=0)
        pool = InstancePool(cfg, np.random.default_rng(0), frozen=[two_by_two])
        poison_backward(monkeypatch, store["critic.fc1.w"])
        before = section_bytes(store, "policy.") + section_bytes(store, "critic.")
        with pytest.raises(TrainingDiverged, match="gradient at epoch 1"):
            train_policy(cfg, tiny_cfg, store, pool, np.random.default_rng(0))
        assert section_bytes(store, "policy.") + section_bytes(store, "critic.") == before

    @pytest.mark.parametrize("lr, epochs, message", [
        (1e308, 1, "non-finite policy/critic parameter after epoch 1"),
        (1e100, 3, "non-finite policy logits at epoch 2"),
    ], ids=["overflowing-step", "finite-but-huge-step"])
    def test_diverging_step_raises(self, two_by_two, tiny_cfg, lr, epochs, message):
        """A step that overflows a parameter stops training at once; one
        that leaves the parameters finite but huge stops it at the next
        rollout, whose logits are not finite, as TrainingDiverged rather
        than select_action's error."""
        cfg = TrainConfig(policy_epochs=epochs, batch_size=2, lr_policy=lr, seed=0)
        store = build_model(tiny_cfg, seed=0)
        pool = InstancePool(cfg, np.random.default_rng(0), frozen=[two_by_two])
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged, match=f"^{message}$"):
            train_policy(cfg, tiny_cfg, store, pool, np.random.default_rng(0))

    def test_diverged_frozen_encoder_raises(self, two_by_two, tiny_cfg):
        """Finite but huge phase-1 parameters whose latent sigma overflows
        stop phase 2 before its first rollout, and the error names the
        frozen encoder and the pool slot rather than the policy."""
        cfg = TrainConfig(policy_epochs=1, batch_size=2, seed=0)
        store = build_model(tiny_cfg, seed=0)
        for name in ("latent.sigma.w", "latent.sigma.b"):
            store[name].data[...] = 1e308
        pool = InstancePool(cfg, np.random.default_rng(0), frozen=[two_by_two])
        with np.errstate(all="ignore"), pytest.raises(
                TrainingDiverged, match="^non-finite frozen-encoder output for pool slot 0$"):
            train_policy(cfg, tiny_cfg, store, pool, np.random.default_rng(0))


class TestGreedyEval:
    def test_mean_over_pool(self, tiny_cfg, rng):
        gen = GenConfig(m_lo=2, m_hi=2, n_hi=3)
        insts = [generate_random(gen, rng) for _ in range(3)]
        pool = InstancePool(TrainConfig(), rng, frozen=insts)
        store = build_model(tiny_cfg, seed=0)
        mean = np.mean([solve_with_model(inst, store, tiny_cfg)[1]
                        for inst in every_instance(pool)])
        assert mean >= np.mean([i.load_lower_bound() for i in insts])
