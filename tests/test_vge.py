from __future__ import annotations

import numpy as np
import pytest

from helpers import grad_check
from vg2s import autodiff as ad
from vg2s.autodiff import Tape, backward
from vg2s.checkpoint import ParamStore
from vg2s.graph import build_graph, reconstruction_targets
from vg2s.vge import (SIGMA_FLOOR, ModelConfig, build_decoder_params,
                      build_encoder_params, decode, encode, kl_loss, latent,
                      recon_loss, representation_loss)


@pytest.fixture()
def tiny_store(tiny_cfg, rng):
    store = ParamStore()
    build_encoder_params(store, tiny_cfg, rng)
    build_decoder_params(store, tiny_cfg, rng)
    return store


class TestModelConfig:
    def test_canvas(self, tiny_cfg):
        assert tiny_cfg.canvas == 4
        assert tiny_cfg.conv_layers == 2

    def test_channel_schedule_halves_with_floor(self):
        cfg = ModelConfig(conv_channels=16, conv_channels_min=8,
                          canvas_jobs=4, canvas_machines=4)
        assert cfg.conv_layers == 4
        assert cfg.channel_schedule() == [16, 8, 8, 8, 8]


class TestEncode:
    def test_output_shape(self, two_by_two, tiny_cfg, tiny_store):
        h = encode(build_graph(two_by_two), tiny_store, tiny_cfg)
        assert h.shape == (6, tiny_cfg.d_latent)

    def test_deterministic(self, two_by_two, tiny_cfg, tiny_store):
        g = build_graph(two_by_two)
        a = encode(g, tiny_store, tiny_cfg)
        b = encode(g, tiny_store, tiny_cfg)
        np.testing.assert_array_equal(a.data, b.data)

    def test_finite_on_ft06(self, ft06, tiny_cfg, tiny_store):
        h = encode(build_graph(ft06), tiny_store, tiny_cfg)
        assert h.shape == (38, tiny_cfg.d_latent)
        assert np.all(np.isfinite(h.data))

    def test_distinguishes_instances(self, two_by_two, tiny_cfg, tiny_store):
        from vg2s.instance import Instance
        other = Instance(n=2, m=2, ops=(((1, 7), (0, 2)), ((0, 1), (1, 9))))
        ha = encode(build_graph(two_by_two), tiny_store, tiny_cfg)
        hb = encode(build_graph(other), tiny_store, tiny_cfg)
        assert not np.allclose(ha.data, hb.data)


class TestLatent:
    def test_sigma_strictly_positive(self, two_by_two, tiny_cfg, tiny_store):
        h = encode(build_graph(two_by_two), tiny_store, tiny_cfg)
        s = latent(h, tiny_store, tiny_cfg)
        assert np.all(s.sigma.data >= SIGMA_FLOOR)

    def test_zero_eps_gives_mean(self, two_by_two, tiny_cfg, tiny_store):
        h = encode(build_graph(two_by_two), tiny_store, tiny_cfg)
        s = latent(h, tiny_store, tiny_cfg)  # eps defaults to zeros
        np.testing.assert_array_equal(s.z.data, s.mu.data)

    def test_reparameterization(self, two_by_two, tiny_cfg, tiny_store):
        h = encode(build_graph(two_by_two), tiny_store, tiny_cfg)
        eps = np.full(tiny_cfg.d_latent, 2.0)
        s = latent(h, tiny_store, tiny_cfg, eps=eps)
        np.testing.assert_allclose(s.z.data, s.mu.data + 2.0 * s.sigma.data)


class TestKL:
    def test_standard_normal_is_zero(self):
        mu = ad.as_tensor(np.zeros(4))
        sigma = ad.as_tensor(np.ones(4))
        assert kl_loss(mu, sigma).data == pytest.approx(0.0, abs=1e-15)

    def test_unit_mean_shift(self):
        # mu=1, sigma=1, one coordinate: (1 + 1 - 1 - 0)/2 = 0.5
        val = kl_loss(ad.as_tensor(np.array([1.0])), ad.as_tensor(np.array([1.0])))
        assert val.data == pytest.approx(0.5)

    def test_additive_over_coordinates(self):
        one = kl_loss(ad.as_tensor(np.array([1.0])), ad.as_tensor(np.array([1.0]))).data
        three = kl_loss(ad.as_tensor(np.ones(3)), ad.as_tensor(np.ones(3))).data
        assert three == pytest.approx(3 * one)

    def test_nonnegative(self, rng):
        for _ in range(50):
            mu = ad.as_tensor(rng.normal(size=4))
            sigma = ad.as_tensor(rng.uniform(0.1, 3.0, 4))
            assert kl_loss(mu, sigma).data >= -1e-12

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            kl_loss(ad.as_tensor(np.zeros(2)), ad.as_tensor(np.array([1.0, 0.0])))


class TestDecode:
    def test_shapes_and_range(self, tiny_cfg, tiny_store, rng):
        z = ad.as_tensor(rng.normal(size=tiny_cfg.d_latent))
        p_node, p_edge = decode(z, tiny_store, tiny_cfg)
        assert p_node.shape == (4, 6)
        assert p_edge.shape == (4, 4, 3)
        for p in (p_node, p_edge):
            assert np.all(p.data > 0.0) and np.all(p.data < 1.0)

    def test_depends_on_latent(self, tiny_cfg, tiny_store, rng):
        a, _ = decode(ad.as_tensor(rng.normal(size=tiny_cfg.d_latent)), tiny_store, tiny_cfg)
        b, _ = decode(ad.as_tensor(rng.normal(size=tiny_cfg.d_latent)), tiny_store, tiny_cfg)
        assert not np.allclose(a.data, b.data)


class TestReconLoss:
    def test_uniform_half_probabilities(self):
        # p = 0.5 everywhere: node loss = 6 ln 2 per row / k rows -> 6 ln 2;
        # edge loss = k*k*3 ln 2 / k^2 = 3 ln 2
        k = 4
        p_node = ad.as_tensor(np.full((k, 6), 0.5))
        p_edge = ad.as_tensor(np.full((k, k, 3), 0.5))
        l_node, l_edge = recon_loss(p_node, p_edge, np.zeros((k, 6)), np.zeros((k, k, 3)))
        assert l_node.data == pytest.approx(6 * np.log(2))
        assert l_edge.data == pytest.approx(3 * np.log(2))

    def test_perfect_prediction_near_zero(self):
        k = 2
        t_node = np.zeros((k, 6))
        t_edge = np.ones((k, k, 3))
        l_node, l_edge = recon_loss(ad.as_tensor(np.full((k, 6), 1e-9)),
                                    ad.as_tensor(np.full((k, k, 3), 1.0 - 1e-9)),
                                    t_node, t_edge)
        assert l_node.data < 1e-3 and l_edge.data < 1e-3

    def test_rejects_out_of_range_targets(self):
        k = 2
        p = ad.as_tensor(np.full((k, 6), 0.5))
        pe = ad.as_tensor(np.full((k, k, 3), 0.5))
        with pytest.raises(ValueError):
            recon_loss(p, pe, np.full((k, 6), 1.5), np.zeros((k, k, 3)))

    def test_loss_positive_for_real_targets(self, two_by_two, tiny_cfg, tiny_store, rng):
        graph = build_graph(two_by_two)
        node_t, edge_t = reconstruction_targets(graph, tiny_cfg.canvas)
        z = ad.as_tensor(rng.normal(size=tiny_cfg.d_latent))
        p_node, p_edge = decode(z, tiny_store, tiny_cfg)
        l_node, l_edge = recon_loss(p_node, p_edge, node_t, edge_t)
        assert l_node.data > 0 and l_edge.data > 0


class TestRepresentationLoss:
    def test_parts_sum(self, two_by_two, tiny_cfg, tiny_store, rng):
        total, parts = representation_loss(build_graph(two_by_two), tiny_store,
                                           tiny_cfg, rng)
        assert parts["total"] == pytest.approx(parts["kl"] + parts["node"] + parts["edge"])
        assert float(total.data) == parts["total"]

    def test_gradients_reach_all_sections(self, two_by_two, tiny_cfg, tiny_store, rng):
        params = tiny_store.section("")
        with Tape():
            total, _ = representation_loss(build_graph(two_by_two), tiny_store,
                                           tiny_cfg, rng)
        backward(total)
        for prefix in ("encoder.", "latent.", "decoder."):
            section = tiny_store.section(prefix)
            assert any(np.any(p.grad != 0) for p in section), prefix
        ad.zero_grad(params)


class TestGradients:
    def test_encoder_and_kl(self, two_by_two, tiny_cfg, tiny_store):
        graph = build_graph(two_by_two)
        params = tiny_store.section("encoder.") + tiny_store.section("latent.")

        def f():
            h = encode(graph, tiny_store, tiny_cfg)
            s = latent(h, tiny_store, tiny_cfg)
            return kl_loss(s.mu, s.sigma)

        passed, rel = grad_check(f, params)
        assert passed, f"encoder+KL gradient mismatch {rel}"

    def test_decoder_and_recon(self, two_by_two, tiny_cfg, tiny_store, rng):
        graph = build_graph(two_by_two)
        node_t, edge_t = reconstruction_targets(graph, tiny_cfg.canvas)
        z_fixed = rng.normal(size=tiny_cfg.d_latent)
        params = tiny_store.section("decoder.")

        def f():
            p_node, p_edge = decode(ad.as_tensor(z_fixed), tiny_store, tiny_cfg)
            l_node, l_edge = recon_loss(p_node, p_edge, node_t, edge_t)
            return ad.add(l_node, l_edge)

        passed, rel = grad_check(f, params)
        assert passed, f"decoder+recon gradient mismatch {rel}"
