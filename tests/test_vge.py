from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vge_reference
from helpers import grad_check, instances, random_instance
from vg2s import autodiff as ad
from vg2s.autodiff import Parameter, Tape, backward
from vg2s.checkpoint import ParamStore
from vg2s.graph import build_graph, reconstruction_targets
from vg2s.instance import Instance
from vg2s.trainer import build_model
from vg2s.vge import (RETIRED_PARAMS, SIGMA_FLOOR, ModelConfig, _edge_head,
                      build_decoder_params, build_encoder_params, decode, encode,
                      kl_loss, latent, recon_loss, representation_loss)


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


def _edge_head_reference(seq, w, b, out_len):
    """The edge head as written in the paper's order: resize every input
    channel, then convolve."""
    return ad.conv1d(ad.interp_linear(seq, out_len), w, b, padding=1)


def _head_value_and_grads(head, values, weights, out_len):
    params = {name: Parameter(v.copy()) for name, v in values.items()}
    with Tape():
        y = head(params["seq"], params["w"], params["b"], out_len)
        loss = ad.tsum(ad.mul(y, weights))
    backward(loss)
    return y.data, {name: p.grad for name, p in params.items()}


@settings(max_examples=80, deadline=None)
@given(c_in=st.integers(1, 6), c_out=st.integers(1, 4), k=st.integers(1, 3),
       length=st.integers(1, 24), out_len=st.integers(1, 48), seed=st.integers(0, 10_000))
@example(c_in=1, c_out=1, k=1, length=13, out_len=41, seed=1255)  # w's gradient cancels to ~1e-3
def test_edge_head_matches_resize_then_convolve(c_in, c_out, k, length, out_len, seed):
    """Mixing channels before the resize gives the resize-then-convolve
    values, and the same gradients for seq, w and b; out_len < length
    (downsampling) included.  The two orders sum the same products in a
    different order, so each gradient entry must agree to 1e-12 of the
    largest sum of those products' magnitudes: the reference's gradient on
    |seq|, |w|, |weights| (interp_linear's weights are nonnegative).  Its
    own largest entry is no scale when the sums cancel."""
    rng = np.random.default_rng(seed)
    shapes = {"seq": (c_in, length), "w": (c_out, c_in, k), "b": (c_out,)}
    values = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    weights = rng.normal(size=(c_out, out_len + 3 - k))
    y_fast, g_fast = _head_value_and_grads(_edge_head, values, weights, out_len)
    y_ref, g_ref = _head_value_and_grads(_edge_head_reference, values, weights, out_len)
    _, g_abs = _head_value_and_grads(_edge_head_reference,
                                     {name: np.abs(v) for name, v in values.items()},
                                     np.abs(weights), out_len)
    assert y_fast.shape == y_ref.shape
    np.testing.assert_allclose(y_fast, y_ref, rtol=0, atol=1e-12 * max(1.0, np.abs(y_ref).max()))
    for name in shapes:
        scale = max(g_abs[name].max(), 1e-300)
        assert np.abs(g_fast[name] - g_ref[name]).max() <= 1e-12 * scale, name


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

    def test_gradients_reach_all_sections(self, tiny_cfg, rng):
        """Every encoder, latent and decoder parameter gets a nonzero phase-1
        gradient on a 3x3 instance, at tiny_cfg (its canvas widened to fit)
        and at the default ModelConfig: no parameter is dead."""
        graph = build_graph(random_instance(3, 3, seed=0))
        wide_tiny = dataclasses.replace(tiny_cfg, canvas_jobs=3, canvas_machines=3)
        for cfg in (wide_tiny, ModelConfig()):
            store = ParamStore()
            build_encoder_params(store, cfg, rng)
            build_decoder_params(store, cfg, rng)
            with Tape():
                total, _ = representation_loss(graph, store, cfg, rng)
            backward(total)
            dead = [name for name in store.names() if not np.any(store[name].grad)]
            assert dead == [], cfg


@settings(max_examples=60, deadline=None)
@given(inst=instances(), n_heads=st.integers(1, 3), d=st.integers(1, 5),
       appnp_iters=st.integers(0, 3), seed=st.integers(0, 10_000))
@example(inst=Instance(n=1, m=1, ops=(((0, 5),),)), n_heads=2, d=3, appnp_iters=3, seed=0)
@example(inst=Instance(n=1, m=4, ops=(((2, 1), (0, 7), (3, 7), (1, 2)),)),
         n_heads=2, d=3, appnp_iters=3, seed=1)
@example(inst=Instance(n=3, m=1, ops=(((0, 4),), ((0, 4),), ((0, 9),))),
         n_heads=4, d=64, appnp_iters=3, seed=2)  # the default ModelConfig's sizes
def test_encode_matches_all_types_attention(inst, n_heads, d, appnp_iters, seed):
    """encode, which attends over machine-sharing only, gives the bytes of
    the reference that scores every edge type, and the same gradient bytes
    for every parameter it keeps; the reference's precedence and successor
    attention vectors get a gradient of exactly 0, and they are the only
    parameters the model no longer has (16 at the default 4 heads): every
    other name of the whole model keeps its order and its initial bytes."""
    cfg = ModelConfig(d_graph=d, d_latent=d, n_heads=n_heads, appnp_iters=appnp_iters)
    store, ref_store = build_model(cfg, seed), vge_reference.build_model(cfg, seed)
    retired = [name for name in ref_store.names() if RETIRED_PARAMS.fullmatch(name)]
    assert len(retired) == 4 * n_heads
    assert store.names() == [name for name in ref_store.names() if name not in retired]
    for name in store.names():
        assert store[name].data.tobytes() == ref_store[name].data.tobytes(), name

    graph = build_graph(inst)
    weights = np.random.default_rng(seed + 1).normal(size=(graph.node_count, d))
    outputs = []
    for fn, params in ((encode, store), (vge_reference.encode, ref_store)):
        with Tape():
            h = fn(graph, params, cfg)
            loss = ad.tsum(ad.mul(h, weights))
        backward(loss)
        outputs.append(h.data)
    assert outputs[0].tobytes() == outputs[1].tobytes()
    for name in store.names():
        assert store[name].grad.tobytes() == ref_store[name].grad.tobytes(), name
    for name in retired:
        assert np.all(ref_store[name].grad == 0), name


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
