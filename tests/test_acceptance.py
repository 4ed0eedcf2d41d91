"""End-to-end acceptance gate.

Each test prints one PASS line (visible under `pytest -v -s`); the criteria
cover oracle agreement, benchmark exactness, schedule invariants, gradient
and KL correctness, both training phases, the freeze contract, masking,
determinism, and the report metrics.  The two training criteria dominate
the runtime (the phase-2 run alone takes under 2 minutes) and are marked
`slow`.
"""

from __future__ import annotations

import csv
import json
import time

import numpy as np
import pytest

from autodiff_extra import batch_norm, div, exp, softmax, tmax
from env_reference import state_features
from helpers import grad_check, section_bytes
from oracle_reference import enumerate_all
from vg2s import autodiff as ad
from vg2s.bench import solve_with_model
from vg2s.checkpoint import ParamStore, load_checkpoint
from vg2s.env import reset
from vg2s.graph import build_graph, reconstruction_targets
from vg2s.instance import GenConfig, generate_random
from vg2s.oracle import branch_and_bound
from vg2s.policy import (build_critic_params, build_policy_params, decode_step,
                         log_prob, project_keys)
from vg2s.rules import Rule, dispatch, improvement_rate, optimality_gap
from vg2s.trainer import (InstancePool, TrainConfig, build_model, train_policy,
                          train_representation)
from vg2s.vge import (ModelConfig, build_decoder_params, build_encoder_params,
                      decode, encode, kl_loss, latent, recon_loss)


def report(num: int, detail: str):
    print(f"\ncriterion {num}: PASS ({detail})")


def small_cfg() -> ModelConfig:
    return ModelConfig(d_graph=4, d_latent=4, n_heads=2,
                       canvas_jobs=2, canvas_machines=2,
                       conv_channels=8, conv_channels_min=2,
                       glimpse_layers=1, glimpse_heads=2,
                       d_glimpse=3, d_logit=3, critic_hidden=4)


def test_criterion_01_oracle_equivalence(two_by_two):
    start = time.time()
    rng = np.random.default_rng(11)
    cfg = small_cfg()
    store = build_model(cfg, seed=11)
    gen = GenConfig(m_lo=1, m_hi=3, n_hi=3, p_lo=1, p_hi=9)
    for _ in range(200):
        inst = generate_random(gen, rng)
        a = enumerate_all(inst)
        b = branch_and_bound(inst)
        assert a.proven and b.proven
        assert a.c_star == b.c_star
        for rule in Rule:
            assert dispatch(inst, rule)[1] >= a.c_star
        assert solve_with_model(inst, store, cfg)[1] >= a.c_star
    elapsed = time.time() - start
    assert elapsed < 60
    report(1, f"200 instances agree, PDRs and rollouts >= C*, {elapsed:.1f}s")


def test_criterion_02_ft06_exactness(ft06):
    start = time.time()
    res = branch_and_bound(ft06)
    elapsed = time.time() - start
    assert res.proven and res.c_star == 55
    assert elapsed < 30
    fifo_gap = optimality_gap(dispatch(ft06, Rule.FIFO)[1], 55)
    mwkr_gap = optimality_gap(dispatch(ft06, Rule.MWKR)[1], 55)
    assert 13.0 <= fifo_gap <= 23.0
    assert 6.0 <= mwkr_gap <= 16.0
    report(2, f"C*=55 proven in {elapsed:.2f}s, FIFO gap {fifo_gap:.2f}%, "
              f"MWKR gap {mwkr_gap:.2f}%")


def test_criterion_03_semi_active_suite():
    rng = np.random.default_rng(3)
    gen = GenConfig()  # m in [5,9], n in [m,9]: sizes up to 9x9
    for _ in range(1000):
        inst = generate_random(gen, rng)
        st = reset(inst)
        steps = 0
        while not st.done:
            machine_before = st.machine_ready.copy()
            job_before = st.job_ready.copy()
            u = int(rng.choice(st.available()))
            j, k = divmod(u, inst.m)
            i = inst.machines[j, k]
            st.step(u)
            assert st.start[u] == max(machine_before[i], job_before[j])
            steps += 1
        assert steps == inst.num_ops
        assert st.makespan() >= inst.load_lower_bound()
    report(3, "1000 rollouts: semi-active starts, C_max >= load bound, "
              "full trajectories")


def test_criterion_04_gradient_verification(two_by_two):
    start = time.time()
    rng = np.random.default_rng(4)
    worst = 0.0

    # (a) every primitive
    def run(f, params):
        nonlocal worst
        passed, rel = grad_check(f, params, tol=1e-4)
        assert passed, rel
        worst = max(worst, rel)

    a = ad.Parameter(rng.uniform(-2, 2, (3, 4)))
    b = ad.Parameter(rng.uniform(0.5, 2, (4, 2)))
    v = ad.Parameter(rng.uniform(0.5, 2, 4))
    run(lambda: ad.tsum(ad.mul(ad.matmul(a, b), 2.0)), [a, b])
    run(lambda: ad.tsum(ad.square(ad.sub(a, 1.0))), [a])
    run(lambda: ad.tsum(div(1.0, b)), [b])
    run(lambda: ad.add(ad.tsum(ad.log(exp(v))), ad.tmean(v)), [v])
    run(lambda: ad.tsum(ad.square(tmax(a, axis=1))), [a])
    run(lambda: ad.tsum(ad.square(ad.transpose(ad.reshape(a, (4, 3))))), [a])
    run(lambda: ad.tsum(ad.square(ad.concat([a, a], axis=0))), [a])
    run(lambda: ad.tsum(ad.square(ad.split(a, [1, 2], axis=0)[1])), [a])
    run(lambda: ad.tsum(ad.square(ad.take(a, np.array([0, 2, 2]), axis=0))), [a])
    kink_free = ad.Parameter(rng.uniform(0.1, 2, 6) * rng.choice([-1.0, 1.0], 6))
    run(lambda: ad.tsum(ad.leaky_relu(kink_free)), [kink_free])
    run(lambda: ad.tsum(ad.elu(kink_free)), [kink_free])
    run(lambda: ad.tsum(ad.square(ad.tanh(a))), [a])
    run(lambda: ad.tsum(ad.square(ad.sigmoid(a))), [a])
    run(lambda: ad.tsum(ad.square(ad.softplus(a))), [a])
    w = rng.uniform(-1, 1, (3, 4))
    run(lambda: ad.tsum(ad.mul(softmax(a, axis=1), w)), [a])
    mask = np.array([[1, 0, 1, 1], [1, 1, 0, 1], [0, 1, 1, 1]], bool)
    run(lambda: ad.tsum(ad.mul(ad.masked_softmax(a, mask, axis=1), w)), [a])
    run(lambda: ad.tsum(ad.logsumexp(a, axis=1)), [a])
    clamp_p = ad.Parameter(np.array([-3.0, -0.4, 0.4, 3.0]))
    run(lambda: ad.tsum(ad.square(ad.clamp(clamp_p, -1.0, 1.0))), [clamp_p])
    x = ad.Parameter(rng.uniform(-2, 2, (5, 3)))
    gamma = ad.Parameter(rng.uniform(0.5, 1.5, 3))
    beta = ad.Parameter(rng.uniform(-1, 1, 3))
    run(lambda: ad.tsum(ad.square(batch_norm(x, gamma, beta))), [x, gamma, beta])
    cx = ad.Parameter(rng.uniform(-1, 1, (2, 6)))
    cw = ad.Parameter(rng.uniform(-1, 1, (3, 2, 3)))
    cb = ad.Parameter(rng.uniform(-1, 1, 3))
    run(lambda: ad.tsum(ad.square(ad.conv1d(cx, cw, cb, padding=1))), [cx, cw, cb])
    tw = ad.Parameter(rng.uniform(-1, 1, (2, 3, 4)))
    run(lambda: ad.tsum(ad.square(ad.conv_transpose1d(cx, tw, cb))), [cx, tw, cb])
    run(lambda: ad.tsum(ad.square(ad.adaptive_avg_pool1d(cx, 3))), [cx])
    run(lambda: ad.tsum(ad.square(ad.interp_linear(cx, 9))), [cx])

    # (b) encoder + KL on the 2x2 instance
    cfg = small_cfg()
    store = ParamStore()
    build_encoder_params(store, cfg, rng)
    build_decoder_params(store, cfg, rng)
    build_policy_params(store, cfg, rng)
    build_critic_params(store, cfg, rng)
    graph = build_graph(two_by_two)

    def enc_kl():
        h = encode(graph, store, cfg)
        s = latent(h, store, cfg)
        return kl_loss(s.mu, s.sigma)

    run(enc_kl, store.section("encoder.") + store.section("latent."))

    # (c) decoder + reconstruction loss
    node_t, edge_t = reconstruction_targets(graph, cfg.canvas)
    z_fixed = rng.normal(size=cfg.d_latent)

    def dec_recon():
        p_node, p_edge = decode(ad.as_tensor(z_fixed), store, cfg)
        l_node, l_edge = recon_loss(p_node, p_edge, node_t, edge_t)
        return ad.add(l_node, l_edge)

    run(dec_recon, store.section("decoder."))

    # (d) one policy-decoder step log-probability
    h_data = encode(graph, store, cfg).data
    st = reset(two_by_two)
    feats = state_features(st)

    ops = np.array([[st.available()]])

    def pol_logprob():
        keys = project_keys(h_data[None, :4], store, cfg)
        out = decode_step(z_fixed[None], np.array([[-1]]), keys, feats[None, None],
                          np.ones((1, 1, 4), bool), ops, store, cfg)
        return ad.mul(ad.tsum(log_prob(out, np.array([[2]]))), -1.0)

    run(pol_logprob, store.section("policy."))

    elapsed = time.time() - start
    assert elapsed < 300
    report(4, f"primitives + encoder/KL + decoder/recon + policy step all "
              f"within 1e-4 (worst {worst:.2e}), {elapsed:.1f}s")


def test_criterion_05_kl_monte_carlo():
    rng = np.random.default_rng(13)
    n = 100_000
    worst_sigma_count = 0.0
    for _ in range(50):
        mu = float(rng.uniform(-2, 2))
        sigma = float(rng.uniform(0.2, 2.0))
        closed = kl_loss(ad.as_tensor(np.array([mu])),
                         ad.as_tensor(np.array([sigma]))).data.item()
        eps = rng.standard_normal(n)
        z = mu + sigma * eps
        # log q(z) - log p(z) with q = N(mu, sigma^2), p = N(0, 1)
        log_ratio = (-0.5 * eps ** 2 - np.log(sigma)) - (-0.5 * z ** 2)
        est = log_ratio.mean()
        se = log_ratio.std(ddof=1) / np.sqrt(n)
        dev = abs(closed - est) / se
        worst_sigma_count = max(worst_sigma_count, dev)
        assert dev < 3.0, (mu, sigma, closed, est, se)
    report(5, f"50 pairs x 1e5 samples, worst deviation "
              f"{worst_sigma_count:.2f} standard errors")


@pytest.mark.slow
def test_criterion_06_phase1_learning():
    start = time.time()
    cfg = ModelConfig(d_graph=16, d_latent=4, n_heads=2,
                      canvas_jobs=4, canvas_machines=1,
                      conv_channels=32, conv_channels_min=8,
                      glimpse_layers=1, glimpse_heads=2,
                      d_glimpse=8, d_logit=8, critic_hidden=16)
    pool_rng = np.random.default_rng(42)
    gen = GenConfig(m_lo=1, m_hi=1, n_hi=4)
    frozen = []
    while len(frozen) < 64:
        inst = generate_random(gen, pool_rng)
        if inst.n == 4:
            frozen.append(inst)
    train_cfg = TrainConfig(repr_epochs=2000, lr_repr=3e-3, seed=42)
    pool = InstancePool(train_cfg, pool_rng, frozen=frozen)
    store = build_model(cfg, seed=42)
    rep = train_representation(train_cfg, cfg, store, pool,
                               np.random.default_rng(42))
    totals = [row[-1] for row in rep.rows]
    tenth = len(totals) // 10
    first = float(np.median(totals[:tenth]))
    last = float(np.median(totals[-tenth:]))
    ratio = last / first
    elapsed = time.time() - start
    assert elapsed < 1200
    assert ratio <= 0.5, f"median ratio {ratio:.3f}"
    report(6, f"median loss {first:.2f} -> {last:.2f} "
              f"(ratio {ratio:.3f} <= 0.5), {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_07_phase2_learning():
    start = time.time()
    cfg = ModelConfig(d_graph=16, d_latent=8, n_heads=2,
                      canvas_jobs=6, canvas_machines=6,
                      conv_channels=32, conv_channels_min=8,
                      glimpse_layers=1, glimpse_heads=2,
                      d_glimpse=8, d_logit=8, critic_hidden=16)
    rng = np.random.default_rng(7)
    gen = GenConfig(m_lo=6, m_hi=6, n_hi=6)
    frozen = [generate_random(gen, rng) for _ in range(20)]
    worst_pdr = max(
        float(np.mean([dispatch(inst, rule)[1] for inst in frozen]))
        for rule in Rule
    )
    train_cfg = TrainConfig(policy_epochs=3000, batch_size=4,
                            lr_policy=1e-3, seed=7)
    pool = InstancePool(train_cfg, rng, frozen=frozen)
    store = build_model(cfg, seed=7)
    def greedy_mean_makespan():
        return float(np.mean([solve_with_model(inst, store, cfg)[1]
                              for inst in frozen]))
    before = greedy_mean_makespan()
    train_policy(train_cfg, cfg, store, pool, rng)
    after = greedy_mean_makespan()
    improvement = 100.0 * (before - after) / before
    elapsed = time.time() - start
    assert elapsed < 3600
    assert improvement >= 10.0, f"improvement {improvement:.1f}%"
    assert after < worst_pdr, f"{after:.1f} vs worst PDR {worst_pdr:.1f}"
    report(7, f"greedy mean {before:.1f} -> {after:.1f} "
              f"({improvement:.1f}% improvement, worst PDR {worst_pdr:.1f}), "
              f"{elapsed / 60:.1f} min")


def test_criterion_08_decoupling_contract(tmp_path, two_by_two):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {
        "d_graph": 4, "d_latent": 4, "n_heads": 2,
        "canvas_jobs": 2, "canvas_machines": 2,
        "conv_channels": 8, "conv_channels_min": 2,
        "glimpse_layers": 1, "glimpse_heads": 2,
        "d_glimpse": 3, "d_logit": 3, "critic_hidden": 4,
    }}))
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    (inst_dir / "toy.json").write_text(two_by_two.to_json())
    from vg2s.cli import main

    ckpt1 = tmp_path / "repr.ckpt"
    assert main(["train-repr", "--epochs", "5", "--seed", "0",
                 "--config", str(config), "--instances", str(inst_dir),
                 "--checkpoint", str(ckpt1)]) == 0
    ckpt2 = tmp_path / "policy.ckpt"
    assert main(["train-policy", "--encoder-ckpt", str(ckpt1),
                 "--epochs", "5", "--batch", "2", "--seed", "0",
                 "--config", str(config), "--instances", str(inst_dir),
                 "--checkpoint", str(ckpt2)]) == 0
    before = load_checkpoint(str(ckpt1))
    after = load_checkpoint(str(ckpt2))
    for section in ("encoder.", "latent.", "decoder."):
        assert section_bytes(after, section) == section_bytes(before, section)
    assert section_bytes(after, "policy.") != section_bytes(before, "policy.")

    baseline_ckpt = tmp_path / "baseline.ckpt"
    baseline_log = tmp_path / "baseline.csv"
    assert main(["train-policy", "--skip-phase1", "--epochs", "5",
                 "--batch", "2", "--seed", "0", "--config", str(config),
                 "--instances", str(inst_dir),
                 "--checkpoint", str(baseline_ckpt),
                 "--log", str(baseline_log)]) == 0
    logged = list(csv.DictReader(baseline_log.open()))
    assert len(logged) == 5
    assert set(logged[0]) == {"epoch", "policy_loss", "critic_loss", "mean_cmax"}
    report(8, "encoder/latent/decoder byte-identical through phase 2; "
              "skip-phase1 baseline ran and logged")


def test_criterion_09_masking_probability():
    rng = np.random.default_rng(9)
    cfg = small_cfg()
    store = build_model(cfg, seed=9)
    gen = GenConfig(m_lo=2, m_hi=3, n_hi=4)
    steps = 0
    while steps < 10_000:
        inst = generate_random(gen, rng)
        graph = build_graph(inst)
        h = encode(graph, store, cfg)
        h_real = h.data[None, : inst.num_ops]
        keys = project_keys(h_real, store, cfg)
        z = latent(h, store, cfg).z
        st = reset(inst)
        prev = None
        while not st.done:
            avail = st.available()
            out = decode_step(z.data[None], np.array([[-1 if prev is None else prev]]), keys,
                              state_features(st)[None, None], ~st.scheduled[None, None],
                              np.array([[avail]]), store, cfg)
            full = out.data[0, 0]
            finite = np.isfinite(full)
            probs = np.where(finite, np.exp(full - full[finite].max()), 0.0)
            probs = probs / probs.sum()
            off_mask = np.ones(inst.num_ops, bool)
            off_mask[avail] = False
            assert np.all(probs[off_mask] == 0.0)
            assert abs(probs.sum() - 1.0) < 1e-9
            assert np.all(np.abs(full[avail]) <= cfg.logit_clip)
            action = int(rng.choice(avail))
            st.step(action)
            prev = action
            steps += 1
    report(9, f"{steps} sampled steps: zero off-support mass, probabilities "
              f"normalized, |logits| <= {cfg.logit_clip}")


def test_criterion_10_determinism(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {
        "d_graph": 4, "d_latent": 4, "n_heads": 2,
        "canvas_jobs": 9, "canvas_machines": 9,
        "conv_channels": 8, "conv_channels_min": 2,
        "glimpse_layers": 1, "glimpse_heads": 2,
        "d_glimpse": 3, "d_logit": 3, "critic_hidden": 4,
    }}))

    def pipeline(tag: str) -> dict[str, bytes]:
        root = tmp_path / tag
        root.mkdir()
        inst_dir = root / "instances"
        env = {"PATH": "/usr/bin:/bin"}
        cmds = [
            ["gen", "--count", "4", "--seed", "0", "--out", str(inst_dir)],
            ["train-repr", "--epochs", "4", "--seed", "0",
             "--config", str(config), "--instances", str(inst_dir),
             "--checkpoint", str(root / "repr.ckpt"),
             "--log", str(root / "repr.csv")],
            ["train-policy", "--encoder-ckpt", str(root / "repr.ckpt"),
             "--epochs", "3", "--batch", "2", "--seed", "0",
             "--config", str(config), "--instances", str(inst_dir),
             "--checkpoint", str(root / "policy.ckpt"),
             "--log", str(root / "policy.csv")],
            ["eval", "--dir", str(inst_dir), "--format", "json",
             "--methods", "fifo", "spt", "vg2s",
             "--model", str(root / "policy.ckpt"), "--config", str(config),
             "--out", str(root / "report.csv")],
        ]
        from vg2s.cli import main
        for cmd in cmds:
            assert main(cmd) == 0, cmd
        return {
            p.name: p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()
        }

    a = pipeline("run_a")
    b = pipeline("run_b")
    assert a.keys() == b.keys()
    for name in a:
        assert a[name] == b[name], name
    report(10, f"two gen->train-repr->train-policy->eval runs byte-identical "
               f"across {len(a)} artifacts")


def test_criterion_11_metric_formulas():
    assert round(optimality_gap(65, 55), 2) == 18.18
    assert improvement_rate(100, 97) == 3.0
    report(11, "gap(65,55) = 18.18 and improvement(100,97) = 3 exactly")
