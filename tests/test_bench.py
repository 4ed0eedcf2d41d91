from __future__ import annotations

import csv
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from env_reference import available, ready, step_count
from helpers import instance_batches
from test_rules import reference_select
from vg2s.bench import (_greedy, _similarity_records, eval_bench, export_latents, gantt_svg,
                        pdr_similarity, solve_with_model, write_csv)
from vg2s.env import ScheduleState, replay
from vg2s.instance import GenConfig, Instance, generate_random
from vg2s.rules import Rule
from vg2s.trainer import EncoderCache, InstancePool, TrainConfig, build_model
from vg2s.vge import ModelConfig


class TestEvalBench:
    def test_rule_rows_and_gaps(self, ft06):
        rows = eval_bench({"ft06": ft06}, ["fifo", "mwkr"], {"ft06": 55})
        per_inst = [r for r in rows if r["instance"] == "ft06"]
        assert {r["method"] for r in per_inst} == {"fifo", "mwkr"}
        by_method = {r["method"]: r for r in per_inst}
        assert by_method["fifo"]["cmax"] == 65
        assert by_method["fifo"]["gap"] == pytest.approx(18.1818, abs=1e-4)
        assert by_method["mwkr"]["cmax"] == 61

    def test_oracle_method(self, two_by_two):
        rows = eval_bench({"toy": two_by_two}, ["oracle"], {"toy": 7})
        row = next(r for r in rows if r["instance"] == "toy")
        assert row["cmax"] == 7 and row["gap"] == 0.0

    def test_missing_ub_blank_gap(self, two_by_two):
        rows = eval_bench({"toy": two_by_two}, ["spt"], {})
        assert rows[0]["gap"] == "" and rows[0]["ub"] == ""

    def test_group_aggregates(self, two_by_two):
        insts = {"toy_1": two_by_two, "toy_2": two_by_two}
        rows = eval_bench(insts, ["spt"], {"toy_1": 7, "toy_2": 7})
        group = [r for r in rows if r["instance"].startswith("group:")]
        assert len(group) == 1
        individual = [r["gap"] for r in rows if not r["instance"].startswith("group:")]
        assert group[0]["gap"] == pytest.approx(np.mean(individual), abs=1e-4)

    def test_model_method_requires_checkpoint(self, two_by_two):
        with pytest.raises(ValueError):
            eval_bench({"toy": two_by_two}, ["vg2s"], {})


class TestSolveWithModel:
    def test_valid_schedule(self, two_by_two, tiny_cfg):
        store = build_model(tiny_cfg, seed=0)
        st_, c = solve_with_model(two_by_two, store, tiny_cfg)
        assert st_.done and c == st_.makespan()
        assert c in (7, 11)

    def test_deterministic(self, two_by_two, tiny_cfg):
        store = build_model(tiny_cfg, seed=0)
        a = solve_with_model(two_by_two, store, tiny_cfg)[1]
        b = solve_with_model(two_by_two, store, tiny_cfg)[1]
        assert a == b


EIGHT_BY_EIGHT = GenConfig(m_lo=8, m_hi=8, n_hi=8)
# Greedy solves of an untrained ModelConfig() model built from seed 0, the
# benchmark's eval model: (generator, instance seed, makespan, first 16 hex
# digits of the sha256 of the int64 action sequence).  A decoder change that
# only rounds differently keeps every entry; one that flips a decision does not.
GREEDY_SENTINEL = [
    (EIGHT_BY_EIGHT, 0, 2592, "9947221343a4da36"),
    (EIGHT_BY_EIGHT, 1, 2078, "3a50ef1ee9a8b751"),
    (EIGHT_BY_EIGHT, 2, 2115, "8250e79b54fdc4f4"),
    (EIGHT_BY_EIGHT, 3, 2216, "cbb161141c2eec3f"),
    (EIGHT_BY_EIGHT, 4, 1901, "e58b40d582fc7c97"),
    (EIGHT_BY_EIGHT, 5, 1953, "673c41efcfac1261"),
    (EIGHT_BY_EIGHT, 6, 2042, "dbfd659456484a33"),
    (EIGHT_BY_EIGHT, 7, 2419, "a78b510acdee3082"),
    (GenConfig(), 0, 2215, "64bbf1e892d3fce8"),    # 9x9
    (GenConfig(), 1, 2152, "20fe1fa0429eac44"),    # 8x7
    (GenConfig(), 11, 857, "15ff9bc788acb27c"),    # 5x5
    (GenConfig(), 14, 2265, "e4df89ee4a1f7a33"),   # 9x5
]


def test_greedy_sentinel():
    cfg = ModelConfig()
    store = build_model(cfg, seed=0)
    got = []
    for gen, seed, _, _ in GREEDY_SENTINEL:
        dec, state = _greedy(generate_random(gen, np.random.default_rng(seed)), store, cfg)
        digest = hashlib.sha256(dec.actions[0].astype(np.int64).tobytes()).hexdigest()
        got.append((gen, seed, state.makespan(), digest[:16]))
    assert got == GREEDY_SENTINEL


class TestWriteCsv:
    def test_round_trip(self, tmp_path):
        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        path = tmp_path / "out.csv"
        write_csv(rows, path)
        with path.open() as fh:
            back = list(csv.DictReader(fh))
        assert back == [{"a": "1", "b": "x"}, {"a": "2", "b": "y"}]

    def test_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], path)
        assert path.read_text() == ""

    def test_empty_with_columns_keeps_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], path, ["a", "b"])
        with path.open() as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == ["a", "b"]
            assert list(reader) == []


class TestSimilarity:
    def test_rule_driven_trace(self):
        rows = pdr_similarity(2, 3, 2, seed=0, rule=Rule.SPT)
        assert {r["instance"] for r in rows} == {0, 1}
        per_inst = [r for r in rows if r["instance"] == 0]
        assert [r["step"] for r in per_inst] == list(range(1, 7))
        for r in rows:
            assert 1 <= r["pt_rank"] <= r["num_available"]

    def test_spt_often_rank_one(self):
        rows = pdr_similarity(5, 4, 2, seed=3, rule=Rule.SPT)
        # non-delay filtering can override pure rank-1 picks, but not usually
        rank_one = sum(r["pt_rank"] == 1 for r in rows) / len(rows)
        assert rank_one > 0.5

    def test_model_driven_trace(self, tiny_cfg):
        store = build_model(tiny_cfg, seed=0)
        rows = pdr_similarity(1, 2, 2, seed=0, store=store, model_cfg=tiny_cfg)
        assert len(rows) == 4

    def test_requires_model_or_rule(self):
        with pytest.raises(ValueError):
            pdr_similarity(1, 2, 2, seed=0)


@pytest.mark.parametrize("rule", list(Rule))
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.integers(1, 4), extra_jobs=st.integers(0, 3))
def test_rule_trace_matches_reference_select(rule, seed, m, extra_jobs):
    """A rule's similarity rows equal the rows recorded while stepping
    `reference_select` over the same generated instances."""
    count, n = 3, m + extra_jobs
    rows = pdr_similarity(count, n, m, seed, rule=rule)
    rng = np.random.default_rng(seed)
    expected = []
    for idx in range(count):
        inst = generate_random(GenConfig(m_lo=m, m_hi=m, n_hi=n), rng)
        st_ = ScheduleState(inst)
        while not st_.done:
            avail = available(st_)
            u = reference_select(rule, st_)
            p = inst.durations.flat[u]
            expected.append({
                "instance": idx,
                "step": step_count(st_),
                "completed_ops": u % inst.m,
                "pt_rank": 1 + sum(int(inst.durations.flat[a] < p) for a in avail),
                "num_available": len(avail),
            })
            st_.step(u)
    assert rows == expected


def stepped_records(insts: list[Instance], actions: list[list[int]]) -> list[dict]:
    """Similarity records of stepping each instance's decisions alone on a
    ScheduleState, reading the reference `available` before each step."""
    records = []
    for idx, (inst, acts) in enumerate(zip(insts, actions)):
        st_ = ScheduleState(inst)
        durations = inst.durations.ravel()
        for u in acts:
            avail = available(st_)
            records.append({
                "instance": idx,
                "step": step_count(st_),
                "completed_ops": int(ready(st_)[2][u // inst.m]),
                "pt_rank": 1 + sum(int(durations[a] < durations[u]) for a in avail),
                "num_available": len(avail),
            })
            st_.step(u)
    return records


ONE_BY_ONE = Instance(n=1, m=1, ops=(((0, 5),),))
THREE_BY_ONE = Instance(n=3, m=1, ops=(((0, 2),), ((0, 2),), ((0, 1),)))
ONE_BY_THREE = Instance(n=1, m=3, ops=(((1, 4), (0, 4), (2, 1)),))
ONE_BY_FOUR = Instance(n=1, m=4, ops=(((2, 1), (0, 7), (3, 7), (1, 2)),))
FOUR_BY_ONE = Instance(n=4, m=1, ops=(((0, 3),), ((0, 1),), ((0, 3),), ((0, 1),)))
ALL_FIVE = Instance(n=3, m=3, ops=tuple(
    tuple((i, 5) for i in order) for order in ((0, 1, 2), (2, 0, 1), (1, 2, 0))))
ONES_AND_TWOS = generate_random(GenConfig(m_lo=3, m_hi=3, n_hi=6, p_lo=1, p_hi=2),
                                np.random.default_rng(0))


@settings(max_examples=60, deadline=None)
@given(insts=instance_batches(), seed=st.integers(0, 10_000))
@example(insts=[ONE_BY_ONE], seed=0)
@example(insts=[THREE_BY_ONE, ONE_BY_ONE, ONE_BY_THREE], seed=1)
@example(insts=[ONE_BY_THREE, THREE_BY_ONE], seed=2)
@example(insts=[ALL_FIVE], seed=3)
@example(insts=[ONES_AND_TWOS, ALL_FIVE], seed=4)
@example(insts=[ONE_BY_FOUR, FOUR_BY_ONE], seed=5)
def test_similarity_records_match_stepping_alone(insts, seed):
    """Counting each instance's random complete decision list on the sorted
    durations of its available ops gives, instance by instance, the records
    of stepping it alone with the reference `available`, ties included."""
    rng = np.random.default_rng(seed)
    actions = []
    for inst in insts:
        st_, acts = ScheduleState(inst), []
        while not st_.done:
            acts.append(int(rng.choice(available(st_))))
            st_.step(acts[-1])
        actions.append(acts)
    assert _similarity_records(insts, actions) == stepped_records(insts, actions)
    assert _similarity_records([], []) == []


class TestExportLatents:
    def test_columns_and_values(self, two_by_two, tiny_cfg):
        store = build_model(tiny_cfg, seed=0)
        rows = export_latents({"toy": two_by_two}, store, tiny_cfg)
        assert len(rows) == 1
        row = rows[0]
        assert row["instance"] == "toy"
        assert all(f"mu_{i}" in row for i in range(tiny_cfg.d_latent))
        assert row["greedy_cmax"] in (7, 11)
        # mu coordinates serialize losslessly
        assert float(row["mu_0"]) == float(row["mu_0"])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), model_seed=st.integers(0, 100))
def test_export_latents_matches_cache_and_solve(tiny_cfg, seed, model_seed):
    """Latent export, the phase-2 encoder cache and the greedy solver agree
    bit for bit on each instance's latent mean and greedy makespan."""
    rng = np.random.default_rng(seed)
    gen = GenConfig(m_lo=2, m_hi=3, n_hi=4)
    instances = {f"inst{k}": generate_random(gen, rng) for k in range(3)}
    store = build_model(tiny_cfg, seed=model_seed)
    rows = export_latents(instances, store, tiny_cfg)
    frozen = [instances[name] for name in sorted(instances)]
    pool = InstancePool(TrainConfig(), rng, frozen=frozen)
    cache = EncoderCache(store, tiny_cfg)
    cache.rebuild(pool)
    assert [row["instance"] for row in rows] == sorted(instances)
    for row, inst, (_, mu, _) in zip(rows, frozen, cache.entries):
        assert [float(row[f"mu_{i}"]) for i in range(tiny_cfg.d_latent)] == mu.tolist()
        assert row["greedy_cmax"] == solve_with_model(inst, store, tiny_cfg)[1]


class TestGantt:
    def test_svg_contents(self, two_by_two, tmp_path):
        st_ = replay(two_by_two, [0, 2, 3, 1])
        path = tmp_path / "sched.svg"
        gantt_svg(st_, path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert "makespan 7" in text
        assert text.count("<rect") == 4
