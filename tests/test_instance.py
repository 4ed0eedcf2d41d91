from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vg2s.instance import (GenConfig, Instance, ParseError, generate_random,
                           parse_orlib, parse_taillard)


class TestInstanceInvariants:
    def test_minimal_instance(self):
        inst = Instance(n=1, m=1, ops=(((0, 5),),))
        assert inst.num_ops == 1
        assert inst.durations[0, 0] == 5
        assert inst.load_lower_bound() == 5

    def test_rejects_duplicate_machine(self):
        with pytest.raises(ValueError, match="permutation"):
            Instance(n=1, m=2, ops=(((0, 3), (0, 2)),))

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError, match="duration"):
            Instance(n=1, m=1, ops=(((0, 0),),))

    def test_rejects_wrong_job_count(self):
        with pytest.raises(ValueError):
            Instance(n=2, m=1, ops=(((0, 1),),))

    def test_totals(self, two_by_two):
        assert two_by_two.job_totals == (5, 6)
        assert two_by_two.machine_totals == (7, 4)
        assert two_by_two.load_lower_bound() == 7

    def test_json_round_trip(self, two_by_two):
        assert Instance.from_json(two_by_two.to_json()) == two_by_two

    @pytest.mark.parametrize("text, message", [
        ('{"n": 1, "m": 1, "jobs": [[[0, 1.5]]]}', "duration 1.5 is not an integer"),
        ('{"n": 1, "m": 1, "jobs": [[[0, 2.0]]]}', "duration 2.0 is not an integer"),
        ('{"n": 1, "m": 1, "jobs": [[[0, true]]]}', "duration true is not an integer"),
        ('{"n": 1, "m": 1, "jobs": [[[0.7, 3]]]}', "machine 0.7 is not an integer"),
        ('{"n": 1, "m": 1, "jobs": [[[false, 3]]]}', "machine false is not an integer"),
        ('{"n": 1.0, "m": 1, "jobs": [[[0, 3]]]}', "n 1.0 is not an integer"),
        ('{"n": 1, "m": true, "jobs": [[[0, 3]]]}', "m true is not an integer"),
    ], ids=["fraction", "float", "bool", "fractional-machine", "bool-machine", "float-n",
            "bool-m"])
    def test_json_accepts_integers_only(self, text, message):
        with pytest.raises(ValueError, match=message):
            Instance.from_json(text)

    @pytest.mark.parametrize("text, message", [
        ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
        ('{"n": 1, "m": 2}', "missing key 'jobs'"),
        ('{"m": 1, "jobs": [[[0, 3]]]}', "missing key 'n'"),
        ('{"n": 1, "jobs": [[[0, 3]]]}', "missing key 'm'"),
        ("[]", "list indices must be integers"),
        ("null", "not subscriptable"),
        ('{"n": 1, "m": 1, "jobs": 5}', "not iterable"),
        ('{"n": 1, "m": 1, "jobs": [5]}', "not iterable"),
        ('{"n": 1, "m": 1, "jobs": [[1]]}', "cannot unpack"),
    ], ids=["deep", "no-jobs", "no-n", "no-m", "list", "null", "int-jobs", "int-job", "int-op"])
    def test_json_malformed_raises_value_error(self, text, message):
        """Too deep a nesting, a missing key and a value of the wrong type
        raise ValueError, as every other malformed text does, with the
        message that names the fault."""
        with pytest.raises(ValueError, match=message) as info:
            Instance.from_json(text)
        assert type(info.value) is ValueError

    def test_duration_bound(self):
        """Durations lie in [1, D_MAX] with n * m * D_MAX within int64, so
        every sum of durations is exact; the machine totals too."""
        d_max = (2**63 - 1) // 4
        big = Instance(n=2, m=2, ops=(((0, d_max), (1, d_max - 1)), ((1, d_max), (0, 1))))
        assert big.machine_totals == (d_max + 1, 2 * d_max - 1)
        assert big.job_totals == (2 * d_max - 1, d_max + 1)
        with pytest.raises(ValueError, match=f"outside \\[1, {d_max}\\]"):
            Instance(n=2, m=2, ops=(((0, d_max + 1), (1, 1)), ((1, 1), (0, 1))))
        with pytest.raises(ValueError, match="outside"):
            parse_orlib("1 1\n0 99999999999999999999")


@st.composite
def instances(draw):
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    return Instance(n=n, m=m, ops=tuple(
        tuple(zip(draw(st.permutations(range(m))),
                  draw(st.lists(st.integers(1, 10_000), min_size=m, max_size=m))))
        for _ in range(n)))


@settings(max_examples=100, deadline=None)
@given(inst=instances())
def test_totals_match_direct_sums(inst):
    """The totals summed on construction equal a direct sum over the ops,
    as Python ints, and give the load bound."""
    jobs = [sum(p for _, p in job) for job in inst.ops]
    machines = [sum(p for job in inst.ops for mi, p in job if mi == i) for i in range(inst.m)]
    assert inst.job_totals == tuple(jobs)
    assert inst.machine_totals == tuple(machines)
    assert all(type(t) is int for t in inst.job_totals + inst.machine_totals)
    assert inst.load_lower_bound() == max(jobs + machines)


@settings(max_examples=100, deadline=None)
@given(inst=instances())
def test_arrays_match_ops_and_are_read_only(inst):
    """machines[j, k] and durations[j, k] are ops[j][k], as read-only
    (n, m) int64 arrays."""
    for arr, field in ((inst.machines, 0), (inst.durations, 1)):
        assert arr.shape == (inst.n, inst.m) and arr.dtype == np.int64
        assert arr.tolist() == [[op[field] for op in job] for job in inst.ops]
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1


class TestParseOrlib:
    def test_minimal(self):
        inst = parse_orlib("1 1\n0 5")
        assert (inst.n, inst.m) == (1, 1)
        assert inst.ops == (((0, 5),),)

    def test_ft06_header_and_first_job(self, ft06):
        assert (ft06.n, ft06.m) == (6, 6)
        assert ft06.ops[0] == ((2, 1), (0, 3), (1, 6), (3, 7), (5, 3), (4, 6))

    def test_duplicate_machine_names_line(self):
        with pytest.raises(ParseError, match="line 2.*duplicate machine 0"):
            parse_orlib("2 2\n0 3 0 2\n1 1 0 1")

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_orlib("2\n0 1")

    def test_truncated_job_line(self):
        with pytest.raises(ParseError, match="fields"):
            parse_orlib("1 2\n0 3")

    def test_nonpositive_duration(self):
        with pytest.raises(ParseError, match="duration"):
            parse_orlib("1 1\n0 0")

    def test_non_integer_token(self):
        with pytest.raises(ParseError, match="non-integer"):
            parse_orlib("1 1\n0 x")

    def test_round_trip_via_json(self, ft06):
        assert Instance.from_json(ft06.to_json()) == ft06


class TestParseTaillard:
    def test_layout(self):
        text = "2 2\n3 2\n2 4\n1 2\n2 1\n"
        inst = parse_taillard(text)
        assert inst.ops == (((0, 3), (1, 2)), ((1, 2), (0, 4)))

    def test_uniform_durations(self):
        text = "2 2\n1 1\n1 1\n1 2\n1 2\n"
        inst = parse_taillard(text)
        assert all(p == 1 for job in inst.ops for _, p in job)

    def test_zero_machine_index_rejected(self):
        text = "1 2\n3 2\n0 1\n"
        with pytest.raises(ParseError, match="1-indexed"):
            parse_taillard(text)

    def test_truncated_matrix(self):
        with pytest.raises(ParseError, match="matrix rows"):
            parse_taillard("2 2\n3 2\n")


class TestGenerateRandom:
    def test_deterministic_per_seed(self):
        cfg = GenConfig()
        a = generate_random(cfg, np.random.default_rng(123))
        b = generate_random(cfg, np.random.default_rng(123))
        assert a == b

    def test_size_bounds(self):
        cfg = GenConfig()
        rng = np.random.default_rng(9)
        for _ in range(200):
            inst = generate_random(cfg, rng)
            assert 5 <= inst.m <= 9
            assert inst.m <= inst.n <= 9
            assert all(1 <= p <= 99 for job in inst.ops for _, p in job)

    def test_machine_count_frequencies(self):
        # m ~ DU(5,9): each of the five values within 4 sigma of p = 1/5
        cfg = GenConfig()
        rng = np.random.default_rng(1)
        draws = 10_000
        counts = np.zeros(5)
        for _ in range(draws):
            counts[generate_random(cfg, rng).m - 5] += 1
        sigma = np.sqrt(draws * 0.2 * 0.8)
        assert np.all(np.abs(counts - draws * 0.2) < 4 * sigma)

    def test_bad_config(self):
        with pytest.raises(ValueError):
            GenConfig(m_lo=5, m_hi=4)
        with pytest.raises(ValueError):
            GenConfig(p_lo=0)
