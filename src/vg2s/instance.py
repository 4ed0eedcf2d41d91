"""Job-shop instance data model, benchmark parsers, and random generation.

An instance is n jobs, each a fixed chain of m operations; operation k of
job j runs on a specific machine for an integer duration.  No recirculation:
each job visits every machine exactly once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


class ParseError(ValueError):
    """Malformed instance file; message carries the offending line number."""


@dataclass(frozen=True)
class Instance:
    """Immutable job-shop instance.

    ops[j] is job j's ordered operation list of (machine, duration) pairs;
    machines are 0-indexed, durations are integers in [1, D_MAX], where
    D_MAX = (2**63 - 1) // (n * m) is the largest duration for which
    n * m * D_MAX fits int64, so that every sum of durations does.  On
    construction it is laid out once as the read-only (n, m) int64 arrays
    machines[j, k] and durations[j, k], and the work totals are summed.
    """

    n: int
    m: int
    ops: tuple[tuple[tuple[int, int], ...], ...]
    machines: np.ndarray = field(init=False, repr=False, compare=False)
    durations: np.ndarray = field(init=False, repr=False, compare=False)
    job_totals: tuple[int, ...] = field(init=False, repr=False, compare=False)
    machine_totals: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("instance needs at least one job and one machine")
        d_max = int(np.iinfo(np.int64).max) // (self.n * self.m)
        machine_totals = [0] * self.m
        if len(self.ops) != self.n:
            raise ValueError(f"expected {self.n} jobs, got {len(self.ops)}")
        for j, job in enumerate(self.ops):
            if len(job) != self.m:
                raise ValueError(f"job {j}: expected {self.m} operations, got {len(job)}")
            machines = [mi for mi, _ in job]
            if sorted(machines) != list(range(self.m)):
                raise ValueError(f"job {j}: machine sequence is not a permutation of 0..{self.m - 1}")
            for mi, p in job:
                if not 1 <= p <= d_max:
                    raise ValueError(f"job {j}: duration {p} on machine {mi} is outside "
                                     f"[1, {d_max}]")
                machine_totals[mi] += p
        table = np.array(self.ops, dtype=np.int64)  # n x m x (machine, duration)
        machines, durations = table[..., 0].copy(), table[..., 1].copy()
        machines.flags.writeable = durations.flags.writeable = False
        object.__setattr__(self, "machines", machines)
        object.__setattr__(self, "durations", durations)
        object.__setattr__(self, "job_totals", tuple(durations.sum(axis=1).tolist()))
        object.__setattr__(self, "machine_totals", tuple(int(t) for t in machine_totals))

    @property
    def num_ops(self) -> int:
        return self.n * self.m

    def load_lower_bound(self) -> int:
        """max(max machine load, max job load) -- a valid makespan lower bound."""
        return max(max(self.machine_totals), max(self.job_totals))

    def to_json(self) -> str:
        return json.dumps(
            {"n": self.n, "m": self.m, "jobs": [[[mi, p] for mi, p in job] for job in self.ops]},
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "Instance":
        """Read to_json's form; every number must be a JSON integer, so a
        fraction or a boolean raises ValueError."""
        raw = json.loads(text)

        def integer(value, what: str) -> int:
            if type(value) is not int:  # bool subclasses int
                raise ValueError(f"{what} {json.dumps(value)} is not an integer")
            return value

        return cls(
            n=integer(raw["n"], "n"),
            m=integer(raw["m"], "m"),
            ops=tuple(tuple((integer(mi, f"job {j}: machine"), integer(p, f"job {j}: duration"))
                            for mi, p in job) for j, job in enumerate(raw["jobs"])),
        )


@dataclass(frozen=True)
class GenConfig:
    """Random-instance generation config: m ~ DU(m_lo, m_hi), n ~ DU(m, n_hi),
    durations ~ DU(p_lo, p_hi), machine order an independent uniform permutation."""

    m_lo: int = 5
    m_hi: int = 9
    n_hi: int = 9
    p_lo: int = 1
    p_hi: int = 99

    def __post_init__(self):
        if not (1 <= self.m_lo <= self.m_hi <= self.n_hi):
            raise ValueError("need 1 <= m_lo <= m_hi <= n_hi")
        if not (1 <= self.p_lo <= self.p_hi):
            raise ValueError("need 1 <= p_lo <= p_hi")


def _int_fields(line: str, lineno: int) -> list[int]:
    try:
        return [int(tok) for tok in line.split()]
    except ValueError as exc:
        raise ParseError(f"line {lineno}: non-integer token ({exc})") from None


def _nonblank_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            out.append((lineno, stripped))
    return out


def parse_orlib(text: str) -> Instance:
    """Parse the OR-Library format: header "n m", then one line per job of
    m (machine, duration) pairs with 0-indexed machines."""
    lines = _nonblank_lines(text)
    if not lines:
        raise ParseError("line 1: empty input")
    lineno, header = lines[0]
    fields = _int_fields(header, lineno)
    if len(fields) != 2:
        raise ParseError(f"line {lineno}: header must be 'n m', got {len(fields)} fields")
    n, m = fields
    if len(lines) - 1 < n:
        raise ParseError(f"line {lines[-1][0]}: expected {n} job lines, found {len(lines) - 1}")
    jobs = []
    for j in range(n):
        lineno, line = lines[1 + j]
        vals = _int_fields(line, lineno)
        if len(vals) != 2 * m:
            raise ParseError(f"line {lineno}: job {j} needs {2 * m} fields, got {len(vals)}")
        job = []
        seen = set()
        for k in range(m):
            mi, p = vals[2 * k], vals[2 * k + 1]
            if not (0 <= mi < m):
                raise ParseError(f"line {lineno}: machine index {mi} out of range [0,{m})")
            if mi in seen:
                raise ParseError(f"line {lineno}: duplicate machine {mi} in job {j}")
            if p < 1:
                raise ParseError(f"line {lineno}: nonpositive duration {p} in job {j}")
            seen.add(mi)
            job.append((mi, p))
        jobs.append(tuple(job))
    return Instance(n=n, m=m, ops=tuple(jobs))


def parse_taillard(text: str) -> Instance:
    """Parse the Taillard layout: "n m", an n x m duration matrix, then an
    n x m machine matrix with 1-indexed machines (converted to 0-indexed)."""
    lines = _nonblank_lines(text)
    if not lines:
        raise ParseError("line 1: empty input")
    lineno, header = lines[0]
    fields = _int_fields(header, lineno)
    if len(fields) != 2:
        raise ParseError(f"line {lineno}: header must be 'n m', got {len(fields)} fields")
    n, m = fields
    if len(lines) - 1 < 2 * n:
        raise ParseError(f"line {lines[-1][0]}: expected {2 * n} matrix rows, found {len(lines) - 1}")
    durations, machines = [], []
    for j in range(n):
        lineno, line = lines[1 + j]
        row = _int_fields(line, lineno)
        if len(row) != m:
            raise ParseError(f"line {lineno}: duration row {j} needs {m} fields, got {len(row)}")
        for p in row:
            if p < 1:
                raise ParseError(f"line {lineno}: nonpositive duration {p} in job {j}")
        durations.append(row)
    for j in range(n):
        lineno, line = lines[1 + n + j]
        row = _int_fields(line, lineno)
        if len(row) != m:
            raise ParseError(f"line {lineno}: machine row {j} needs {m} fields, got {len(row)}")
        conv = []
        seen = set()
        for mi in row:
            if not (1 <= mi <= m):
                raise ParseError(f"line {lineno}: machine index {mi} out of range [1,{m}] (1-indexed)")
            if mi - 1 in seen:
                raise ParseError(f"line {lineno}: duplicate machine {mi} in job {j}")
            seen.add(mi - 1)
            conv.append(mi - 1)
        machines.append(conv)
    jobs = tuple(
        tuple((machines[j][k], durations[j][k]) for k in range(m)) for j in range(n)
    )
    return Instance(n=n, m=m, ops=jobs)


def generate_random(cfg: GenConfig, rng: np.random.Generator) -> Instance:
    """Draw one instance: m ~ DU(m_lo, m_hi), n ~ DU(m, n_hi), durations
    DU(p_lo, p_hi), machine order a uniform permutation per job."""
    m = int(rng.integers(cfg.m_lo, cfg.m_hi + 1))
    n = int(rng.integers(m, cfg.n_hi + 1))
    jobs = []
    for _ in range(n):
        perm = rng.permutation(m)
        durs = rng.integers(cfg.p_lo, cfg.p_hi + 1, size=m)
        jobs.append(tuple((int(perm[k]), int(durs[k])) for k in range(m)))
    return Instance(n=n, m=m, ops=tuple(jobs))
