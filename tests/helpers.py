"""Shared by the tests: finite-difference gradient verification, byte
snapshots of parameter sections, seeded random instances, batches of
hypothesis-drawn instances and malformed checkpoint files."""

from __future__ import annotations

import json
import struct

import numpy as np
from hypothesis import strategies as st

from vg2s.autodiff import Tape, backward, zero_grad
from vg2s.checkpoint import MAGIC, ParamStore
from vg2s.instance import Instance


def grad_check(f, params, h=1e-5, tol=1e-4):
    """Compare analytic gradients of scalar f(params) against central
    finite differences.  Returns (passed, max relative error)."""
    zero_grad(params)
    with Tape():
        loss = f()
    backward(loss)
    analytic = [p.grad.copy() for p in params]

    max_rel = 0.0
    for p, ag in zip(params, analytic):
        flat = p.data.reshape(-1)
        num = np.zeros_like(flat)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            with Tape():
                fp = f().data.item()
            flat[idx] = orig - h
            with Tape():
                fm = f().data.item()
            flat[idx] = orig
            num[idx] = (fp - fm) / (2.0 * h)
        num = num.reshape(p.data.shape)
        denom = max(np.abs(ag).max(), np.abs(num).max(), 1e-8)
        rel = np.abs(ag - num).max() / denom
        max_rel = max(max_rel, rel)
    return max_rel < tol, max_rel


def section_bytes(store: ParamStore, prefix: str) -> bytes:
    """Concatenated little-endian bytes of a section, for freeze checks."""
    return b"".join(np.ascontiguousarray(p.data, dtype="<f8").tobytes()
                    for p in store.section(prefix))


def random_instance(n: int, m: int, seed: int) -> Instance:
    """n jobs x m machines: uniform machine orders, durations in 1..99."""
    rng = np.random.default_rng(seed)
    return Instance(n=n, m=m, ops=tuple(
        tuple(zip(rng.permutation(m).tolist(), rng.integers(1, 100, m).tolist()))
        for _ in range(n)))


@st.composite
def instance_batches(draw):
    """1-5 instances of 1-7 jobs x 1-6 machines each (n < m included)."""
    insts = []
    for _ in range(draw(st.integers(1, 5))):
        n, m = draw(st.integers(1, 7)), draw(st.integers(1, 6))
        jobs = tuple(
            tuple(zip(draw(st.permutations(range(m))),
                      draw(st.lists(st.integers(1, 99), min_size=m, max_size=m))))
            for _ in range(n))
        insts.append(Instance(n=n, m=m, ops=jobs))
    return insts


# (manifest, blob) of checkpoint files whose every byte is present but whose
# manifest or values are wrong.
MALFORMED_CHECKPOINTS = {
    "entry-without-shape": ([{"name": "a", "byte_offset": 0}], bytes(8)),
    "manifest-not-a-list": ({"name": "a", "shape": [1], "byte_offset": 0}, bytes(8)),
    "string-offset": ([{"name": "a", "shape": [1], "byte_offset": "0"}], bytes(8)),
    "negative-size": ([{"name": "a", "shape": [-1], "byte_offset": 0}], bytes(16)),
    "nan-parameter": ([{"name": "a", "shape": [2], "byte_offset": 0}],
                      np.array([1.0, np.nan]).tobytes()),
}


def write_malformed_checkpoint(path, case: str) -> None:
    manifest, blob = MALFORMED_CHECKPOINTS[case]
    header = json.dumps(manifest).encode()
    path.write_bytes(MAGIC + struct.pack("<Q", len(header)) + header + blob)
