"""Small shared helpers for building and applying MLP blocks on a ParamStore,
or, with xp=autodiff.plain, on a mapping of its names to their arrays."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .checkpoint import ParamStore


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape=None) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    if shape is None:
        shape = (fan_in, fan_out)
    return rng.uniform(-limit, limit, size=shape)


def add_linear(store: ParamStore, name: str, d_in: int, d_out: int, rng) -> None:
    store.add(f"{name}.w", glorot(rng, d_in, d_out))
    store.add(f"{name}.b", np.zeros(d_out))


def linear(store, name: str, x, xp=ad):
    return xp.add(xp.matmul(x, store[f"{name}.w"]), store[f"{name}.b"])


def add_mlp(store: ParamStore, name: str, d_in: int, d_hidden: int, d_out: int, rng) -> None:
    add_linear(store, f"{name}.fc1", d_in, d_hidden, rng)
    add_linear(store, f"{name}.fc2", d_hidden, d_out, rng)


def mlp(store, name: str, x, xp=ad):
    return linear(store, f"{name}.fc2", xp.tanh(linear(store, f"{name}.fc1", x, xp)), xp)
