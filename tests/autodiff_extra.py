"""Taped ops that only the tests use, built on the engine's own recording
and broadcasting: gradient-check subjects (`div`, `exp`, `tmax`,
`batch_norm`), the plain softmax of the scalar decode reference and the
per-bin loop that `adaptive_avg_pool1d`'s averaging matrix is checked
against.  No production network needs them, so they live outside
`vg2s.autodiff`."""

from __future__ import annotations

import numpy as np

from vg2s.autodiff import Tensor, _record, _unbroadcast, add, as_tensor, mul


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data / b.data, (a, b),
                 lambda g: (_unbroadcast(g / b.data, a.shape),
                            _unbroadcast(-g * a.data / (b.data ** 2), b.shape)))
    return _record(out)


def exp(a) -> Tensor:
    a = as_tensor(a)
    y = np.exp(a.data)
    out = Tensor(y, (a,), lambda g: (g * y,))
    return _record(out)


def tmax(a, axis, keepdims=False) -> Tensor:
    """Max-pool along an axis; gradient flows to the first argmax."""
    a = as_tensor(a)
    y = a.data.max(axis=axis, keepdims=True)
    mask = a.data == y
    first = mask & (np.cumsum(mask, axis=axis) == 1)
    out_data = y if keepdims else np.squeeze(y, axis=axis)

    def vjp(g):
        g = np.asarray(g)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.where(first, np.broadcast_to(g, a.shape), 0.0),)

    return _record(Tensor(out_data, (a,), vjp))


def softmax(a, axis=-1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        return (y * (g - (g * y).sum(axis=axis, keepdims=True)),)

    return _record(Tensor(y, (a,), vjp))


def batch_norm(a, gamma, beta, eps=1e-5) -> Tensor:
    """Normalize over axis 0 with learnable affine.  A single row degrades
    to identity-with-affine (no statistics to normalize by)."""
    a, gamma, beta = as_tensor(a), as_tensor(gamma), as_tensor(beta)
    if a.data.shape[0] <= 1:
        return add(mul(a, gamma), beta)
    mu = a.data.mean(axis=0, keepdims=True)
    var = a.data.var(axis=0, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (a.data - mu) * inv
    n = a.data.shape[0]

    def vjp(g):
        gg = g * gamma.data
        dx = inv / n * (n * gg - gg.sum(axis=0, keepdims=True)
                        - xhat * (gg * xhat).sum(axis=0, keepdims=True))
        return (dx,
                _unbroadcast(g * xhat, gamma.shape),
                _unbroadcast(g, beta.shape))

    out = Tensor(xhat * gamma.data + beta.data, (a, gamma, beta), vjp)
    return _record(out)


def adaptive_avg_pool1d_loop(x, out_len) -> Tensor:
    """adaptive_avg_pool1d one bin at a time, forward and backward."""
    x = as_tensor(x)
    c, length = x.data.shape
    starts = (np.arange(out_len) * length) // out_len
    ends = -(-(np.arange(1, out_len + 1) * length) // out_len)  # ceil
    y = np.empty((c, out_len))
    for i in range(out_len):
        y[:, i] = x.data[:, starts[i]:ends[i]].mean(axis=1)

    def vjp(g):
        dx = np.zeros_like(x.data)
        for i in range(out_len):
            dx[:, starts[i]:ends[i]] += g[:, i:i + 1] / (ends[i] - starts[i])
        return (dx,)

    return _record(Tensor(y, (x,), vjp))
