"""Minimal dense-tensor numeric core with reverse-mode differentiation.

Covers exactly the operation set the networks here need: dense linear
algebra, the usual activations, masked softmax, 1-D (transposed)
convolution, pooling and linear resize.  Everything is 64-bit; the goal is
verifiable gradients at desk scale, not throughput.

Usage: create `Parameter` leaves, open a `Tape`, build a scalar loss from
taped ops, then `backward(loss)`.  Gradients accumulate on parameter
`.grad` buffers until `zero_grad` is called.  Code that no backward pass
walks can run the same ops on plain arrays through `plain`.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

_ACTIVE_TAPE: list["Tape"] = []


class ShapeError(ValueError):
    pass


class Tape:
    """Ordered record of taped tensors; backward walks it once, in reverse."""

    def __init__(self):
        self.nodes: list[Tensor] = []

    def __enter__(self) -> "Tape":
        _ACTIVE_TAPE.append(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE_TAPE.pop()
        return False


class Tensor:
    __slots__ = ("data", "grad", "parents", "vjp", "tape", "is_param")

    def __init__(self, data, parents=(), vjp=None, is_param=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.parents: tuple[Tensor, ...] = parents
        self.vjp = vjp
        self.is_param = is_param
        self.tape: Tape | None = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, param={self.is_param})"


class Parameter(Tensor):
    def __init__(self, data):
        super().__init__(data, is_param=True)
        self.grad = np.zeros_like(self.data)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(out: Tensor) -> Tensor:
    tape = _ACTIVE_TAPE[-1] if _ACTIVE_TAPE else None
    if tape is not None and any(p.is_param or p.tape is tape for p in out.parents):
        out.tape = tape
        tape.nodes.append(out)
    else:  # no backward pass will walk it: free its inputs now
        out.parents = ()
        out.vjp = None
    return out


def backward(loss: Tensor) -> None:
    """Populate gradients of every parameter reachable from `loss`.

    Repeated calls, each on its own tape, accumulate into parameter .grad
    buffers; intermediate gradients are local to each call.  The walk
    consumes the graph: each node drops its parents and vjp once walked, so
    the saved inputs of every op are freed here, and a tape supports one
    backward pass.  Node values and the tape's node list stay.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    tape = loss.tape
    if tape is None:
        raise ValueError("loss is not on a tape (detached from all parameters)")
    if loss.vjp is None:
        raise ValueError("the loss's graph was already consumed by a backward pass")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}

    def accumulate(t: Tensor, g: np.ndarray):
        if t.is_param:
            t.grad += g
        elif t.tape is tape:
            key = id(t)
            if key in grads:
                grads[key] = grads[key] + g
            else:
                grads[key] = g

    for node in reversed(tape.nodes):
        g = grads.pop(id(node), None)
        if g is not None and node.vjp is not None:
            for parent, pg in zip(node.parents, node.vjp(g)):
                if pg is not None:
                    accumulate(parent, pg)
        node.parents = ()
        node.vjp = None


def zero_grad(params) -> None:
    for p in params:
        p.grad[...] = 0.0


def _needs_grad(t: Tensor) -> bool:
    """Whether backward can use a gradient for t: a parameter or taped."""
    return t.is_param or t.tape is not None


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------- arithmetic

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))
    return _record(out)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data - b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))
    return _record(out)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data, (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.shape),
                            _unbroadcast(g * a.data, b.shape)))
    return _record(out)


def square(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data ** 2, (a,), lambda g: (2.0 * a.data * g,))
    return _record(out)


def log(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.log(a.data), (a,), lambda g: (g / a.data,))
    return _record(out)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 1 or b.data.ndim < 2:
        raise ShapeError(f"matmul: unsupported shapes {a.shape} x {b.shape}")
    # An operand that is neither a parameter nor taped is a constant whose
    # gradient backward would drop, so its VJP output is None, not computed.
    if a.data.ndim == 1:
        y = a.data @ b.data
        out = Tensor(y, (a, b),
                     lambda g: (g @ b.data.T if _needs_grad(a) else None,
                                np.outer(a.data, g) if _needs_grad(b) else None))
        return _record(out)
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} x {b.shape}")
    y = a.data @ b.data

    def vjp(g):
        ga = gb = None
        if _needs_grad(a):
            ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        if _needs_grad(b):
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return _record(Tensor(y, (a, b), vjp))


# ---------------------------------------------------------------- reductions

def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    y = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _record(Tensor(y, (a,), vjp))


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    y = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else a.data.shape[axis]

    def vjp(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape) / count,)

    return _record(Tensor(y, (a,), vjp))


# ------------------------------------------------------------- restructuring

def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))
    return _record(out)


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    inv = None if axes is None else tuple(np.argsort(axes))
    out = Tensor(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))
    return _record(out)


def concat(parts, axis=0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    out = Tensor(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), vjp)
    return _record(out)


def split(a, sizes, axis=0) -> list[Tensor]:
    a = as_tensor(a)
    if sum(sizes) != a.data.shape[axis]:
        raise ShapeError(f"split: sizes {sizes} do not cover axis {axis} of {a.shape}")
    offsets = np.cumsum([0] + list(sizes))
    outs = []
    for idx in range(len(sizes)):
        lo, hi = offsets[idx], offsets[idx + 1]
        sl = [slice(None)] * a.data.ndim
        sl[axis] = slice(lo, hi)
        sl = tuple(sl)

        def vjp(g, sl=sl):
            full = np.zeros(a.shape)
            full[sl] = g
            return (full,)

        outs.append(_record(Tensor(a.data[sl], (a,), vjp)))
    return outs


def take(a, indices, axis=0) -> Tensor:
    """Gather rows/entries along an axis; backward scatter-adds."""
    a = as_tensor(a)
    indices = np.asarray(indices, dtype=np.int64)

    def vjp(g):
        full = np.zeros(a.shape)
        np.add.at(full, (slice(None),) * axis + (indices,), g)
        return (full,)

    return _record(Tensor(np.take(a.data, indices, axis=axis), (a,), vjp))


# -------------------------------------------------------------- activations

def leaky_relu(a, slope=0.2) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0
    out = Tensor(np.where(mask, a.data, slope * a.data), (a,),
                 lambda g: (np.where(mask, g, slope * g),))
    return _record(out)


def elu(a, alpha=1.0) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0
    neg = alpha * (np.exp(np.minimum(a.data, 0.0)) - 1.0)
    out = Tensor(np.where(mask, a.data, neg), (a,),
                 lambda g: (np.where(mask, g, g * (neg + alpha)),))
    return _record(out)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    y = np.tanh(a.data)
    out = Tensor(y, (a,), lambda g: (g * (1.0 - y ** 2),))
    return _record(out)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    y = 1.0 / (1.0 + np.exp(-np.clip(a.data, -500, 500)))
    out = Tensor(y, (a,), lambda g: (g * y * (1.0 - y),))
    return _record(out)


def softplus(a) -> Tensor:
    a = as_tensor(a)
    # log(1+e^x), computed stably
    y = np.maximum(a.data, 0.0) + np.log1p(np.exp(-np.abs(a.data)))
    s = 1.0 / (1.0 + np.exp(-np.clip(a.data, -500, 500)))
    out = Tensor(y, (a,), lambda g: (g * s,))
    return _record(out)


def _masked_softmax(x: np.ndarray, mask, axis: int = -1) -> np.ndarray:
    """The forward pass of masked_softmax on arrays."""
    mask = np.asarray(mask, dtype=bool)
    neg = np.where(mask, x, -np.inf)
    if neg.shape != x.shape:
        raise ShapeError(f"masked_softmax: a mask of shape {mask.shape} for shape {x.shape}")
    # `axis` counts the axes of x, so give the mask the ones it leaves out.
    if not mask.reshape((1,) * (x.ndim - mask.ndim) + mask.shape).any(axis=axis).all():
        raise ShapeError("masked_softmax: a slice has no unmasked positions")
    shifted = neg - neg.max(axis=axis, keepdims=True)
    e = np.where(mask, np.exp(shifted), 0.0)
    return e / e.sum(axis=axis, keepdims=True)


def masked_softmax(a, mask, axis=-1) -> Tensor:
    """Softmax over positions where the boolean `mask`, broadcast to a's
    shape, is True; masked positions get probability exactly 0.  Every
    slice along `axis` must keep at least one unmasked entry."""
    a = as_tensor(a)
    y = _masked_softmax(a.data, mask, axis)

    def vjp(g):
        return (np.where(mask, y * (g - (g * y).sum(axis=axis, keepdims=True)), 0.0),)

    return _record(Tensor(y, (a,), vjp))


def logsumexp(a, axis=-1) -> Tensor:
    a = as_tensor(a)
    hi = a.data.max(axis=axis, keepdims=True)
    y = np.log(np.exp(a.data - hi).sum(axis=axis)) + np.squeeze(hi, axis=axis)

    def vjp(g):
        soft = np.exp(a.data - np.expand_dims(y, axis))
        return (np.expand_dims(np.asarray(g), axis) * soft,)

    return _record(Tensor(y, (a,), vjp))


def clamp(a, lo, hi) -> Tensor:
    a = as_tensor(a)
    inside = (a.data >= lo) & (a.data <= hi)
    out = Tensor(np.clip(a.data, lo, hi), (a,),
                 lambda g: (np.where(inside, g, 0.0),))
    return _record(out)


# ------------------------------------------------------ conv and pooling

def conv1d(x, w, b=None, padding=0) -> Tensor:
    """x: (C_in, L), w: (C_out, C_in, K), optional b: (C_out,).
    Stride-1 cross-correlation with symmetric zero padding."""
    x, w = as_tensor(x), as_tensor(w)
    c_in, length = x.data.shape
    c_out, c_in_w, k = w.data.shape
    if c_in != c_in_w:
        raise ShapeError(f"conv1d: input channels {c_in} != weight channels {c_in_w}")
    xp = np.pad(x.data, ((0, 0), (padding, padding)))
    l_out = xp.shape[1] - k + 1
    # One channel-mixing product per tap over that tap's shifted window.
    y = sum(w.data[:, :, kk] @ xp[:, kk:kk + l_out] for kk in range(k))
    parents = [x, w]
    if b is not None:
        b = as_tensor(b)
        y = y + b.data[:, None]
        parents.append(b)

    def vjp(g):
        # As in matmul, a constant operand's gradient is None, not computed.
        dx = dw = None
        if _needs_grad(w):
            dw = np.stack([g @ xp[:, kk:kk + l_out].T for kk in range(k)], axis=-1)
        if _needs_grad(x):
            dxp = np.zeros_like(xp)
            for kk in range(k):
                dxp[:, kk:kk + l_out] += w.data[:, :, kk].T @ g
            dx = dxp[:, padding:padding + length] if padding else dxp
        grads = [dx, dw]
        if b is not None:
            grads.append(g.sum(axis=1))
        return tuple(grads)

    return _record(Tensor(y, tuple(parents), vjp))


def conv_transpose1d(x, w, b=None, stride=2, padding=1) -> Tensor:
    """x: (C_in, L), w: (C_in, C_out, K).  Output length (L-1)*stride
    - 2*padding + K; with K=4, stride=2, padding=1 the length doubles.
    One product computes every tap; each tap's in-range columns then add
    into every stride-th output sample through one strided slice."""
    x, w = as_tensor(x), as_tensor(w)
    c_in, length = x.data.shape
    c_in_w, c_out, k = w.data.shape
    if c_in != c_in_w:
        raise ShapeError(f"conv_transpose1d: input channels {c_in} != weight channels {c_in_w}")
    l_out = (length - 1) * stride - 2 * padding + k
    # Input sample l of tap kk lands on output l*stride - padding + kk; the
    # in-range ones are the run lo <= l < hi.
    spans = []  # (kk, input slice, output slice)
    for kk in range(k):
        lo = max(0, -((kk - padding) // stride))
        hi = min(length, -((kk - padding - l_out) // stride))
        if lo < hi:
            first = lo * stride - padding + kk
            last = first + (hi - lo - 1) * stride
            spans.append((kk, slice(lo, hi), slice(first, last + 1, stride)))
    w_flat = w.data.reshape(c_in, c_out * k)
    cols = (w_flat.T @ x.data).reshape(c_out, k, length)
    y = np.zeros((c_out, l_out))
    for kk, src, dst in spans:
        y[:, dst] += cols[:, kk, src]
    parents = [x, w]
    if b is not None:
        b = as_tensor(b)
        y = y + b.data[:, None]
        parents.append(b)

    def vjp(g):
        # Gather g back onto the columns; out-of-range columns stay zero.
        g_cols = np.zeros((c_out, k, length))
        for kk, src, dst in spans:
            g_cols[:, kk, src] = g[:, dst]
        g_cols = g_cols.reshape(c_out * k, length)
        grads = [w_flat @ g_cols, (x.data @ g_cols.T).reshape(w.data.shape)]
        if b is not None:
            grads.append(g.sum(axis=1))
        return tuple(grads)

    return _record(Tensor(y, tuple(parents), vjp))


def adaptive_avg_pool1d(x, out_len) -> Tensor:
    """x: (C, L) -> (C, out_len); bin i averages x[:, floor(i*L/N) :
    ceil((i+1)*L/N)] (contiguous bins, standard floor/ceil edges)."""
    x = as_tensor(x)
    c, length = x.data.shape
    starts = (np.arange(out_len) * length) // out_len
    ends = -(-(np.arange(1, out_len + 1) * length) // out_len)  # ceil
    # (L, out_len) averaging matrix: column i weighs bin i's samples equally.
    pos = np.arange(length)[:, None]
    pool = ((pos >= starts) & (pos < ends)) / (ends - starts)
    out = Tensor(x.data @ pool, (x,), lambda g: (g @ pool.T,))
    return _record(out)


def interp_linear(x, out_len) -> Tensor:
    """x: (C, L) -> (C, out_len); piecewise-linear resize with endpoint
    alignment (first/last samples map onto each other)."""
    x = as_tensor(x)
    c, length = x.data.shape
    if length == 1 or out_len == 1:
        pos = np.zeros(out_len)
    else:
        pos = np.arange(out_len) * (length - 1) / (out_len - 1)
    lo = np.floor(pos).astype(np.int64)
    lo = np.minimum(lo, length - 1)
    hi = np.minimum(lo + 1, length - 1)
    frac = pos - lo
    y = np.take(x.data, lo, axis=1) * (1.0 - frac) + np.take(x.data, hi, axis=1) * frac

    # lo and hi are sorted, so each source sample's share of the gradient is
    # one contiguous run of output samples: sum the runs with reduceat.
    lo_runs, hi_runs = (np.flatnonzero(np.diff(idx, prepend=-1)) for idx in (lo, hi))

    def vjp(g):
        dx = np.zeros_like(x.data)
        dx[:, lo[lo_runs]] += np.add.reduceat(g * (1.0 - frac), lo_runs, axis=1)
        dx[:, hi[hi_runs]] += np.add.reduceat(g * frac, hi_runs, axis=1)
        return (dx,)

    return _record(Tensor(y, (x,), vjp))


# ------------------------------------------------------------ plain arrays

# The ops an untaped rollout calls, under the same names, on plain arrays:
# code written once over a namespace `xp` (this module or `plain`) gets the
# bits of the taped ops' forward passes with no Tensor and no tape.  Array
# methods stand in for np.reshape, np.transpose and np.sum, which wrap
# them at about a microsecond more per call.
plain = SimpleNamespace(
    add=np.add, sub=np.subtract, mul=np.multiply, matmul=np.matmul, tanh=np.tanh,
    concat=np.concatenate, masked_softmax=_masked_softmax,
    reshape=lambda a, shape: a.reshape(shape),
    transpose=lambda a, axes: a.transpose(axes),
    tsum=lambda a, axis=None, keepdims=False: a.sum(axis=axis, keepdims=keepdims),
    split=lambda a, sizes, axis=0: np.split(a, np.cumsum(sizes)[:-1], axis=axis))
