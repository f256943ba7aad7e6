"""Dense-tensor reverse-mode automatic differentiation.

Small numpy-backed engine: a ``Tensor`` wraps a dense array, and while a
``Tape`` is active every primitive records the node needed to replay the
chain rule backwards. With no active tape the primitives are plain numpy
calls, which is what evaluation-mode code paths use.

A tape names what it differentiates: ``Tape(params)`` records an op when
an operand is one of ``params`` or a recorded output, and ``backward``
returns one gradient per parameter. Tensors carry no gradient state; any
other tensor is a constant on that tape. Precision follows the input
arrays: float64 for gradient checking, float32 for training.

The tape holds tensor keys and, in each node's backward closure, only the
arrays that backward reads: an intermediate output no backward reads is
freed as soon as the caller drops its tensor, and ``backward`` frees each
intermediate gradient once its node has consumed it. Such arrays are a
1-byte mask for dropout, the output for sigmoid, tanh, ReLU and rrelu,
and an operand only where the other operand needs a gradient. A gather's
gradient stays row-sparse (``RowGrad``): ``backward`` adds its rows into
the table's accumulator in place, so no zero table is built per gather.

The kernels keep float32 in float32: a one-buffer sigmoid, rrelu as the
branch-free max(RRELU_SLOPE * x, x) with its one fixed slope, a
gate-major fused GRU cell (`gru`), an im2col `conv1d`, and the fused
linear softmax cross-entropy `pick_log_softmax`, which scores the whole
batch in one (B, |E|) buffer. Around them: `grad_check`, `adam_step`,
`named_tensors`, which names every Tensor of a dataclass record, and
`numeric_guard`, the one place where numpy's overflow or invalid operation
becomes a NumericError.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, field, fields, is_dataclass
from typing import NamedTuple

import numpy as np


class NumericError(Exception):
    """A non-finite value surfaced during forward or backward."""


@contextlib.contextmanager
def numeric_guard(prefix: str):
    """Raise numpy's overflow or invalid operation inside the block as a
    NumericError `<prefix>: <numpy's message>`."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericError(f"{prefix}: {exc}") from None


# Tensor keys: unique for the life of the process, unlike id(), which a new
# tensor can reuse once an intermediate dies during the forward pass.
_KEYS = itertools.count()


class Tensor:
    __slots__ = ("values", "key")

    def __init__(self, values, dtype=None):
        self.values = np.asarray(values, dtype=dtype)
        self.key = next(_KEYS)

    @property
    def shape(self):
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    def item(self) -> float:
        return float(self.values)

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, dtype={self.values.dtype})"


def named_tensors(record, prefix: str = "") -> dict[str, Tensor]:
    """Every Tensor of a dataclass record, named by its field path in field
    order: a nested record adds `field.`, a list item its index (`layer0.`),
    and fields holding anything else (sizes, rates, specs) are skipped."""
    out = {}
    for f in fields(record):
        value = getattr(record, f.name)
        for i, item in enumerate(value) if isinstance(value, list) else [("", value)]:
            name = f"{prefix}{f.name}{i}"
            if isinstance(item, Tensor):
                out[name] = item
            elif is_dataclass(item):
                out.update(named_tensors(item, name + "."))
    return out


@dataclass
class Node:
    """One recorded operation, by tensor keys: it holds no tensor and no
    array, so an output lives only as long as its caller (or a backward
    closure that reads it) keeps it."""

    op: str
    inputs: tuple        # operand keys
    output: int          # output key
    backward_fn: object  # out_grad -> tuple of input grads (None = no flow)


class Tape:
    """Recorded operations on the way from `params` to a loss, appended in
    construction (topological) order.

    `tracked` holds the keys a gradient can reach: the parameters' and
    those of recorded outputs. Once it has exited, nothing refers back to
    the tape, so a step's tape and every array its closures kept are freed
    when the last reference to the tape goes.

    The entered tapes form one process-wide stack: entering a tape makes
    it the active one until it exits, and the tape it covered is active
    again after that.
    """

    def __init__(self, params):
        self.params = list(params)
        self.nodes: list[Node] = []
        self.tracked = {p.key for p in self.params}

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, *exc):
        _TAPES.pop()
        return False


# the entered tapes, innermost last
_TAPES: list[Tape] = []


def active_tape() -> Tape | None:
    return _TAPES[-1] if _TAPES else None


def _needs_grad(*inputs: Tensor) -> tuple:
    """Per operand, whether a gradient can reach it on the active tape (all
    false with none). A primitive computes no backward product for a
    constant operand: a degree normaliser, an indicator mask, the frozen
    entity table or what is gathered from it."""
    tape = active_tape()
    if tape is None:
        return (False,) * len(inputs)
    return tuple(x.key in tape.tracked for x in inputs)


def _record(op, inputs, out_values, backward_fn) -> Tensor:
    out = Tensor(out_values)
    tape = active_tape()
    if tape is not None and any(x.key in tape.tracked for x in inputs):
        tape.nodes.append(Node(op, tuple(x.key for x in inputs), out.key, backward_fn))
        tape.tracked.add(out.key)
    return out


class RowGrad(NamedTuple):
    """A row-sparse gradient of a (rows, ...) operand of `shape`: `rows[i]`
    adds to row `index[i]`, indices repeating."""

    index: np.ndarray
    rows: np.ndarray
    shape: tuple


def backward(output: Tensor, tape: Tape) -> list:
    """Per parameter of ``tape``, in order, the gradient of the scalar
    ``output`` in the parameter's dtype and shape (zeros with no path to
    it), in arrays built by this call and kept by nothing else.

    Fan-out accumulates additively. Each intermediate gradient is dropped
    once its node has consumed it, so a chain holds about two gradients at
    a time, not one per node. The nodes stay on the tape until the tape
    itself is freed.

    A `RowGrad` is summed per distinct index, in np.add.at order, and added
    into its key's accumulator in place, which gives the bits of adding the
    dense zeros-plus-scatter table. The accumulator is a fresh array first
    (zeros, or a copy) unless backward allocated it itself: a gradient a
    backward returned may be shared with another key (`add` returns one g
    for both operands, `reshape` and `concat` views of it).
    """
    if output.values.size != 1:
        raise ValueError(f"backward expects a scalar output, got shape {output.values.shape}")
    grads: dict[int, np.ndarray] = {output.key: np.ones_like(output.values)}
    owned: set[int] = set()  # keys whose accumulator no other gradient shares
    for node in reversed(tape.nodes):
        g = grads.pop(node.output, None)
        if g is None:
            continue
        for key, gx in zip(node.inputs, node.backward_fn(g)):
            if gx is None:
                continue
            acc = grads.get(key)
            if isinstance(gx, RowGrad):
                if key not in owned:
                    acc = np.zeros(gx.shape, gx.rows.dtype) if acc is None else acc.copy()
                    grads[key] = acc
                    owned.add(key)
                unique, slot = np.unique(gx.index, return_inverse=True)
                compact = np.zeros((len(unique),) + gx.rows.shape[1:], gx.rows.dtype)
                acc[unique] += _scatter_rows(compact, slot, gx.rows)
            elif acc is None:
                grads[key] = gx
            else:
                grads[key] = acc + gx
                owned.add(key)
    return [np.zeros_like(p.values) if (g := grads.get(p.key)) is None
            else g.astype(p.values.dtype, copy=False).reshape(p.values.shape)
            for p in tape.params]


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# element-wise arithmetic

def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.values + b.values
    a_shape, b_shape = a.shape, b.shape
    return _record(
        "add", (a, b), out,
        lambda g: (_unbroadcast(g, a_shape), _unbroadcast(g, b_shape)),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.values * b.values
    a_shape, b_shape = a.shape, b.shape
    grad_a, grad_b = _needs_grad(a, b)
    # each operand's values are kept only for the other operand's gradient
    av = a.values if grad_b else None
    bv = b.values if grad_a else None
    return _record(
        "mul", (a, b), out,
        lambda g: (
            _unbroadcast(g * bv, a_shape) if grad_a else None,
            _unbroadcast(g * av, b_shape) if grad_b else None,
        ),
    )


def scale(a: Tensor, c: float) -> Tensor:
    out = a.values * c
    return _record("scale", (a,), out, lambda g: (g * c,))


def neg(a: Tensor) -> Tensor:
    return scale(a, -1.0)


def shift(a: Tensor, c: float) -> Tensor:
    """Add a python scalar."""
    out = a.values + c
    return _record("shift", (a,), out, lambda g: (g,))


# ---------------------------------------------------------------------------
# linear algebra and indexing

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise ValueError("matmul expects 2-D tensors")
    out = a.values @ b.values
    grad_a, grad_b = _needs_grad(a, b)
    av = a.values if grad_b else None
    bv = b.values if grad_a else None
    return _record(
        "matmul", (a, b), out,
        lambda g: (g @ bv.T if grad_a else None, av.T @ g if grad_b else None),
    )


def transpose(a: Tensor) -> Tensor:
    if a.values.ndim != 2:
        raise ValueError("transpose expects a 2-D tensor")
    return _record("transpose", (a,), a.values.T.copy(), lambda g: (g.T,))


def reshape(a: Tensor, shape) -> Tensor:
    out = a.values.reshape(shape)
    a_shape = a.shape
    return _record("reshape", (a,), out, lambda g: (g.reshape(a_shape),))


def gather_rows(table: Tensor, index) -> Tensor:
    """Embedding lookup: out[i] = table[index[i]]; its gradient is the
    row-sparse RowGrad(index, g, table shape)."""
    index = np.asarray(index, dtype=np.int64)
    out = table.values[index]
    shape = table.shape
    return _record("gather_rows", (table,), out, lambda g: (RowGrad(index, g, shape),))


def add_rows(base: Tensor, rows: Tensor, index) -> Tensor:
    """out = base with rows[i] added to row index[i]; the indices are
    distinct, so each row of base gets at most one addition."""
    index = np.asarray(index, dtype=np.int64)
    out = base.values.copy()
    out[index] += rows.values
    return _record("add_rows", (base, rows), out, lambda g: (g, g[index]))


def scatter_add_rows(values: Tensor, index, num_rows: int) -> Tensor:
    """out[j] = sum of values[i] over i with index[i] == j."""
    index = np.asarray(index, dtype=np.int64)
    out = np.zeros((num_rows,) + values.values.shape[1:], dtype=values.values.dtype)
    _scatter_rows(out, index, values.values)
    return _record("scatter_add_rows", (values,), out, lambda g: (g[index],))


def _scatter_rows(out: np.ndarray, index: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """np.add.at(out, index, rows) for a C-contiguous `out`, through the
    1-D fast path of np.add.at: each row's elements are added at their
    flat positions, in the same order as the row-wise form, so the sums
    have its bits. Returns out."""
    width = int(np.prod(out.shape[1:]))
    flat = (index[:, None] * width + np.arange(width)).ravel()
    np.add.at(out.reshape(-1), flat, rows.reshape(-1))
    return out


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = list(tensors)
    out = np.concatenate([t.values for t in tensors], axis=axis)
    sizes = [t.values.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def backward_fn(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _record("concat", tuple(tensors), out, backward_fn)


def slice_last(a: Tensor, start: int, stop: int) -> Tensor:
    out = a.values[..., start:stop].copy()
    shape, dtype = a.shape, a.dtype

    def backward_fn(g):
        ga = np.zeros(shape, dtype)
        ga[..., start:stop] = g
        return (ga,)

    return _record("slice_last", (a,), out, backward_fn)


def pick_last(a: Tensor, index) -> Tensor:
    """out[i] = a[i, index[i]] for a 2-D tensor."""
    index = np.asarray(index, dtype=np.int64)
    rows = np.arange(a.values.shape[0])
    out = a.values[rows, index]
    shape, dtype = a.shape, a.dtype

    def backward_fn(g):
        ga = np.zeros(shape, dtype)
        ga[rows, index] = g
        return (ga,)

    return _record("pick_last", (a,), out, backward_fn)


# ---------------------------------------------------------------------------
# nonlinearities

def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-x)) in x's dtype, computed in one buffer (``out`` may be
    x itself). exp(-x) overflows to inf for very negative x, which gives
    exactly 0; the result rounds to 1.0 from x = ln(2**53) (float64) or
    ln(2**24) (float32) on."""
    out = np.negative(x, out=np.empty_like(x) if out is None else out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid(a.values)
    return _record("sigmoid", (a,), out, lambda g: (g * out * (1.0 - out),))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.values)
    return _record("tanh", (a,), out, lambda g: (g * (1.0 - out * out),))


def relu(a: Tensor) -> Tensor:
    """max(x, 0); the backward mask is read from the output, which is > 0
    exactly where x is (NaN and -0 included)."""
    out = np.maximum(a.values, 0.0)
    return _record("relu", (a,), out, lambda g: (g * (out > 0),))


# Expected slope of the randomized-leaky rectifier's sampling interval
# [1/8, 1/3]; used as a fixed slope in both train and eval modes. It lies
# inside (0, 1) in float32 and float64 alike.
RRELU_SLOPE = (1.0 / 8.0 + 1.0 / 3.0) / 2.0


def rrelu(a: Tensor) -> Tensor:
    """max(RRELU_SLOPE * x, x), without a mask selection; the first operand
    wins on NaN, so NaNs come out as RRELU_SLOPE * x does. The backward mask
    is read from the output, which is > 0 exactly where x is: RRELU_SLOPE * x
    keeps the sign of x or rounds to -0."""
    x = a.values
    out = np.maximum(RRELU_SLOPE * x, x)
    return _record(
        "rrelu", (a,), out,
        lambda g: (g * np.maximum(out > 0, RRELU_SLOPE, dtype=out.dtype),),
    )


def pick_log_softmax(q: Tensor, table: Tensor, index) -> Tensor:
    """Fused linear softmax cross-entropy: out[b] = log_softmax(q @ table.T)[b,
    index[b]] for queries q (B, d) and a table (|E|, d), with one exp pass;
    the score gradient is g * (onehot - softmax).

    One (B, |E|) buffer holds the scores, then the softmax. Against a
    constant table it then holds the score gradient's direction, and the
    (B, d) product (softmax - onehot) @ table is formed before the call
    returns: backward keeps only that, so no |E|-wide array outlives the
    call. When the table takes a gradient, backward (which runs once) keeps
    the buffer and turns it into the score gradient. Either way each product
    uses the transposed copy of the table that `score_logits` multiplies by,
    so the bits are those of scoring first."""
    if q.shape[-1] != table.shape[-1]:
        raise ValueError(f"query dim {q.shape[-1]} vs entity table dim {table.shape[-1]}")
    index = np.asarray(index, dtype=np.int64)
    qv = q.values
    tt = table.values.T.copy()
    grad_q, grad_t = _needs_grad(q, table)
    rows = np.arange(len(qv))
    buf = qv @ tt
    buf -= buf.max(axis=-1, keepdims=True)
    picked = buf[rows, index]
    np.exp(buf, out=buf)
    total = buf.sum(axis=-1, keepdims=True)
    out = picked - np.log(total[:, 0])
    if grad_q or grad_t:
        buf /= total
    if not grad_t:
        jac = None
        if grad_q:
            buf[rows, index] += -1.0
            jac = buf @ tt.T
        return _record("pick_log_softmax", (q, table), out,
                       lambda g: (jac * (-g)[:, None], None))

    def backward_fn(g):
        np.multiply(buf, -g[:, None], out=buf)
        buf[rows, index] += g
        return (buf @ tt.T if grad_q else None, (qv.T @ buf).T)

    return _record("pick_log_softmax", (q, table), out, backward_fn)


# ---------------------------------------------------------------------------
# convolution, dropout, reductions

def conv1d(x: Tensor, kernels: Tensor) -> Tensor:
    """Same-padded 1-D convolution along the last (feature) axis.

    x: (batch, in_channels, length); kernels: (out_channels, in_channels, w)
    with odd w. Output: (batch, out_channels, length).
    """
    xv, kv = x.values, kernels.values
    if xv.ndim != 3 or kv.ndim != 3:
        raise ValueError("conv1d expects x (B, Cin, L) and kernels (Cout, Cin, w)")
    if xv.shape[1] != kv.shape[1]:
        raise ValueError(f"channel mismatch: input {xv.shape[1]}, kernels {kv.shape[1]}")
    w = kv.shape[2]
    if w % 2 != 1:
        raise ValueError("same padding needs an odd kernel width")
    batch, cin, length = xv.shape
    pad = w // 2
    xp = np.pad(xv, ((0, 0), (0, 0), (pad, pad)))
    # im2col: cols[b, i, k, l] = xp[b, i, l + k], one column per output position
    cols = np.empty((batch, cin, w, length), dtype=xv.dtype)
    for k in range(w):
        cols[:, :, k] = xp[:, :, k:k + length]
    cols = cols.reshape(batch, cin * w, length)
    kmat = kv.reshape(kv.shape[0], cin * w)
    out = np.matmul(kmat, cols)
    grad_x, grad_k = _needs_grad(x, kernels)

    def backward_fn(g):
        gk = np.tensordot(g, cols, axes=([0, 2], [0, 2])).reshape(kv.shape) if grad_k else None
        if not grad_x:
            return (None, gk)
        gcols = np.matmul(kmat.T, g).reshape(batch, cin, w, length)
        gp = np.zeros((batch, cin, length + 2 * pad), cols.dtype)
        for k in range(w):
            gp[:, :, k:k + length] += gcols[:, :, k]
        return (gp[:, :, pad:pad + length], gk)

    return _record("conv1d", (x, kernels), out, backward_fn)


def gru(x: Tensor, h: Tensor, wx: Tensor, wh: Tensor, b: Tensor) -> Tensor:
    """Fused gated recurrent cell, recorded as one node.

    Gate order along the last axis of wx (in, 3d), wh (d, 3d) and b (3d,):
    update z, reset r, candidate n.
        z = sigmoid(x Wx_z + h Wh_z + b_z),  r = sigmoid(x Wx_r + h Wh_r + b_r)
        n = tanh(x Wx_n + r * (h Wh_n) + b_n),  out = (1 - z) * n + z * h

    Gate-major: the weights are viewed as (3, in, d), z and r are computed
    together in one contiguous (2, B, d) buffer and n on its own, so no
    (B, 3d) pre-activation is sliced or kept for the backward pass.
    """
    d = wh.values.shape[0]
    xv, hv = x.values, h.values
    wx3 = wx.values.reshape(-1, 3, d).transpose(1, 0, 2)
    wh3 = wh.values.reshape(d, 3, d).transpose(1, 0, 2)
    b3 = b.values.reshape(3, 1, d)
    zr = np.matmul(xv, wx3[:2])
    zr += np.matmul(hv, wh3[:2])
    zr += b3[:2]
    z, r = _sigmoid(zr, out=zr)
    ha_n = hv @ wh3[2]
    n = xv @ wx3[2]
    tmp = np.multiply(r, ha_n)
    n += tmp
    n += b3[2]
    np.tanh(n, out=n)
    out = np.subtract(1.0, z)
    out *= n
    out += np.multiply(z, hv, out=tmp)

    def backward_fn(g):
        one_minus_z = 1.0 - z
        # gate gradients side by side in one (B, 3d) buffer, the layout of
        # wx's and wh's columns, so each weight gradient is one matmul
        ga = np.empty((g.shape[0], 3 * d), dtype=g.dtype)
        gz, gr, gn = ga[:, :d], ga[:, d:2 * d], ga[:, 2 * d:]
        np.multiply(g, one_minus_z, out=gn)
        tmp = n * n
        gn *= np.subtract(1.0, tmp, out=tmp)
        np.subtract(hv, n, out=gz)
        gz *= g
        gz *= z
        gz *= one_minus_z
        np.multiply(gn, ha_n, out=gr)
        gr *= r
        gr *= np.subtract(1.0, r, out=tmp)
        gx = ga @ wx.values.T
        gwx = xv.T @ ga
        gb = ga.sum(axis=0)
        gn *= r  # the h-side candidate gradient passes through the reset gate
        gh = ga @ wh.values.T
        gh += g * z
        return gx, gh, gwx, hv.T @ ga, gb

    return _record("gru", (x, h, wx, wh, b), out, backward_fn)


def dropout(a: Tensor, p: float, gen: np.random.Generator | None) -> Tensor:
    """Inverted dropout: zero a fraction p < 1 and rescale survivors by
    1/(1-p). Without a generator (evaluation) it is the identity.

    The mask of n elements reads ceil(n/2) whole raw 64-bit words from the
    bit generator and splits them into 32-bit halves, low half first; the
    element whose half is u is kept when u >= k << 8, with k =
    ceil(float32(p) * 2**24), and every element is dropped when float32(p)
    rounds to 1. Each call thus advances the stream by ceil(n/2) words and
    leaves no half word behind. For an even n the mask is the one
    `gen.random(shape, dtype=np.float32) >= p` draws from a generator with
    no buffered half word: that draw is (u >> 8) * 2**-24 >= float32(p),
    which is u >= k << 8, over the same halves wherever the bit generator
    splits its words low half first (Philox, PCG64 and SFC64 do). For an
    odd n, which training meets only in an encoder layer with an odd
    entity count times an odd `dim` or a decoder feature map with an odd
    batch * channels * dim, the last word's high half is unused. The
    backward keeps the 1-byte mask and the scale 1/(1-p) in the input
    dtype; (a * scale) * mask has the bits, signed zeros included, of a
    times the mask divided by 1 - p in that dtype."""
    if not p < 1.0:
        raise ValueError(f"dropout needs p < 1, got {p}")
    if gen is None or p <= 0.0:
        return a
    n = a.values.size
    # '<u8' -> '<u4' puts each word's low half first on any host
    halves = gen.bit_generator.random_raw((n + 1) // 2).astype("<u8", copy=False).view("<u4")
    k = int(np.ceil(float(np.float32(p)) * 2.0 ** 24))
    # k << 8 is 2**32, above every half, when float32(p) rounds to 1
    mask = (halves[:n] >= k << 8).reshape(a.values.shape)
    del halves  # the output can then reuse the words' memory
    scale = np.divide(1.0, 1.0 - p, dtype=a.values.dtype)
    out = a.values * scale
    out *= mask

    def backward_fn(g):
        ga = g * scale
        ga *= mask
        return (ga,)

    return _record("dropout", (a,), out, backward_fn)


def tensor_sum(a: Tensor) -> Tensor:
    out = a.values.sum()
    shape = a.shape
    return _record("sum", (a,), out, lambda g: (np.broadcast_to(g, shape),))


# ---------------------------------------------------------------------------
# gradient checking

@np.errstate(all="ignore")
def grad_check(fn, inputs, eps: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``fn`` maps the given tensors to a scalar Tensor and must be
    deterministic (run dropout in eval mode). Error per coordinate is
    |analytic - numeric| / max(1, |numeric|). Floating-point warnings are
    silenced: a non-finite value is reported as ``NumericError`` instead.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    for x in inputs:
        x.values = np.ascontiguousarray(x.values)  # ravel below must be a view
    with Tape(inputs) as tape:
        out = fn(*inputs)
        if out.values.size != 1:
            raise ValueError("grad_check needs a scalar-valued function")
        if not np.all(np.isfinite(out.values)):
            raise NumericError("non-finite forward value at the checked output")
        grads = backward(out, tape)
    for x, g in zip(inputs, grads):
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient at a checked input of shape {x.shape}")

    def run():
        return float(fn(*inputs).values)

    worst = 0.0
    for x, analytic in zip(inputs, grads):
        flat = x.values.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = run()
            flat[i] = orig - eps
            f_minus = run()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = abs(float(analytic.reshape(-1)[i]) - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# optimizer

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    lr: float = 1e-3
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def init_adam(params, lr: float = 1e-3) -> AdamState:
    state = AdamState(lr=lr)
    state.m = [np.zeros_like(p.values) for p in params]
    state.v = [np.zeros_like(p.values) for p in params]
    return state


def adam_step(params, grads, state: AdamState) -> None:
    """Bias-corrected Adam update in place of each parameter by its
    gradient in `grads` (as `backward` returns them).

    The moments and the parameters are updated in their own buffers, with
    the bits of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and
    p -= (lr (m / c1)) / (sqrt(v / c2) + eps)."""
    if not len(params) == len(grads) == len(state.m):
        raise ValueError("parameter, gradient and optimizer state lists differ in length")
    state.step += 1
    t = state.step
    c1, c2 = 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t
    for i, (p, g) in enumerate(zip(params, grads)):
        if g.shape != p.values.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {p.values.shape}")
        m, v = state.m[i], state.v[i]
        # ndarray scratch, 0-d ones included: an in-place op on a numpy
        # scalar would rebind it instead
        step, denom = np.empty_like(m), np.empty_like(v)
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=step)
        v *= ADAM_BETA2
        np.multiply(g, g, out=denom)
        denom *= 1.0 - ADAM_BETA2
        v += denom
        np.divide(m, c1, out=step)
        step *= state.lr
        np.divide(v, c2, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        step /= denom
        p.values -= step
