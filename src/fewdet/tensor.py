"""Dense float64 tensors with tape-based reverse-mode differentiation.

Everything is double precision and deterministic: identical inputs produce
bit-identical forward values and gradients. The tape records each primitive
application (op name, inputs, output, and a closure that pushes gradients
back), lives for exactly one training step, and is discarded afterwards.

Ops are module-level functions. They record onto the innermost active
``Tape`` (opened with ``with Tape() as tape:``) whenever any input requires
gradients; with no active tape they are plain numpy computations.

Reductions call the ufunc's ``reduce`` directly (``np.add.reduce`` for
``ndarray.sum``, ``np.maximum.reduce`` for ``ndarray.max``): the methods,
``np.sum`` and ``np.mean`` reach the same C loop through Python wrappers
whose cost dominates on the small arrays a detector step handles. Means and
variances repeat numpy's own order of operations, so every value is
bitwise what the methods give.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .atomic import atomic_open

Array = np.ndarray


class TensorError(Exception):
    """Base class for tensor-level failures."""


class ShapeError(TensorError):
    """Operand shapes are incompatible with the requested operation."""


class NonFiniteError(TensorError):
    """A NaN or Inf appeared where only finite values are allowed."""


class CheckpointError(TensorError):
    """A checkpoint document is malformed or from an unknown format version."""


def _full(shape: tuple[int, ...], value) -> Array:
    """A fresh C-ordered float64 array of ``shape`` holding ``value``
    broadcast: ``np.broadcast_to(value, shape).copy()`` without its wrapper."""
    out = np.empty(shape)
    out[...] = value
    return out


def _all_finite(arr: Array) -> bool:
    """True when every value of arr is finite: a ufunc reduce over booleans,
    which skips the Python wrapper of ``ndarray.all`` and, unlike a sum,
    cannot overflow or raise under ``np.errstate(all="raise")``."""
    return np.logical_and.reduce(np.isfinite(arr), None)


class Tensor:
    """A dense n-dimensional float64 array, optionally tracked for gradients.

    ``grad`` is populated by :func:`backward` for requires_grad leaves and has
    the same shape as ``data``. All stored values must be finite; non-finite
    values raise :class:`NonFiniteError` at construction time rather than
    propagating silently.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64)
        if not _all_finite(arr):
            raise NonFiniteError("tensor holds non-finite values")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: Array | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("op", "inputs", "output", "backward_fn")

    def __init__(self, op, inputs, output, backward_fn):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


_TAPES: list["Tape"] = []


class Tape:
    """Ordered record of primitive applications for one forward pass.

    Entries are appended in execution order, so every entry's inputs were
    produced by an earlier entry or are leaves; :func:`backward` walks the
    list in reverse.
    """

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPES.pop()
        assert popped is self

    def __len__(self) -> int:
        return len(self.nodes)


def _record(op: str, inputs: Sequence[Tensor], out_data: Array,
            backward_fn: Callable[[Array], tuple[Array | None, ...]],
            finite: bool = False) -> Tensor:
    """Wrap a fresh op output, and put it on the innermost tape when an input
    requires gradients. ``finite=True`` skips the finiteness test: for
    outputs that only copy or select values of tensors, which are finite
    already, and for outputs whose op tested the values they come from."""
    if not finite and not _all_finite(out_data):
        raise NonFiniteError("operation produced non-finite values")
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out.requires_grad = False
    if _TAPES:
        for t in inputs:
            if t.requires_grad:
                out.requires_grad = True
                _TAPES[-1].nodes.append(_Node(op, tuple(inputs), out, backward_fn))
                break
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every requires_grad leaf on the tape.

    Leaves that participated in the taped computation but do not influence
    the loss receive (accumulate) zeros. Gradients add across fan-out. The
    walk is a single reverse pass over the recorded order, so identical tapes
    give bit-identical gradients.
    """
    if loss.data.shape != () and loss.data.size != 1:
        raise ShapeError(f"loss must be a scalar, got shape {loss.data.shape}")
    produced = {id(node.output) for node in tape.nodes}
    if id(loss) not in produced:
        raise TensorError("loss tensor was not produced on this tape")

    grads: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    pop = grads.pop
    for node in reversed(tape.nodes):
        g = pop(id(node.output), None)
        if g is None:
            continue
        shape = node.output.data.shape
        in_grads = node.backward_fn(g if g.shape == shape else g.reshape(shape))
        for t, ig in zip(node.inputs, in_grads):
            if ig is None or not t.requires_grad:
                continue
            key = id(t)
            if key in grads:
                grads[key] = grads[key] + ig
            else:
                grads[key] = ig

    seen: set[int] = set()
    for node in tape.nodes:
        for t in node.inputs:
            key = id(t)
            if not t.requires_grad or key in produced or key in seen:
                continue
            seen.add(key)
            contrib = grads.get(key)
            if contrib is None:
                contrib = np.zeros_like(t.data)
            t.grad = contrib if t.grad is None else t.grad + contrib


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum a gradient back down to the shape numpy broadcast it up from.

    Leading axes of length one are reshaped away rather than summed, so a
    stack of one passes its gradient through unchanged, signed zeros too.
    """
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        lead = tuple(i for i in range(extra) if g.shape[i] != 1)
        g = (np.add.reduce(g, lead) if lead else g).reshape(g.shape[extra:])
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = np.add.reduce(g, axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise and broadcasting primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None)
    return _record("add", (a, b), a.data + b.data, bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                -_unbroadcast(g, b.data.shape) if b.requires_grad else None)
    return _record("sub", (a, b), a.data - b.data, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data

    def bwd(g):
        return (_unbroadcast(g * bd, ad.shape) if a.requires_grad else None,
                _unbroadcast(g * ad, bd.shape) if b.requires_grad else None)
    return _record("mul", (a, b), ad * bd, bwd)


def neg(a: Tensor) -> Tensor:
    return _record("neg", (a,), -a.data, lambda g: (-g,))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _record("scale", (a,), a.data * c, lambda g: (g * c,))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0

    def bwd(g):
        return (g * mask,)
    return _record("relu", (a,), np.where(mask, a.data, 0.0), bwd, finite=True)


def log_shift(a: Tensor, eps: float) -> Tensor:
    """Elementwise ln(eps + a); every eps + a must be strictly positive."""
    shifted = eps + a.data
    if np.logical_or.reduce(shifted <= 0.0, None):
        raise ValueError("log_shift requires eps + value > 0 everywhere")

    def bwd(g):
        return (g / (eps + a.data),)
    return _record("log_shift", (a,), np.log(shifted), bwd)


def square(a: Tensor) -> Tensor:
    ad = a.data

    def bwd(g):
        return (2.0 * ad * g,)
    return _record("square", (a,), ad * ad, bwd)


def smooth_l1(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise smooth-L1 of (a - b): 0.5 x^2 for |x| < 1, |x| - 0.5 otherwise."""
    d = a.data - b.data
    inner = np.abs(d) < 1.0

    def bwd(g):
        dd = np.where(inner, d, np.sign(d))
        return (_unbroadcast(g * dd, a.data.shape) if a.requires_grad else None,
                _unbroadcast(-g * dd, b.data.shape) if b.requires_grad else None)
    return _record("smooth_l1", (a, b),
                   np.where(inner, 0.5 * d * d, np.abs(d) - 0.5), bwd)


# ---------------------------------------------------------------------------
# reductions, shaping, indexing
# ---------------------------------------------------------------------------

def sum_all(a: Tensor) -> Tensor:
    shape = a.data.shape

    def bwd(g):
        return (_full(shape, g),)
    return _record("sum", (a,), np.asarray(np.add.reduce(a.data, None)), bwd)


def mean_all(a: Tensor) -> Tensor:
    """The sum divided by the count, as ``ndarray.mean`` computes it."""
    shape, n = a.data.shape, a.data.size

    def bwd(g):
        return (_full(shape, g / n),)
    return _record("mean", (a,), np.asarray(np.add.reduce(a.data, None) / n), bwd)


def sum_axes(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    axes = tuple(axes)
    shape = a.data.shape

    def bwd(g):
        reduced = {ax % len(shape) for ax in axes}
        return (_full(shape, g.reshape([1 if i in reduced else n for i, n in enumerate(shape)])),)
    return _record("sum_axes", (a,), np.add.reduce(a.data, axes), bwd)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)

    def bwd(g):
        return (g.reshape(a.data.shape),)
    return _record("reshape", (a,), a.data.reshape(shape), bwd, finite=True)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    out = a.data.transpose(axes)  # numpy validates the axes
    order = [ax % a.data.ndim for ax in axes]
    inverse = sorted(range(len(order)), key=order.__getitem__)

    def bwd(g):
        return (g.transpose(inverse),)
    return _record("transpose", (a,), out, bwd, finite=True)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
    offsets = [0, *itertools.accumulate(t.data.shape[axis] for t in tensors)]

    def bwd(g):
        pieces = []
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            key = [slice(None)] * g.ndim
            key[axis] = slice(lo, hi)
            pieces.append(g[tuple(key)] if t.requires_grad else None)
        return tuple(pieces)
    return _record("concat", tensors, np.concatenate([t.data for t in tensors], axis=axis),
                   bwd, finite=True)


def gather(a: Tensor, indices, axis: int = 0) -> Tensor:
    """Select rows (axis 0) or columns (axis 1); backward scatter-adds.

    Indices given as a ``range`` of step 1 inside the axis are a slice: the
    forward copies it and the backward adds into it, bitwise what
    ``np.take`` and ``np.add.at`` give, as each position then receives one
    addition onto +0.0.
    """
    if axis not in (0, 1):
        raise ShapeError("gather supports axis 0 or 1")
    size = a.data.shape[axis] if axis < a.data.ndim else 0
    if isinstance(indices, range) and indices.step == 1 \
            and 0 <= indices.start < indices.stop <= size:
        key = (slice(None),) * axis + (slice(indices.start, indices.stop),)
        out = a.data[key].copy()
    else:
        key = None
        idx = np.asarray(indices, dtype=np.int64)
        out = a.data.take(idx, axis=axis)

    def bwd(g):
        # row-major even when a is a strided view: a gradient's memory order
        # sets the summation order of numpy reductions downstream
        gz = np.zeros(a.data.shape)
        if key is not None:
            gz[key] += g
        elif axis == 0:
            np.add.at(gz, idx, g)
        else:
            np.add.at(gz, (slice(None), idx), g)
        return (gz,)
    return _record("gather", (a,), out, bwd, finite=True)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def dot(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 1 or b.data.ndim != 1 or a.data.shape != b.data.shape:
        raise ShapeError(f"dot expects equal-length vectors, got {a.data.shape} and {b.data.shape}")
    ad, bd = a.data, b.data

    def bwd(g):
        return (g * bd if a.requires_grad else None,
                g * ad if b.requires_grad else None)
    return _record("dot", (a, b), np.asarray(ad @ bd), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast as in
    np.matmul, so a stack of operands is one product per stacked matrix."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul expects operands of at least 2 dimensions")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")
    ad, bd = a.data, b.data
    try:
        out = ad @ bd
    except ValueError:
        raise ShapeError(f"matmul stacks do not broadcast: {ad.shape} @ {bd.shape}") from None

    def bwd(g):
        return (_unbroadcast(g @ bd.swapaxes(-1, -2), ad.shape) if a.requires_grad else None,
                _unbroadcast(ad.swapaxes(-1, -2) @ g, bd.shape) if b.requires_grad else None)
    return _record("matmul", (a, b), out, bwd)


MIN_L2_NORM = 1e-30  # l2_normalize rejects slices with a smaller norm


def l2_normalize(a: Tensor, axis: int = -1) -> Tensor:
    """Scale slices along ``axis`` to unit L2 norm; zero-norm slices are an error."""
    norms = np.sqrt(np.add.reduce(a.data * a.data, axis, keepdims=True))
    if np.logical_or.reduce(norms < MIN_L2_NORM, None):
        raise ValueError("cannot L2-normalize a zero-norm slice")
    y = a.data / norms

    def bwd(g):
        return ((g - y * np.add.reduce(g * y, axis, keepdims=True)) / norms,)
    return _record("l2_normalize", (a,), y, bwd)


# ---------------------------------------------------------------------------
# neural-net primitives
# ---------------------------------------------------------------------------

def softmax_spatial(logits: Tensor) -> Tensor:
    """Softmax over every cell of each 2-d map in a [...,H,W] stack; each
    map of the output sums to 1 over its H*W cells."""
    if logits.data.ndim < 2:
        raise ShapeError(f"softmax_spatial expects [...,H,W] maps, got shape {logits.data.shape}")

    x = logits.data
    e = np.exp(x - np.maximum.reduce(x, (-2, -1), keepdims=True))
    p = e / np.add.reduce(e, (-2, -1), keepdims=True)

    def bwd(g):
        return (p * (g - np.add.reduce(g * p, (-2, -1), keepdims=True)),)
    return _record("softmax_spatial", (logits,), p, bwd)


def softmax_cross_entropy(logits: Tensor, targets) -> Tensor:
    """Per-row cross entropy with integer targets, log-sum-exp stabilized.

    logits: [N, C]; targets: length-N integer array; returns [N] losses.
    """
    t = np.asarray(targets, dtype=np.int64)
    if logits.data.ndim != 2 or t.shape != (logits.data.shape[0],):
        raise ShapeError("softmax_cross_entropy expects [N,C] logits and N targets")
    if t.size and (np.minimum.reduce(t) < 0 or np.maximum.reduce(t) >= logits.data.shape[1]):
        raise ShapeError("target class index out of range")

    x = logits.data
    m = np.maximum.reduce(x, 1, keepdims=True)
    lse = m[:, 0] + np.log(np.add.reduce(np.exp(x - m), 1))

    def bwd(g):
        e = np.exp(x - m)
        p = e / np.add.reduce(e, 1, keepdims=True)
        p[np.arange(x.shape[0]), t] -= 1.0
        return (p * g[:, None],)
    return _record("softmax_cross_entropy", (logits,),
                   lse - x[np.arange(x.shape[0]), t], bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps_ln: float = 1e-5) -> Tensor:
    """Normalize each vector along the last axis to zero mean / unit
    variance (population), then apply the per-feature affine gain, bias.

    The mean is the sum divided by the count, and the variance the sum of
    the squared deviations from that mean divided by the count: numpy's own
    order in ``ndarray.mean`` and ``ndarray.var``, bit for bit."""
    n = x.data.shape[-1:]
    if x.data.ndim < 1 or gain.data.shape != n or bias.data.shape != n:
        raise ShapeError("layer_norm gain/bias must match the input's last axis")

    count = n[0]
    d = x.data - np.add.reduce(x.data, -1, keepdims=True) / count
    s = 1.0 / np.sqrt(np.add.reduce(d * d, -1, keepdims=True) / count + eps_ln)
    xhat = d * s
    out = gain.data * xhat + bias.data

    def bwd(g):
        dxhat = g * gain.data
        dx = s * (dxhat - np.add.reduce(dxhat, -1, keepdims=True) / count
                  - xhat * (np.add.reduce(dxhat * xhat, -1, keepdims=True) / count)) \
            if x.requires_grad else None
        dgain = _unbroadcast(g * xhat, n) if gain.requires_grad else None
        dbias = _unbroadcast(g.copy(), n) if bias.requires_grad else None
        return (dx, dgain, dbias)

    return _record("layer_norm", (x, gain, bias), out, bwd)


def _conv_out_size(h: int, k: int, stride: int, pad: int) -> int:
    return (h + 2 * pad - k) // stride + 1


def _im2col(xd: Array, kh: int, kw: int, stride: int, pad: int, ho: int, wo: int) -> Array:
    """[B,C,H,W] -> [B, C*kh*kw, Ho*Wo] patch columns, zero padded: one copy
    out of a strided window view of the padded stack. The ndarray
    constructor builds the view over the contiguous padded copy (or the
    input made contiguous), at a fraction of ``as_strided``'s cost."""
    b, c, h, w = xd.shape
    if pad:
        xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad))
        xp[:, :, pad:pad + h, pad:pad + w] = xd
    else:
        xp = np.ascontiguousarray(xd)
    sb, sc, sh, sw = xp.strides
    windows = np.ndarray((b, c, kh, kw, ho, wo), np.float64, xp, 0,
                         (sb, sc, sh, sw, sh * stride, sw * stride))
    return windows.reshape(b, c * kh * kw, ho * wo)


@functools.lru_cache(maxsize=64)
def _col2im_index(shape: tuple[int, ...], kh: int, kw: int, stride: int, pad: int,
                  ho: int, wo: int) -> Array:
    """Flat position in the padded [B,C,H+2p,W+2p] stack of every entry of
    [B, C*kh*kw, Ho*Wo] columns, in the columns' (b, c, i, j, r, q) order.
    Cached per geometry and read-only, as every call shares it."""
    b, c, h, w = shape
    hp, wp = h + 2 * pad, w + 2 * pad
    rows = np.arange(kh)[:, None, None, None] + stride * np.arange(ho)[:, None]
    cols = np.arange(kw)[:, None, None] + stride * np.arange(wo)
    planes = np.arange(b * c)[:, None, None, None, None] * (hp * wp)
    idx = (planes + rows * wp + cols).reshape(-1)
    idx.flags.writeable = False
    return idx


def _col2im(gcols: Array, shape: tuple[int, ...], kh: int, kw: int, stride: int,
            pad: int, ho: int, wo: int) -> Array:
    """Scatter-add [B, C*kh*kw, Ho*Wo] column gradients back onto [B,C,H,W].

    One ``np.bincount`` over a cached scatter index: it starts every pixel
    at +0.0 and adds the columns in their (i, j) order, so each pixel's
    gradient is the same sum in the same order as kh*kw slice-adds give.
    """
    b, c, h, w = shape
    hp, wp = h + 2 * pad, w + 2 * pad
    idx = _col2im_index(tuple(shape), kh, kw, stride, pad, ho, wo)
    gxp = np.bincount(idx, weights=gcols.reshape(-1), minlength=b * c * hp * wp)
    return gxp.reshape(b, c, hp, wp)[:, :, pad:pad + h, pad:pad + w]


@functools.lru_cache(maxsize=256, typed=True)
def _conv_plan(xshape: tuple[int, ...], kshapes: tuple[tuple[int, ...], ...],
               bshapes: tuple[tuple[int, ...], ...], stride: int, padding: int
               ) -> tuple[int, int, tuple[tuple[int, int], ...], bool]:
    """Validate one conv2d geometry and return ``(Ho, Wo, spans, pointwise)``:
    spans are each kernel's output channels (lo, hi), and pointwise marks a
    1x1, stride-1, unpadded convolution, whose input is its own im2col.
    Cached per geometry; lru_cache stores no exception, so a bad call raises
    every time it is made, and ``typed`` keeps a float stride or padding from
    sharing the plan of an int one."""
    if len(xshape) != 4 or not kshapes or any(len(ks) != 4 for ks in kshapes):
        raise ShapeError("conv2d expects [B,C,H,W] input and [Co,Ci,kh,kw] kernels")
    if bshapes and len(bshapes) != len(kshapes):
        raise ShapeError(f"{len(kshapes)} kernels but {len(bshapes)} biases")
    _, cin, kh, kw = kshapes[0]
    if any(ks[1:] != (cin, kh, kw) for ks in kshapes):
        raise ShapeError("stacked kernels must share input channels and size")
    _, c, h, w = xshape
    if cin != c:
        raise ShapeError(f"kernel expects {cin} input channels, image has {c}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if padding < 0:
        raise ValueError("padding must be >= 0")
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise ShapeError(f"kernel {kh}x{kw} larger than padded input {h + 2 * padding}x{w + 2 * padding}")
    for ks, bs in zip(kshapes, bshapes):
        if bs != (ks[0],):
            raise ShapeError(f"bias must have shape ({ks[0]},), got {bs}")
    ends = list(itertools.accumulate(ks[0] for ks in kshapes))
    spans = tuple(zip([0] + ends[:-1], ends))
    return (_conv_out_size(h, kh, stride, padding), _conv_out_size(w, kw, stride, padding),
            spans, kh == kw == 1 and stride == 1 and padding == 0)


def conv2d(x: Tensor, kernel: Tensor | Sequence[Tensor],
           bias: Tensor | Sequence[Tensor] | None = None,
           stride: int = 1, padding: int = 0, relu: bool = False) -> Tensor:
    """2-d convolution (cross-correlation) over a [B,C,H,W] stack, zero padded.

    kernel is [C_out, C_in, kH, kW]; bias, when given, is [C_out]. Output
    spatial extents follow floor((H + 2p - kH)/stride) + 1. The stack has one
    im2col and one stacked ``kernel @ cols`` product, which np.matmul runs
    per sample, so a sample's bits do not depend on the stack around it.
    Validation, output size and channel spans come from a plan cached per
    geometry. A 1x1, stride-1, unpadded convolution uses the input as its
    own columns, and its input gradient is ``gcols + 0.0``, bitwise what
    col2im's bincount gives (a -0.0 becomes +0.0).

    kernel and bias may also be sequences: convolutions of one input that
    share its im2col, with output channels stacked in order. Each kernel
    keeps its own product, and the input gradient adds the kernels' own from
    last to first, as the tape adds those of separate convolutions: values
    and gradients are bitwise those of the separate convolutions.

    ``relu=True`` applies a ReLU in the same op, with values and gradients
    bitwise those of ``relu(conv2d(...))``. The finiteness test runs on the
    pre-activation, so a non-finite value the ReLU would zero still raises.
    """
    kernels = (kernel,) if isinstance(kernel, Tensor) else tuple(kernel)
    biases = () if bias is None else (bias,) if isinstance(bias, Tensor) else tuple(bias)
    xd = x.data
    ho, wo, spans, pointwise = _conv_plan(
        xd.shape, tuple([k.data.shape for k in kernels]),
        tuple([bs.data.shape for bs in biases]), stride, padding)
    b, c, h, w = xd.shape
    kh, kw = kernels[0].data.shape[2:]
    cout = spans[-1][1]
    cols = xd.reshape(b, c, h * w) if pointwise else _im2col(xd, kh, kw, stride, padding, ho, wo)
    if len(kernels) == 1:
        kmat = kernels[0].data.reshape(cout, c * kh * kw)
        out = kmat @ cols
        if biases:
            out += biases[0].data[:, None]
    else:
        kmats = [k.data.reshape(hi - lo, c * kh * kw) for k, (lo, hi) in zip(kernels, spans)]
        outs = [km @ cols for km in kmats]
        for o, bs in zip(outs, biases):
            o += bs.data[:, None]
        out = np.concatenate(outs, axis=1)
    if not _all_finite(out):
        raise NonFiniteError("operation produced non-finite values")
    out = out.reshape(b, cout, ho, wo)
    if relu:
        mask = out > 0.0
        out = np.where(mask, out, 0.0)

    def input_grad(gcols):
        if pointwise:
            return gcols.reshape(xd.shape) + 0.0
        return _col2im(gcols, xd.shape, kh, kw, stride, padding, ho, wo)

    def bwd(g):
        if relu:
            g = g * mask
        gm = g.reshape(b, cout, ho * wo)
        if len(kernels) == 1:
            k = kernels[0]
            gk = _unbroadcast(gm @ cols.swapaxes(1, 2), kmat.shape).reshape(k.data.shape) \
                if k.requires_grad else None
            gx = input_grad(kmat.T @ gm) if x.requires_grad else None
            if not biases:
                return (gx, gk)
            gb = _unbroadcast(np.add.reduce(g, (2, 3)), (cout,)) \
                if biases[0].requires_grad else None
            return (gx, gk, gb)
        gks = [_unbroadcast(gm[:, lo:hi] @ cols.swapaxes(1, 2), km.shape)
               .reshape(k.data.shape) if k.requires_grad else None
               for (lo, hi), km, k in zip(spans, kmats, kernels)]
        gbs = [_unbroadcast(np.add.reduce(g[:, lo:hi], (2, 3)), (hi - lo,))
               if bs.requires_grad else None for (lo, hi), bs in zip(spans, biases)]
        gx = None
        if x.requires_grad:
            for (lo, hi), km in zip(reversed(spans), reversed(kmats)):
                gk_x = input_grad(km.T @ gm[:, lo:hi])
                gx = gk_x if gx is None else gx + gk_x
        return (gx, *gks, *gbs)

    return _record("conv2d", (x, *kernels, *biases), out, bwd, finite=True)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def sgd_momentum_step(param: Array, grad: Array, velocity: Array, lr: float,
                      momentum: float, weight_decay: float) -> None:
    """One SGD step over flat arrays, in place and in this order:
    v <- momentum*v; v += grad; v += wd*param; param -= lr*v."""
    velocity *= momentum
    velocity += grad
    velocity += weight_decay * param
    param -= lr * velocity


# ---------------------------------------------------------------------------
# finite-difference gradient checking
# ---------------------------------------------------------------------------

def grad_check(f: Callable[[dict[str, Tensor]], Tensor],
               point: dict[str, Array], h: float = 1e-3) -> dict[str, float]:
    """Compare taped gradients of ``f`` against central finite differences.

    ``f`` maps a dict of named leaf tensors to a scalar tensor. Every
    coordinate of every leaf is probed. Returns the per-leaf maximum relative
    error |a - n| / max(1e-8, |a| + |n|). Raises NonFiniteError if any probe
    evaluation is non-finite.
    """
    return _check_coordinates(f, point, h, np.ndindex)


def grad_check_sampled(f: Callable[[dict[str, Tensor]], Tensor],
                       point: dict[str, Array], h: float = 1e-3,
                       samples_per_leaf: int = 4,
                       rng: np.random.Generator | None = None,
                       probe: Callable[[list], list[float]] | None = None
                       ) -> dict[str, float]:
    """grad_check restricted to a random coordinate subset of each leaf.

    Full central differences over every weight of a whole detector cost
    minutes; probing a few coordinates per tensor keeps composite-loss checks
    inside an interactive budget while still touching every leaf.
    ``probe``, when given, evaluates the probes in place of ``f`` (see
    :func:`_check_coordinates`).
    """
    rng = rng if rng is not None else np.random.default_rng(0)

    def sample(shape: tuple[int, ...]) -> list[tuple[int, ...]]:
        size = math.prod(shape)
        n = min(samples_per_leaf, size)
        flat = rng.choice(size, size=n, replace=False) if n else []
        return [np.unravel_index(int(c), shape) for c in flat]

    return _check_coordinates(f, point, h, sample, probe)


def _check_coordinates(f: Callable[[dict[str, Tensor]], Tensor],
                       point: dict[str, Array], h: float,
                       coordinates: Callable[[tuple[int, ...]], Iterable],
                       probe: Callable[[list], list[float]] | None = None
                       ) -> dict[str, float]:
    """The finite-difference core: ``coordinates(shape)`` names the indices
    probed in each leaf, asked leaf by leaf after the taped evaluation.

    Every probe moves one coordinate x of one leaf to x + h or x - h, and
    only those values need a finiteness test. ``moves`` lists the probes as
    (leaf, index, value), in leaf order and x + h before x - h, and
    ``probe(moves)`` returns f's value at each move alone, as floats: a
    caller that knows which part of f a leaf feeds can evaluate many moves
    at once. Without ``probe``, the probes share one set of constant leaves
    over a private copy of the point; each move perturbs one coordinate of
    those arrays in place and restores it."""
    if not (math.isfinite(h) and h > 0):
        raise ValueError("h must be positive")
    h = float(h)
    leaves = {k: Tensor(v, requires_grad=True) for k, v in point.items()}
    with Tape() as tape:
        out = f(leaves)
    if out.data.shape != () and out.data.size != 1:
        raise ShapeError("grad_check target must be scalar-valued")
    backward(tape, out)

    probed = [(name, idx) for name, leaf in leaves.items()
              for idx in coordinates(leaf.data.shape)]
    moves = []
    for name, idx in probed:
        x = float(leaves[name].data[idx])  # Python floats overflow to inf without a warning
        for value in (x + h, x - h):
            if not math.isfinite(value):
                raise NonFiniteError("a probe perturbs a value to a non-finite one")
            moves.append((name, idx, value))
    if probe is None:
        probes = {k: Tensor(v) for k, v in point.items()}

        def probe(moves):
            values = []
            for name, idx, value in moves:
                data = probes[name].data
                x = data[idx]
                data[idx] = value
                values.append(float(f(probes).data))
                data[idx] = x
            return values
    values = probe(moves)

    report = {name: 0.0 for name in leaves}
    for (name, idx), up, down in zip(probed, values[0::2], values[1::2], strict=True):
        grad = leaves[name].grad
        a = 0.0 if grad is None else float(grad[idx])
        numeric = (up - down) / (2.0 * h)
        rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
        report[name] = max(report[name], rel)
    return report


# ---------------------------------------------------------------------------
# checkpoint serialization
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT_VERSION = 1


def save_arrays(path, arrays: dict[str, Tensor | Array], meta: dict | None = None) -> None:
    """Write named float64 arrays as versioned JSON.

    Floats are emitted in shortest round-trip decimal form, so a load followed
    by a save is value-exact for finite doubles.
    """
    doc: dict = {"format_version": CHECKPOINT_FORMAT_VERSION, "arrays": {}}
    for name in sorted(arrays):
        a = arrays[name]
        arr = a.data if isinstance(a, Tensor) else np.asarray(a, dtype=np.float64)
        doc["arrays"][name] = {"shape": list(arr.shape), "data": arr.reshape(-1).tolist()}
    if meta is not None:
        doc["meta"] = meta
    with atomic_open(path) as fh:
        json.dump(doc, fh, sort_keys=True, allow_nan=False, separators=(",", ":"))


def load_arrays(path) -> tuple[dict[str, Array], dict]:
    """Read a checkpoint written by :func:`save_arrays`; returns (arrays, meta)."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format_version {doc.get('format_version')!r}"
            if isinstance(doc, dict) else "checkpoint is not a JSON object")
    entries, meta = doc.get("arrays", {}), doc.get("meta", {})
    if not isinstance(entries, dict) or not isinstance(meta, dict):
        raise CheckpointError("checkpoint 'arrays' and 'meta' must be JSON objects")
    arrays: dict[str, Array] = {}
    for name, entry in entries.items():
        if not isinstance(entry, dict) or "shape" not in entry or "data" not in entry:
            raise CheckpointError(f"array {name!r} must be an object with 'shape' and 'data'")
        shape = entry["shape"]
        if not isinstance(shape, list) or not all(
                type(d) is int and d >= 0 for d in shape):
            raise CheckpointError(f"array {name!r}: shape {shape!r} is not a list of sizes")
        try:
            flat = np.asarray(entry["data"], dtype=np.float64)
        except (TypeError, ValueError):
            raise CheckpointError(f"array {name!r}: data is not a list of numbers") from None
        if flat.size != math.prod(shape):
            raise CheckpointError(f"array {name!r}: {flat.size} values for shape {tuple(shape)}")
        if not np.all(np.isfinite(flat)):
            raise CheckpointError(f"array {name!r} holds non-finite values")
        arrays[name] = flat.reshape(shape)
    return arrays, meta
