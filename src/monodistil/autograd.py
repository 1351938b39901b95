"""Reverse-mode automatic differentiation over numpy arrays.

Values are stored as 32-bit floats; reductions accumulate in 64-bit,
except ``_unbroadcast``, which sums a broadcast gradient (bias and gain
gradients) back to its operand's shape in the gradient's own dtype.
Every operation records a backward closure on a tape; calling
``backward()`` on a scalar output walks the tape in reverse topological
order. Leaf gradients accumulate additively until they are zeroed; each
intermediate gradient is dropped as soon as its node's closure has run.
Bias, scale and residual adds ride inside ``matmul`` and ``layer_norm``
rather than recording nodes of their own. The tape stays until
``release_graph`` drops it, as each training step does once its update
is done.

Importing the module fixes the C allocator's policy (see
``_keep_freed_pages``), so that a step reuses the heap pages the previous
step freed instead of faulting in fresh ones.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
from typing import Callable, Iterable

import numpy as np
from numpy.lib.array_utils import normalize_axis_index

from .errors import ConfigurationError, DimensionError, UsageError

_GRAD_ENABLED = True
_DEFAULT_DTYPE = np.float32

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327

# Abramowitz & Stegun 7.1.26: erf(z) = 1 - t*(a1 + t*(a2 + ... + t*a5)) * exp(-z^2)
# with t = 1 / (1 + p*z) for z >= 0; absolute error below 1.5e-7
_ERF_P = 0.3275911
_ERF_A = (0.254829592, -0.284496736, 1.421413741, -1.453152027, 1.061405429)

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_pages() -> None:
    """Keep freed activation arrays in the heap for the next step to reuse.

    By default glibc serves large blocks with fresh mmaps and gives freed
    memory at the top of the heap back to the kernel, so every step zero-
    fills the same pages again: about 220 minor faults per distill step,
    a tenth of its time. A fixed 32 MiB mmap threshold keeps every tape
    array in the heap, and a 1 GiB trim threshold keeps freed pages mapped.
    Only addresses change, never arithmetic. Without glibc's ``mallopt``
    this does nothing.
    """
    if os.name != "posix":
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


_keep_freed_pages()


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (inference mode)."""
    global _GRAD_ENABLED
    prev, _GRAD_ENABLED = _GRAD_ENABLED, False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


@contextlib.contextmanager
def precision(dtype):
    """Temporarily change the dtype newly created tensors default to.

    Used by gradient verification, which reruns graphs in float64 to keep
    roundoff well below the comparison tolerances.
    """
    global _DEFAULT_DTYPE
    prev, _DEFAULT_DTYPE = _DEFAULT_DTYPE, np.dtype(dtype).type
    try:
        yield
    finally:
        _DEFAULT_DTYPE = prev


def _sum64(x: np.ndarray, axis=None, keepdims=False) -> np.ndarray:
    # reductions accumulate in float64, result returned in the input dtype
    return np.sum(x, axis=axis, keepdims=keepdims, dtype=np.float64).astype(x.dtype)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted gradient back to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """N-dimensional float array with an optional gradient accumulator."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[], None] | None = None

    @classmethod
    def _from_result(cls, data: np.ndarray, parents: tuple["Tensor", ...],
                     backward: Callable[[], None] | None) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        track = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out.requires_grad = track
        out._parents = parents if track else ()
        out._backward = backward if track else None
        return out

    # -- bookkeeping ---------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def _accumulate(self, g: np.ndarray) -> None:
        """Add ``g`` into ``grad``; the first gradient may be kept as is.

        Every backward closure hands over either a fresh array that nothing
        else holds, or a view, which its ``base`` gives away. A fresh array
        laid out like ``data`` becomes ``grad`` without a copy; anything
        else is copied in the layout of data, not of g, since a transposed
        g would change the summation order of later reductions.
        """
        if self.grad is not None:
            self.grad += g
        elif (type(g) is np.ndarray and g.base is None and g.dtype == self.data.dtype
              and g.shape == self.data.shape and g.flags.c_contiguous
              and self.data.flags.c_contiguous):
            self.grad = g
        else:
            self.grad = np.empty_like(self.data)
            np.copyto(self.grad, g)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph traversal -----------------------------------------------

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded graph.

        Leaf gradients accumulate additively across calls until zeroed. A
        node with parents drops its gradient once its closure has run, since
        every consumer has run by then; a second call therefore adds exactly
        one more pass to the leaves.
        """
        if self.data.size != 1:
            raise UsageError(f"backward() requires a scalar loss, got shape {self.shape}")
        if not self._parents:
            raise UsageError("backward() on a tensor with no recorded graph")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward()
                node.grad = None

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other, like=self)
        out_data = self.data + other.data
        a, b = self, other

        def back():
            # a view, so that an unreduced gradient is copied, not kept: out.grad
            # itself must not become a parent's grad
            if a.requires_grad:
                a._accumulate(_unbroadcast(out.grad.view(), a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(out.grad.view(), b.shape))

        out = Tensor._from_result(out_data, (a, b), back)
        return out

    def __mul__(self, other):
        other = as_tensor(other, like=self)
        out_data = self.data * other.data
        a, b = self, other

        def back():
            if a.requires_grad:
                a._accumulate(_unbroadcast(out.grad * b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(out.grad * a.data, b.shape))

        out = Tensor._from_result(out_data, (a, b), back)
        return out

    def __neg__(self):
        a = self

        def back():
            if a.requires_grad:
                a._accumulate(-out.grad)

        out = Tensor._from_result(-self.data, (a,), back)
        return out

    def __sub__(self, other):
        return self + (-as_tensor(other, like=self))

    def __truediv__(self, scalar):
        if isinstance(scalar, Tensor):
            raise UsageError("tensor/tensor division is not supported; multiply by a reciprocal")
        return self * (1.0 / float(scalar))

    def __pow__(self, exponent):
        p = float(exponent)
        a = self
        out_data = self.data ** p

        def back():
            if a.requires_grad:
                a._accumulate(out.grad * p * a.data ** (p - 1.0))

        out = Tensor._from_result(out_data, (a,), back)
        return out

    # -- shape manipulation ---------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        out_data = self.data.reshape(shape)

        def back():
            if a.requires_grad:
                a._accumulate(out.grad.reshape(a.shape))

        out = Tensor._from_result(out_data, (a,), back)
        return out

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))
        a = self
        out_data = self.data.transpose(axes)

        def back():
            if a.requires_grad:
                a._accumulate(out.grad.transpose(inverse))

        out = Tensor._from_result(out_data, (a,), back)
        return out

    # -- reductions ------------------------------------------------------

    def sum(self, axis=None):
        a = self
        out_data = _sum64(self.data, axis=axis)

        def back():
            if not a.requires_grad:
                return
            g = out.grad
            if axis is not None:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.shape).copy())

        out = Tensor._from_result(out_data, (a,), back)
        return out

    def mean(self, axis=None):
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis) * (1.0 / count)

    # -- pointwise nonlinearities -----------------------------------------

    def exp(self):
        a = self
        out_data = np.exp(self.data)

        def back():
            if a.requires_grad:
                a._accumulate(out.grad * out.data)

        out = Tensor._from_result(out_data, (a,), back)
        return out

    def log(self):
        a = self
        out_data = np.log(self.data)

        def back():
            if a.requires_grad:
                a._accumulate(out.grad / a.data)

        out = Tensor._from_result(out_data, (a,), back)
        return out

    def gelu(self):
        """Gaussian error linear unit, exact erf form: x * Phi(x).

        Phi comes from the A&S 7.1.26 erf in the input dtype; the backward
        reuses the forward's exp(-x^2/2) for the normal density.
        """
        a = self
        x = self.data
        gauss = np.square(x)
        gauss *= -0.5
        np.exp(gauss, out=gauss)
        t = np.abs(x)
        t *= _ERF_P * _INV_SQRT2
        t += 1.0
        np.reciprocal(t, out=t)
        # three full-size arrays: t's buffer goes on to hold cdf, and tail's
        # the output
        tail = np.multiply(t, _ERF_A[4], out=np.empty_like(x))
        for coef in _ERF_A[3::-1]:
            tail += coef
            tail *= t
        tail *= gauss
        # tail is erfc(|x|/sqrt2) = 2 * Phi(-|x|). With s = sign(x), Phi(x) is
        # ((1 + s) - s * tail) / 2, exact for negative x, where 1 - tail would cancel
        cdf = np.sign(x, out=t)
        tail *= cdf
        cdf += 1.0
        cdf -= tail
        cdf *= 0.5
        out_data = np.multiply(x, cdf, out=tail)

        def back():
            if a.requires_grad:
                # cdf and gauss stay untouched so a second backward sees them intact
                d = x * gauss
                d *= _INV_SQRT2PI
                d += cdf
                d *= out.grad
                a._accumulate(d)

        out = Tensor._from_result(out_data, (a,), back)
        return out


def as_tensor(value, like: Tensor | None = None) -> Tensor:
    """Wrap scalars and arrays as constant tensors; pass tensors through."""
    if isinstance(value, Tensor):
        return value
    return constant(value, like.data.dtype if like is not None else _DEFAULT_DTYPE)


def constant(data, dtype=None) -> Tensor:
    """Non-trainable tensor wrapping ``data`` without casting integer arrays."""
    return Tensor._from_result(np.asarray(data, dtype=dtype), (), None)


# -- binary / structural operations ---------------------------------------


def matmul(a: Tensor, b: Tensor, scale: float | None = None,
           bias: Tensor | None = None) -> Tensor:
    """Matrix product with broadcast batch dimensions, then ``* scale`` and
    ``+ bias`` when given.

    The scale, cast to the product's dtype, and the bias are applied in
    place into the product, so ``matmul(a, b, scale=s, bias=c)`` gives the
    bits of ``matmul(a, b) * s + c`` without their temporaries; a wider bias
    widens the output instead of being rounded into it. dL/dbias is
    dL/dout reduced to the bias's shape, dL/da = (dL/dout * scale) @ b^T and
    dL/db = a^T @ (dL/dout * scale), reduced back over any broadcasted batch
    axes.
    """
    a = as_tensor(a)
    b = as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs 2-D or higher operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    try:
        out_data = np.matmul(a.data, b.data)
    except ValueError as exc:
        raise DimensionError(f"matmul batch dimensions disagree: {a.shape} x {b.shape}") from exc
    if scale is not None:
        scale = np.asarray(scale, dtype=out_data.dtype)
        out_data *= scale
    parents = (a, b)
    if bias is not None:
        if np.result_type(out_data, bias.data) == out_data.dtype:
            out_data += bias.data
        else:
            out_data = out_data + bias.data
        parents = (a, b, bias)

    def back():
        g = out.grad
        if bias is not None and bias.requires_grad:
            # a view, so that an unreduced gradient is copied, not kept
            bias._accumulate(_unbroadcast(g.view(), bias.shape))
        if scale is not None:
            g = g * scale
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a._accumulate(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            if b.ndim == 2 and a.ndim > 2 and a.shape[-2] == 1:
                # one row per stacked matrix (the CLS query path): the summed
                # outer products are one GEMM; ROADMAP 2(c) would take every
                # stacked weight gradient this way once MLM numerics may move
                gb = a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b._accumulate(_unbroadcast(gb, b.shape))

    out = Tensor._from_result(out_data, parents, back)
    return out


def _index(x: Tensor, key) -> Tensor:
    """``x.data[key]``; the backward scatter-adds into the selected entries.

    ``np.add.at`` sums repeated entries (an embedding id seen twice) and,
    where each entry is selected once, gives the same bits as ``+=``.
    """
    def back():
        if x.requires_grad:
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            if (isinstance(key, np.ndarray) and key.dtype.kind in "iu"
                    and x.grad.flags.c_contiguous):
                # rows of an embedding: a 1-D scatter over flat element
                # indices adds in the same order, several times faster
                width = x.data[0].size
                flat = (key % x.shape[0])[..., None] * width + np.arange(width)
                np.add.at(x.grad.reshape(-1), flat.reshape(-1), out.grad.reshape(-1))
            else:
                np.add.at(x.grad, key, out.grad)

    out = Tensor._from_result(x.data[key], (x,), back)
    return out


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``weight[ids]`` with scatter-add backward."""
    return _index(weight, np.asarray(ids))


def gather_rows(x: Tensor, mask: np.ndarray) -> Tensor:
    """Select final-axis rows of ``x`` where the boolean ``mask`` is true.

    ``mask`` covers every axis of ``x`` except the last; the result is
    ``[n_selected, last_dim]`` in C order of the mask.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != x.shape[:-1]:
        raise DimensionError(f"mask shape {mask.shape} does not cover tensor shape {x.shape}")
    return _index(x, mask)


def gather_positions(x: Tensor, positions: np.ndarray) -> Tensor:
    """Rows ``x[b, positions[b, j]]`` of a [batch, seq, dim] tensor, as
    [batch, m, dim] for an int [batch, m] ``positions``."""
    positions = np.asarray(positions)
    if x.ndim != 3 or positions.ndim != 2 or positions.shape[0] != x.shape[0]:
        raise DimensionError(
            f"gather_positions expects [B, S, D] and [B, M] positions, got {x.shape} "
            f"and {positions.shape}")
    return _index(x, (np.arange(x.shape[0])[:, None], positions))


def take_index(x: Tensor, idx: np.ndarray) -> Tensor:
    """Pick one column per row: out[i] = x[i, idx[i]]."""
    idx = np.asarray(idx)
    if x.ndim != 2 or idx.shape != (x.shape[0],):
        raise DimensionError(f"take_index expects [N, C] and [N] index, got {x.shape} and {idx.shape}")
    return _index(x, (np.arange(x.shape[0]), idx))


def select(x: Tensor, axis: int, index: int) -> Tensor:
    """Slice out a single index along ``axis``, dropping that axis."""
    axis = normalize_axis_index(axis, x.ndim)
    return _index(x, (slice(None),) * axis + (index,))


def slice_leading(x: Tensor, n: int) -> Tensor:
    """First ``n`` rows along the leading axis."""
    return _index(x, slice(0, n))


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when rate is 0 or no rng is supplied."""
    if rate < 0.0 or rate >= 1.0:
        raise ConfigurationError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0 or rng is None:
        return x
    keep = (rng.random(x.shape) >= rate).astype(x.data.dtype) / (1.0 - rate)
    return x * constant(keep)


# -- softmax family ---------------------------------------------------------


# rows from which the halving max beats ``ndarray.max`` on 16 to 32 wide rows
# (both 16 us at 128 rows of 32; 10 against 3 us at 16 rows, 60 against 117
# at 1024)
_HALVING_MIN_ROWS = 128


def _max_by_halving(z: np.ndarray, axis: int) -> np.ndarray:
    """``z.max(axis=axis, keepdims=True)`` by pairwise halving.

    Each pass takes ``np.maximum`` of the two halves of the remaining
    entries, folding an odd one out into the first; a few whole-array passes
    beat numpy's reduction over a short axis, one row at a time. The
    maximum is exact in any order and NaN propagates, though a +0 and -0
    tie may resolve to either zero, which ``exp`` of the shifted row
    cannot tell apart.
    """
    m = np.swapaxes(z, axis, -1)
    width = m.shape[-1]
    while width > 1:
        half = width // 2
        folded = np.maximum(m[..., :half], m[..., half:2 * half])
        if width % 2:
            np.maximum(folded[..., :1], m[..., width - 1:], out=folded[..., :1])
        m, width = folded, half
    return np.swapaxes(m, axis, -1)


def softmax(x: Tensor, temperature: float = 1.0, axis: int = -1) -> Tensor:
    """Temperature-scaled softmax with max-subtraction for stability."""
    if temperature <= 0.0:
        raise ConfigurationError(f"softmax temperature must be positive, got {temperature}")
    z = x.data if temperature == 1.0 else x.data / temperature
    # halving pays once there are many short rows; a few rows (the CLS
    # query's one row per head) reduce faster in numpy. Both give the same bits
    few_rows = z.size < _HALVING_MIN_ROWS * z.shape[axis]
    out_data = z - (z.max(axis=axis, keepdims=True) if few_rows else _max_by_halving(z, axis))
    np.exp(out_data, out=out_data)
    out_data /= _sum64(out_data, axis=axis, keepdims=True)
    a = x

    def back():
        if a.requires_grad:
            s = out.data
            d = out.grad * s
            inner = _sum64(d, axis=axis, keepdims=True)
            np.subtract(out.grad, inner, out=d)
            d *= s
            if temperature != 1.0:
                d /= temperature
            a._accumulate(d)

    out = Tensor._from_result(out_data, (a,), back)
    return out


def log_softmax(x: Tensor, temperature: float = 1.0, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax of temperature-scaled logits."""
    if temperature <= 0.0:
        raise ConfigurationError(f"softmax temperature must be positive, got {temperature}")
    z = x.data if temperature == 1.0 else x.data / temperature
    out_data = z - z.max(axis=axis, keepdims=True)
    out_data -= np.log(_sum64(np.exp(out_data), axis=axis, keepdims=True))
    a = x

    def back():
        if a.requires_grad:
            gsum = _sum64(out.grad, axis=axis, keepdims=True)
            d = np.exp(out.data)
            d *= gsum
            np.subtract(out.grad, d, out=d)
            if temperature != 1.0:
                d /= temperature
            a._accumulate(d)

    out = Tensor._from_result(out_data, (a,), back)
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5,
               residual: Tensor | None = None) -> Tensor:
    """Normalize the final axis to zero mean / unit variance, then affine.

    With ``residual``, the input is ``x + residual``, added out of place
    and never kept, and both get the same gradient. The row mean and
    variance reduce in float64; the elementwise work runs in the input
    dtype. The affine step stays out of place, so a wider gain or bias
    widens the output rather than being rounded into it.
    """
    s = x.data if residual is None else x.data + residual.data
    dtype = s.dtype
    mu = s.mean(axis=-1, keepdims=True, dtype=np.float64)
    xhat = s - mu.astype(dtype)
    var = np.square(xhat).mean(axis=-1, keepdims=True, dtype=np.float64)
    inv = (1.0 / np.sqrt(var + eps)).astype(dtype)
    xhat *= inv
    out_data = gain.data * xhat + bias.data
    a, g_t, b_t, r = x, gain, bias, residual
    parents = (a, g_t, b_t) if r is None else (a, g_t, b_t, r)

    def back():
        go = out.grad
        if g_t.requires_grad:
            g_t._accumulate(_unbroadcast(go * xhat, g_t.shape))
        if b_t.requires_grad:
            # a view, so that an unreduced gradient is copied, not kept
            b_t._accumulate(_unbroadcast(go.view(), b_t.shape))
        if a.requires_grad or (r is not None and r.requires_grad):
            # go has the output's dtype, at least as wide as xhat's, so
            # the in-place updates below never narrow
            dxhat = go * g_t.data
            t = dxhat * xhat
            m1 = dxhat.mean(axis=-1, keepdims=True, dtype=np.float64)
            m2 = t.mean(axis=-1, keepdims=True, dtype=np.float64)
            dxhat -= m1.astype(dxhat.dtype)
            np.multiply(xhat, m2.astype(dxhat.dtype), out=t)
            dxhat -= t
            dxhat *= inv
            dx = dxhat.astype(dtype, copy=False)
            if r is not None and r.requires_grad:
                # a view, so that x may keep dx itself
                r._accumulate(_unbroadcast(dx.view(), r.shape))
            if a.requires_grad:
                a._accumulate(_unbroadcast(dx, a.shape))

    out = Tensor._from_result(out_data, parents, back)
    return out


def release_graph(root: Tensor) -> None:
    """Drop the tape under ``root`` so that reference counting frees it.

    Each backward closure refers to its own output tensor, a reference
    cycle that only the cyclic GC would break. Clearing ``_parents`` and
    ``_backward`` on every non-leaf node breaks it; leaves keep their
    gradients. ``backward()`` keeps the graph, so a training step calls
    this once its update is done.
    """
    stack = [root]
    while stack:
        node = stack.pop()
        if node._parents:
            stack.extend(node._parents)
            node._parents = ()
            node._backward = None


# -- gradient verification ---------------------------------------------------


def finite_difference_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-4) -> float:
    """Max relative error between autodiff and central-difference gradients.

    The function is re-evaluated in float64 so that roundoff stays well
    below the comparison tolerance; the relative error denominator is
    max(|analytic|, |numeric|, 1e-8) per element. Diagnostic only, never
    raises on disagreement.
    """
    start = x.data if isinstance(x, Tensor) else x
    with precision(np.float64):
        probe = Tensor(np.array(start, dtype=np.float64), requires_grad=True)
        out = f(probe)
        out.backward()
        analytic = probe.grad.copy() if probe.grad is not None else np.zeros_like(probe.data)

        numeric = np.zeros_like(probe.data)
        flat = probe.data.reshape(-1)
        num_flat = numeric.reshape(-1)
        with no_grad():
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                f_plus = f(probe).item()
                flat[i] = orig - h
                f_minus = f(probe).item()
                flat[i] = orig
                num_flat[i] = (f_plus - f_minus) / (2.0 * h)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def parameters_finite(tensors: Iterable[Tensor]) -> bool:
    return all(np.isfinite(t.data).all() for t in tensors)
