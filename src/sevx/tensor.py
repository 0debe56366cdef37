"""Dense tensors with reverse-mode automatic differentiation.

Model compute runs in float32; every operation also works in float64 so the
finite-difference oracles get a trustworthy reference path. Storage is
row-major throughout, and feature maps use the axis order
(batch, channels, freq, time).

The tape is implicit: each op records its parents and a backward closure on
the output tensor, and ``backward`` replays the closures in reverse
topological order. Gradients accumulate with ``+=``; call ``zero_grad`` (or
drop the graph) between steps.
"""

from __future__ import annotations

import contextlib
from typing import Iterable, Sequence

import numpy as np

FLOAT_DTYPES = (np.float32, np.float64)


class ShapeError(ValueError):
    """Raised when tensor shapes are incompatible for an operation."""


class NumericError(RuntimeError):
    """Raised on domain violations (zero denominators, log of nonpositive, ...)."""


_GRAD_ENABLED = True
_SEQUENTIAL = False
_BLAS_LIMIT = None


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (eval / extraction paths)."""
    global _GRAD_ENABLED
    prev, _GRAD_ENABLED = _GRAD_ENABLED, False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def set_sequential(flag: bool) -> None:
    """Pin execution to one thread for bit-exact reproducibility.

    All kernels in this package are single numpy calls; the only source of
    run-to-run nondeterminism would be a threaded BLAS changing its reduction
    order, so sequential mode caps the BLAS thread pool at one.
    """
    global _SEQUENTIAL, _BLAS_LIMIT
    if flag and not _SEQUENTIAL:
        try:
            from threadpoolctl import threadpool_limits

            _BLAS_LIMIT = threadpool_limits(limits=1)
        except ImportError:
            _BLAS_LIMIT = None
    elif not flag and _SEQUENTIAL:
        if _BLAS_LIMIT is not None:
            _BLAS_LIMIT.unregister()
            _BLAS_LIMIT = None
    _SEQUENTIAL = flag


def is_sequential() -> bool:
    return _SEQUENTIAL


def _check_broadcast(sa: tuple, sb: tuple, op: str) -> None:
    # trailing-dimension rule: a size-1 dim stretches, anything else must match
    for da, db in zip(reversed(sa), reversed(sb)):
        if da != db and da != 1 and db != 1:
            raise ShapeError(f"{op}: shapes {sa} and {sb} are not broadcastable")


def _accum_reduced(t: "Tensor", g: np.ndarray, src: np.ndarray) -> None:
    # _unbroadcast may hand back ``src`` itself; only fresh arrays may be owned
    if g is src:
        t._accum(g)
    else:
        t._accum_new(g)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over the dimensions that were broadcast."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad


def _normalize_axes(axis, ndim: int) -> tuple:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _expand_reduced(grad: np.ndarray, shape: tuple, axes: tuple, keepdims: bool) -> np.ndarray:
    if not keepdims:
        grad = np.expand_dims(grad, axes)
    return np.broadcast_to(grad, shape)


def _topo_order(root: "Tensor") -> list["Tensor"]:
    """Ordered list of recorded ops: every node after its producers."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


class Tensor:
    """Dense n-dimensional float array, optionally on the gradient tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        # ascontiguousarray would promote 0-d arrays to 1-d; keep rank as-is
        self.data = arr if arr.flags["C_CONTIGUOUS"] else np.ascontiguousarray(arr)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: Sequence["Tensor"], backward) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward = None
        return out

    # ---- basic introspection -------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    # ---- gradient bookkeeping ------------------------------------------

    def zero_grad(self) -> None:
        self.grad = None

    def _accum(self, g: np.ndarray) -> None:
        """Accumulate a gradient the caller may still hold a reference to."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def _accum_new(self, g: np.ndarray) -> None:
        """Accumulate a freshly-allocated gradient, taking ownership of it."""
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g

    def backward(self) -> None:
        """Populate grad on every requires_grad tensor reachable from self.

        ``self`` must be scalar. Leaf gradients accumulate across calls;
        interior node gradients are reset on every call.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            raise NumericError("backward on a tensor that is not on the tape")
        order = _topo_order(self)
        for node in order:
            if node._parents:
                node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ---- elementwise arithmetic ----------------------------------------

    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            if other.data.dtype != self.data.dtype:
                raise ShapeError(
                    f"dtype mismatch: {self.data.dtype.name} vs {other.data.dtype.name}"
                )
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other):
        other = self._coerce(other)
        _check_broadcast(self.shape, other.shape, "add")
        data = self.data + other.data
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                _accum_reduced(a, _unbroadcast(g, a.shape), g)
            if b.requires_grad:
                _accum_reduced(b, _unbroadcast(g, b.shape), g)

        return Tensor._from_op(data, (a, b), backward)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        _check_broadcast(self.shape, other.shape, "sub")
        data = self.data - other.data
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                _accum_reduced(a, _unbroadcast(g, a.shape), g)
            if b.requires_grad:
                b._accum_new(_unbroadcast(-g, b.shape))

        return Tensor._from_op(data, (a, b), backward)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        _check_broadcast(self.shape, other.shape, "mul")
        data = self.data * other.data
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accum_new(_unbroadcast(g * b.data, a.shape))
            if b.requires_grad:
                b._accum_new(_unbroadcast(g * a.data, b.shape))

        return Tensor._from_op(data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        _check_broadcast(self.shape, other.shape, "div")
        if np.any(other.data == 0):
            raise NumericError("div: zero denominator")
        data = self.data / other.data
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accum_new(_unbroadcast(g / b.data, a.shape))
            if b.requires_grad:
                b._accum_new(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

        return Tensor._from_op(data, (a, b), backward)

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __neg__(self):
        a = self

        def backward(g):
            a._accum_new(-g)

        return Tensor._from_op(-self.data, (a,), backward)

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise ShapeError("pow supports scalar exponents only")
        if not float(p).is_integer() and np.any(self.data < 0):
            raise NumericError("pow: fractional exponent of negative base")
        data = self.data ** p
        a = self

        def backward(g):
            a._accum_new(g * p * self.data ** (p - 1))

        return Tensor._from_op(data, (a,), backward)

    # ---- linear algebra --------------------------------------------------

    def __matmul__(self, other):
        if not isinstance(other, Tensor):
            other = self._coerce(other)
        if self.ndim != 2 or other.ndim != 2:
            raise ShapeError(
                f"matmul requires 2-D operands, got {self.shape} and {other.shape}"
            )
        if self.shape[1] != other.shape[0]:
            raise ShapeError(
                f"matmul inner dimensions disagree: {self.shape} vs {other.shape}"
            )
        data = self.data @ other.data
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accum_new(g @ b.data.T)
            if b.requires_grad:
                b._accum_new(a.data.T @ g)

        return Tensor._from_op(data, (a, b), backward)

    def transpose(self, *axes):
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)
        a = self

        def backward(g):
            a._accum(g.transpose(inv))

        return Tensor._from_op(np.ascontiguousarray(self.data.transpose(axes)), (a,), backward)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        old = self.shape

        def backward(g):
            a._accum(g.reshape(old))

        return Tensor._from_op(self.data.reshape(shape), (a,), backward)

    # ---- nonlinearities ---------------------------------------------------

    def relu(self):
        data = np.maximum(self.data, 0)
        a = self

        def backward(g):
            a._accum_new(g * (a.data > 0))

        return Tensor._from_op(data, (a,), backward)

    def sigmoid(self):
        # computed via exp(-|x|) so neither branch can overflow
        z = np.exp(-np.abs(self.data))
        data = np.where(self.data >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
        data = data.astype(self.data.dtype, copy=False)
        a = self

        def backward(g):
            a._accum_new(g * data * (1.0 - data))

        return Tensor._from_op(data, (a,), backward)

    def sqrt(self):
        if np.any(self.data < 0):
            raise NumericError("sqrt: negative input")
        data = np.sqrt(self.data)
        a = self

        def backward(g):
            # derivative is unbounded at 0; callers add an epsilon first
            a._accum_new(g * 0.5 / data)

        return Tensor._from_op(data, (a,), backward)

    def log_softmax(self, axis: int = -1):
        m = np.max(self.data, axis=axis, keepdims=True)
        shifted = self.data - m
        lse = np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
        data = shifted - lse
        a = self

        def backward(g):
            a._accum_new(g - np.exp(data) * g.sum(axis=axis, keepdims=True))

        return Tensor._from_op(data, (a,), backward)

    # ---- reductions --------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        axes = _normalize_axes(axis, self.ndim)
        data = self.data.sum(axis=axes, keepdims=keepdims)
        a = self
        shape = self.shape

        def backward(g):
            a._accum(_expand_reduced(g, shape, axes, keepdims))

        return Tensor._from_op(data, (a,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        axes = _normalize_axes(axis, self.ndim)
        count = int(np.prod([self.shape[ax] for ax in axes])) if axes else 1
        data = self.data.mean(axis=axes, keepdims=keepdims)
        a = self
        shape = self.shape

        def backward(g):
            a._accum_new(_expand_reduced(g, shape, axes, keepdims) / count)

        return Tensor._from_op(data, (a,), backward)

    def max(self, axis=None, keepdims: bool = False):
        axes = _normalize_axes(axis, self.ndim)
        data = self.data.max(axis=axes, keepdims=keepdims)
        a = self
        shape = self.shape

        def backward(g):
            full = _expand_reduced(data if keepdims else np.expand_dims(data, axes), shape, axes, True)
            mask = (a.data == full)
            counts = mask.sum(axis=axes, keepdims=True)
            gexp = _expand_reduced(g, shape, axes, keepdims)
            # ties share the gradient equally (deterministic subgradient)
            a._accum_new(mask * (gexp / counts))

        return Tensor._from_op(data, (a,), backward)


def cat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along an existing axis."""
    ts = list(tensors)
    if not ts:
        raise ShapeError("cat: empty tensor list")
    axis = axis % ts[0].ndim
    data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]

    def backward(g):
        offset = 0
        for t, s in zip(ts, sizes):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(offset, offset + s)
                t._accum(g[tuple(idx)])
            offset += s

    return Tensor._from_op(data, ts, backward)

