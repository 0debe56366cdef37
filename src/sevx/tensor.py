"""Dense tensors with reverse-mode automatic differentiation.

Model compute runs in float32; every operation also works in float64 so the
finite-difference oracles get a trustworthy reference path. Storage is
row-major throughout, and feature maps use the axis order
(batch, channels, freq, time).

The tape is implicit: each op records its parents and a backward rule on
the output tensor, and ``backward`` replays the rules in reverse topological
order. A rule is a pure function of the output gradient: it returns one
gradient per parent, in the parent's dtype, or ``None`` for a parent it
skips. ``backward`` alone stores them. It sums a broadcast contribution down
to its parent's shape. It never writes into an array after creating it, so a
stored ``.grad`` may be a shared, read-only view. Leaf gradients accumulate
across ``backward`` calls; call ``zero_grad`` (or drop the graph) between
steps. An interior node's gradient is freed once its rule has run, so only
leaves keep one; the tape itself stays, and can be replayed. The two
in-place ops, ``relu_`` and ``add_``, write into an op output that no rule
reads, so the tape keeps one array where ``relu`` or ``+`` keeps two.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import os
from typing import Iterable, Sequence

import numpy as np

FLOAT_DTYPES = (np.float32, np.float64)


class ShapeError(ValueError):
    """Raised when tensor shapes are incompatible for an operation."""


class NumericError(RuntimeError):
    """Raised on domain violations (zero denominators, log of nonpositive, ...)."""


_GRAD_ENABLED = True
_SEQUENTIAL = False
_BLAS_RESTORE = None    # undoes the BLAS pin while sequential mode holds one


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (eval / extraction paths)."""
    global _GRAD_ENABLED
    prev, _GRAD_ENABLED = _GRAD_ENABLED, False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def recorded(*parents: "Tensor") -> bool:
    """Whether an op over ``parents`` goes on the tape: grad is enabled and
    some parent is on it or a leaf that requires grad."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def _pin_blas():
    """Cap BLAS at one thread; return a callable that undoes it, or None."""
    try:
        from threadpoolctl import threadpool_limits
        return threadpool_limits(limits=1).unregister
    except ImportError:
        pass
    # dlopen of numpy's bundled OpenBLAS returns the copy numpy already loaded
    libs = glob.glob(os.path.join(np.__path__[0], os.pardir, "numpy.libs", "libscipy_openblas64_-*.so"))
    try:
        lib = ctypes.CDLL(libs[0])
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    old = get()
    set_(1)
    return lambda: set_(old)


def set_sequential(flag: bool) -> bool:
    """Pin execution to one thread for bit-exact reproducibility.

    All kernels in this package are single numpy calls; the only source of
    run-to-run nondeterminism would be a threaded BLAS changing its reduction
    order, so sequential mode caps the BLAS thread pool at one, through
    ``threadpoolctl`` or else numpy's bundled OpenBLAS via ``ctypes``, and
    leaving it restores the old count. If neither works BLAS is left as it is,
    and bit-exact reruns need ``OPENBLAS_NUM_THREADS=1`` set before numpy
    starts. Returns whether the BLAS thread pool is now capped.
    """
    global _SEQUENTIAL, _BLAS_RESTORE
    if flag and not _SEQUENTIAL:
        _BLAS_RESTORE = _pin_blas()
    elif not flag and _SEQUENTIAL and _BLAS_RESTORE is not None:
        _BLAS_RESTORE()
        _BLAS_RESTORE = None
    _SEQUENTIAL = flag
    return _BLAS_RESTORE is not None


def is_sequential() -> bool:
    return _SEQUENTIAL


def _check_broadcast(sa: tuple, sb: tuple, op: str) -> None:
    # trailing-dimension rule: a size-1 dim stretches, anything else must match
    for da, db in zip(reversed(sa), reversed(sb)):
        if da != db and da != 1 and db != 1:
            raise ShapeError(f"{op}: shapes {sa} and {sb} are not broadcastable")


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
        """Output of an op over ``parents``, recorded on the tape if any parent is.

        ``backward(g)`` maps the output gradient to a sequence with one entry
        per parent: that parent's gradient in its dtype, in the parent's own
        shape or any shape the parent broadcasts to (the output's, or another
        parent's), or ``None`` to skip it. It must not write into ``g`` or
        into any array it returns.
        """
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        if recorded(*parents):
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

    def backward(self) -> None:
        """Populate grad on every requires_grad leaf reachable from self.

        ``self`` must be scalar. Leaf gradients accumulate across calls; an
        interior one is dropped once its rule has run. Rules and parents stay,
        so the graph can be replayed.
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
            if node._backward is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._backward(node.grad), strict=True):
                if g is None or not parent.requires_grad:
                    continue
                if g.shape != parent.shape:
                    g = _unbroadcast(g, parent.shape)
                parent.grad = g if parent.grad is None else parent.grad + g
            node.grad = None    # interior: its rule has used it

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
        return Tensor._from_op(self.data + other.data, (self, other), lambda g: (g, g))

    __radd__ = __add__

    def _check_in_place(self, op: str) -> None:
        """Refuse an in-place op on a leaf that requires grad or on a view."""
        if (self.requires_grad and self._backward is None) or self.data.base is not None:
            raise NumericError(f"{op}: in place only on a fresh op output, not a leaf or a view")

    def add_(self, other):
        """``self + other`` written into this op output, under ``relu_``'s
        contract: it must own its array, must not have been read by another op
        yet, and must have a rule that does not read it. Returns a new node
        with add's rule that shares the array, so the tape is the one ``+``
        builds, less one array."""
        self._check_in_place("add_")
        other = self._coerce(other)
        _check_broadcast(self.shape, other.shape, "add_")
        if np.broadcast_shapes(self.shape, other.shape) != self.shape:
            raise ShapeError(f"add_: {other.shape} does not broadcast to {self.shape}")
        out = np.add(self.data, other.data, out=self.data)
        return Tensor._from_op(out, (self, other), lambda g: (g, g))

    def __sub__(self, other):
        other = self._coerce(other)
        _check_broadcast(self.shape, other.shape, "sub")
        return Tensor._from_op(self.data - other.data, (self, other), lambda g: (g, -g))

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        _check_broadcast(self.shape, other.shape, "mul")
        a, b = self.data, other.data
        return Tensor._from_op(a * b, (self, other), lambda g: (g * b, g * a))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        _check_broadcast(self.shape, other.shape, "div")
        if np.any(other.data == 0):
            raise NumericError("div: zero denominator")
        a, b = self.data, other.data
        return Tensor._from_op(a / b, (self, other), lambda g: (g / b, -g * a / (b * b)))

    def __neg__(self):
        return Tensor._from_op(-self.data, (self,), lambda g: (-g,))

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise ShapeError("pow supports scalar exponents only")
        if not float(p).is_integer() and np.any(self.data < 0):
            raise NumericError("pow: fractional exponent of negative base")
        a = self.data
        return Tensor._from_op(a ** p, (self,), lambda g: (g * p * a ** (p - 1),))

    # ---- linear algebra --------------------------------------------------

    def __matmul__(self, other):
        other = self._coerce(other)
        if self.ndim != 2 or other.ndim != 2:
            raise ShapeError(
                f"matmul requires 2-D operands, got {self.shape} and {other.shape}"
            )
        if self.shape[1] != other.shape[0]:
            raise ShapeError(
                f"matmul inner dimensions disagree: {self.shape} vs {other.shape}"
            )
        a, b = self.data, other.data
        return Tensor._from_op(a @ b, (self, other), lambda g: (g @ b.T, a.T @ g))

    def transpose(self):
        """Copy with the axes reversed."""
        return Tensor._from_op(np.ascontiguousarray(self.data.T), (self,), lambda g: (g.T,))

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        return Tensor._from_op(self.data.reshape(shape), (self,), lambda g: (g.reshape(old),))

    # ---- nonlinearities ---------------------------------------------------

    def relu(self):
        a = self.data
        return Tensor._from_op(np.maximum(a, 0), (self,), lambda g: (g * (a > 0),))

    def relu_(self):
        """ReLU written into this op output, which must own its array, must
        not have been read by another op yet, and must have a rule that does
        not read it; the rule then sees ``g`` masked by ``out > 0``, which is
        ``a > 0`` for every float, NaN and -0 included. Returns self."""
        self._check_in_place("relu_")
        out = self.data
        np.maximum(out, 0, out=out)
        rule = self._backward
        if rule is not None:
            self._backward = lambda g: rule(g * (out > 0))
        return self

    def sigmoid(self):
        # computed via exp(-|x|) so neither branch can overflow
        z = np.exp(-np.abs(self.data))
        data = np.where(self.data >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
        data = data.astype(self.data.dtype, copy=False)
        return Tensor._from_op(data, (self,), lambda g: (g * data * (1.0 - data),))

    def sqrt(self):
        if np.any(self.data < 0):
            raise NumericError("sqrt: negative input")
        data = np.sqrt(self.data)
        # derivative is unbounded at 0; callers add an epsilon first
        return Tensor._from_op(data, (self,), lambda g: (g * 0.5 / data,))

    def log_softmax(self, axis: int = -1):
        m = np.max(self.data, axis=axis, keepdims=True)
        shifted = self.data - m
        lse = np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
        data = shifted - lse
        return Tensor._from_op(
            data, (self,), lambda g: (g - np.exp(data) * g.sum(axis=axis, keepdims=True),))

    # ---- reductions --------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        axes = _normalize_axes(axis, self.ndim)
        shape = self.shape
        return Tensor._from_op(self.data.sum(axis=axes, keepdims=keepdims), (self,),
                               lambda g: (_expand_reduced(g, shape, axes, keepdims),))

    def mean(self, axis=None, keepdims: bool = False):
        axes = _normalize_axes(axis, self.ndim)
        count = int(np.prod([self.shape[ax] for ax in axes])) if axes else 1
        shape = self.shape
        return Tensor._from_op(self.data.mean(axis=axes, keepdims=keepdims), (self,),
                               lambda g: (_expand_reduced(g, shape, axes, keepdims) / count,))

    def max(self, axis=None, keepdims: bool = False):
        axes = _normalize_axes(axis, self.ndim)
        data = self.data.max(axis=axes, keepdims=keepdims)
        a = self.data

        def backward(g):
            full = _expand_reduced(data if keepdims else np.expand_dims(data, axes), a.shape, axes, True)
            mask = (a == full)
            counts = mask.sum(axis=axes, keepdims=True).astype(g.dtype)
            gexp = _expand_reduced(g, a.shape, axes, keepdims)
            # ties share the gradient equally (deterministic subgradient)
            return (mask * (gexp / counts),)

        return Tensor._from_op(data, (self,), backward)


def cat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along an existing axis."""
    ts = list(tensors)
    if not ts:
        raise ShapeError("cat: empty tensor list")
    axis = axis % ts[0].ndim
    data = np.concatenate([t.data for t in ts], axis=axis)
    bounds = np.cumsum([t.shape[axis] for t in ts])[:-1]
    return Tensor._from_op(data, ts, lambda g: np.split(g, bounds, axis=axis))
