"""Reverse-mode automatic differentiation on NumPy arrays.

The paper's stack (TensorFlow) is unavailable offline, so this module
provides the minimal-but-complete tensor engine the PPO implementation
needs: broadcast-aware elementwise ops, matmul, reductions, indexing, and
the nonlinearities used by the policy / value networks.  Gradients flow
through a topologically-sorted backward pass over the recorded graph.

Design notes (following the hpc-parallel guide idioms):

* all math is vectorised NumPy; the graph bookkeeping is thin Python;
* broadcasting is handled once in :func:`_unbroadcast`, which sums gradient
  contributions over broadcast axes so every binary op stays simple;
* dtype belongs to the data, not to :class:`Tensor`: a tensor keeps the
  floating dtype of the array it is given (:func:`as_floating`), an op's
  result has the dtype NumPy gives its operands, a gradient has the dtype
  of the tensor it is the gradient of, and a Python number or NumPy
  scalar met by a tensor takes that tensor's dtype instead of promoting
  it.  The networks are created float32 (:mod:`repro.nn.layers`), so
  float32 observation rows run float32 end to end; float64 parameters
  (``Module.astype``) make the same code a float64 learner.

Two rules keep the tape lean; every VJP is written against them.
*Ownership: a VJP hands its result over; whoever passes an alias copies.*
:meth:`Tensor._accumulate` keeps the array it is given (a strided one is
laid out in C order first, so reductions downstream sum in one order), and
nothing else may reach that array afterwards.  Only ``__add__`` (one
gradient, two same-shaped parents), ``sum`` (a read-only ``broadcast_to``
view) and ``backward`` (the caller's root gradient) pass an alias, and
copy; in return a VJP owns the gradient it receives and may overwrite it.
*Release: the graph is freed as it is consumed.*  Once a node's VJP has
run, :meth:`Tensor.backward` drops its gradient, closure and parents
(leaves keep their ``grad``): peak memory is the activations plus the
gradients in flight, and a second ``backward()`` reaching a released node
raises instead of re-propagating what the first left behind.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "as_floating",
    "row_sum",
    "Tensor",
    "Parameter",
    "no_grad",
    "gather_rows",
    "scatter_rows",
    "segment_sum",
    "segment_max",
    "segment_logsumexp",
]


def as_floating(data) -> np.ndarray:
    """``data`` as an array of the floating dtype it already has; Python
    numbers, integers and booleans become float64, NumPy's own default."""
    data = np.asarray(data)
    return data if data.dtype.kind == "f" else data.astype(np.float64)


def row_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=0)`` as one GEMV, ``ones @ a``: a tall gradient sums
    an order of magnitude faster through BLAS than through the reduction
    (another summation order, so the last ulp can differ)."""
    flat = a.reshape(len(a), math.prod(a.shape[1:]))
    return (np.ones(len(a), dtype=a.dtype) @ flat).reshape(a.shape[1:])


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (the inverse of NumPy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Remove leading axes added by broadcasting.
    while grad.ndim > len(shape):
        grad = row_sum(grad)
    # Sum over axes that were size-1 in the original.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class _GradMode:
    enabled = True


class no_grad:
    """Context manager disabling graph recording (inference-time speed)."""

    def __enter__(self):
        self._prev = _GradMode.enabled
        _GradMode.enabled = False
        return self

    def __exit__(self, *exc):
        _GradMode.enabled = self._prev
        return False


def _released(grad) -> None:
    """The VJP of a node whose graph an earlier ``backward()`` consumed."""
    raise RuntimeError("backward() reached a graph that an earlier backward() "
                       "already consumed and released; build it again")


def _as_tensor(x) -> "Tensor":
    return x if isinstance(x, Tensor) else Tensor(x)


class Tensor:
    """An array node in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")
    __array_priority__ = 100  # make np.ndarray defer to our __radd__ etc.

    def __init__(self, data, requires_grad: bool = False):
        self.data = as_floating(data)
        self.requires_grad = requires_grad and _GradMode.enabled
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple["Tensor", ...] = ()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _lift(self, other) -> "Tensor":
        """``other`` as a tensor: an array keeps its dtype, anything else
        (a Python number, a NumPy scalar, a list) has none worth keeping
        and takes this tensor's, so a stray ``np.float64`` cannot promote
        a float32 graph."""
        if isinstance(other, (Tensor, np.ndarray)):
            return _as_tensor(other)
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    @classmethod
    def _from_op(
        cls,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _GradMode.enabled and any(p.requires_grad for p in parents)
        out = cls(data, requires_grad=False)
        out.requires_grad = requires
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """The underlying array (shared, do not mutate during training)."""
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:
        grad_flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # gradient accumulation / backward pass
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad``, which the caller hands over (module docstring)."""
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is not None:
            self.grad += grad
        elif grad.flags.c_contiguous:
            self.grad = grad
        else:
            self.grad = grad.copy()

    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Backpropagate from this node (defaults to d(self)/d(self) = 1);
        consumes the graph, so only leaves hold a ``grad`` afterwards."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that requires no grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without grad requires a scalar")
            grad = np.ones_like(self.data)
        else:
            grad = np.array(grad, dtype=self.data.dtype)  # the caller keeps theirs

        # Topological order via iterative DFS (recursion would overflow on
        # deep PPO graphs).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward is _released:
                _released(None)  # before anything is propagated
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        while topo:
            node = topo.pop()
            vjp, grad = node._backward, node.grad
            if vjp is None:
                continue  # a leaf keeps its gradient
            node.grad, node._backward, node._parents = None, _released, ()
            if grad is not None:
                vjp(grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                # two same-shaped parents would both keep `grad` itself
                shared = other.requires_grad and self.data.shape == other.data.shape
                self._accumulate(grad.copy() if shared else grad)
            if other.requires_grad:
                other._accumulate(grad)

        return Tensor._from_op(out_data, (self, other), backward)

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)

        return Tensor._from_op(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other) -> "Tensor":
        return self._lift(other) + (-self)

    def __truediv__(self, other) -> "Tensor":
        other = self._lift(other)
        return self * other ** -1.0

    def __rtruediv__(self, other) -> "Tensor":
        return self._lift(other) * self ** -1.0

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        exponent = float(exponent)  # a NumPy scalar would promote the result
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1.0))

        return Tensor._from_op(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # matmul
    # ------------------------------------------------------------------
    def __matmul__(self, other) -> "Tensor":
        other = self._lift(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ValueError(
                f"matmul supports 2-D tensors only, got {self.shape} @ {other.shape}"
            )
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ grad)

        return Tensor._from_op(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._from_op(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._from_op(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._from_op(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (self.data > 0.0))

        return Tensor._from_op(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._from_op(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            # broadcast_to is a read-only view of `grad`: materialise it
            self._accumulate(np.broadcast_to(g, self.data.shape).copy())

        return Tensor._from_op(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------
    # shape manipulation / indexing
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(self.data.shape))

        return Tensor._from_op(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        axes_t = axes if axes else None
        out_data = self.data.transpose(axes_t)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            if axes_t is None:
                self._accumulate(grad.transpose())
            else:
                self._accumulate(grad.transpose(np.argsort(axes_t)))

        return Tensor._from_op(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return Tensor._from_op(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # clipping / selection (PPO objective needs these)
    # ------------------------------------------------------------------
    def clip(self, lo: float, hi: float) -> "Tensor":
        lo, hi = float(lo), float(hi)  # NumPy scalars would promote the result
        out_data = np.clip(self.data, lo, hi)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                inside = (self.data >= lo) & (self.data <= hi)
                self._accumulate(grad * inside)

        return Tensor._from_op(out_data, (self,), backward)

    def minimum(self, other) -> "Tensor":
        """Elementwise min; on ties the gradient goes to ``self`` (like np)."""
        other = self._lift(other)
        take_self = self.data <= other.data
        out_data = np.where(take_self, self.data, other.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * take_self)
            if other.requires_grad:
                other._accumulate(grad * ~take_self)

        return Tensor._from_op(out_data, (self, other), backward)

    def maximum(self, other) -> "Tensor":
        other = self._lift(other)
        take_self = self.data >= other.data
        out_data = np.where(take_self, self.data, other.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * take_self)
            if other.requires_grad:
                other._accumulate(grad * ~take_self)

        return Tensor._from_op(out_data, (self, other), backward)

    def where(self, condition: np.ndarray, other) -> "Tensor":
        """``condition ? self : other`` with a constant boolean condition."""
        other = self._lift(other)
        cond = np.asarray(condition, dtype=bool)
        out_data = np.where(cond, self.data, other.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * cond)
            if other.requires_grad:
                other._accumulate(grad * ~cond)

        return Tensor._from_op(out_data, (self, other), backward)


class Parameter(Tensor):
    """A trainable tensor (always requires grad)."""

    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, requires_grad=True)
        self.requires_grad = True  # immune to no_grad at construction time


# ---------------------------------------------------------------------------
# sparse / segment ops (the CSR scatter-segment idiom)
# ---------------------------------------------------------------------------
# These power the segment-batched PPO update: a flat (total_valid_rows, F)
# matrix plus an ``indptr`` segment-split vector replaces a padded dense
# (batch, M) block, so forward/backward cost scales with the number of
# *valid* rows, not with the padding.  ``indptr`` follows the CSR
# convention: segment ``s`` spans ``x[indptr[s]:indptr[s+1]]``; it is plain
# integer data and never receives gradients.


def _check_indptr(indptr, n_rows: int) -> np.ndarray:
    indptr = np.asarray(indptr, dtype=np.int64)
    if indptr.ndim != 1 or indptr.size < 2:
        raise ValueError("indptr must be 1-D with at least two entries")
    if indptr[0] != 0 or indptr[-1] != n_rows:
        raise ValueError(
            f"indptr must start at 0 and end at {n_rows}, got "
            f"[{indptr[0]}, ..., {indptr[-1]}]"
        )
    if (np.diff(indptr) < 0).any():
        raise ValueError("indptr must be non-decreasing")
    return indptr


def gather_rows(x: Tensor, index) -> Tensor:
    """Select rows along axis 0: ``out[k] = x[index[k]]``.

    The VJP scatter-adds the incoming gradient back to the source rows,
    so duplicate indices accumulate — gathering is how a per-segment
    quantity (a normaliser, a shift) is broadcast back to its rows with
    gradients intact.
    """
    x = _as_tensor(x)
    index = np.asarray(index, dtype=np.int64)
    out_data = x.data[index]

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            full = np.zeros_like(x.data)
            np.add.at(full, index, grad)
            x._accumulate(full)

    return Tensor._from_op(out_data, (x,), backward)


def scatter_rows(x: Tensor, index, n_rows: int) -> Tensor:
    """Scatter rows into a zero matrix: ``out[index[k]] += x[k]``.

    ``out`` has ``n_rows`` rows (remaining dims follow ``x``); rows never
    written stay zero.  Duplicate indices sum.  The VJP is a gather — the
    exact adjoint pair of :func:`gather_rows`.
    """
    x = _as_tensor(x)
    index = np.asarray(index, dtype=np.int64)
    if index.ndim != 1 or index.size != x.data.shape[0]:
        raise ValueError(
            f"index must be 1-D with one entry per row of x, got "
            f"{index.shape} for {x.data.shape}"
        )
    if index.size and (index.min() < 0 or index.max() >= n_rows):
        raise ValueError(f"index out of range [0, {n_rows})")
    out_data = np.zeros((n_rows,) + x.data.shape[1:], dtype=x.data.dtype)
    np.add.at(out_data, index, x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad[index])

    return Tensor._from_op(out_data, (x,), backward)


def segment_sum(x: Tensor, indptr) -> Tensor:
    """Per-segment sum along axis 0: ``out[s] = x[indptr[s]:indptr[s+1]].sum(0)``.

    Empty segments sum to zero.  The VJP repeats each segment's gradient
    over that segment's rows.
    """
    x = _as_tensor(x)
    n = x.data.shape[0]
    indptr = _check_indptr(indptr, n)
    lengths = np.diff(indptr)
    # reduceat quirks: an empty segment returns x[start] instead of 0 and a
    # start == n is out of bounds, so reduce over the non-empty segments
    # only (their starts are strictly increasing and share the boundaries
    # of the full indptr) and leave empty ones at the zero identity.
    nonempty = lengths > 0
    out_data = np.zeros((lengths.size,) + x.data.shape[1:], dtype=x.data.dtype)
    if nonempty.any():
        out_data[nonempty] = np.add.reduceat(
            x.data, indptr[:-1][nonempty], axis=0
        )

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(np.repeat(grad, lengths, axis=0))

    return Tensor._from_op(out_data, (x,), backward)


def segment_max(x: Tensor, indptr) -> Tensor:
    """Per-segment maximum along axis 0 (empty segments read ``-inf``).

    The VJP routes each segment's gradient to the rows attaining the
    maximum (ties share the full gradient, like :meth:`Tensor.where`
    against an equality condition).
    """
    x = _as_tensor(x)
    n = x.data.shape[0]
    indptr = _check_indptr(indptr, n)
    lengths = np.diff(indptr)
    nonempty = lengths > 0
    out_data = np.full(
        (lengths.size,) + x.data.shape[1:], -np.inf, dtype=x.data.dtype
    )
    if nonempty.any():
        out_data[nonempty] = np.maximum.reduceat(
            x.data, indptr[:-1][nonempty], axis=0
        )

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        winners = x.data == np.repeat(out_data, lengths, axis=0)
        x._accumulate(np.repeat(grad, lengths, axis=0) * winners)

    return Tensor._from_op(out_data, (x,), backward)


def segment_logsumexp(x: Tensor, indptr) -> Tensor:
    """Per-segment ``log(sum(exp(x)))``, stability-shifted by the segment max.

    The shift is detached (a constant w.r.t. gradients — it cancels
    exactly in the true derivative), so the VJP is the in-segment
    softmax: ``d out[s] / d x[k] = exp(x[k] - out[s])``.  Segments must
    be non-empty: an empty segment has no finite logsumexp.
    """
    x = _as_tensor(x)
    n = x.data.shape[0]
    indptr = _check_indptr(indptr, n)
    lengths = np.diff(indptr)
    if (lengths == 0).any():
        raise ValueError("segment_logsumexp requires non-empty segments")
    shift = np.maximum.reduceat(x.data, indptr[:-1], axis=0)
    shifted = x.data - np.repeat(shift, lengths, axis=0)
    out_data = np.log(np.add.reduceat(np.exp(shifted), indptr[:-1], axis=0)) + shift

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            softmax = np.exp(x.data - np.repeat(out_data, lengths, axis=0))
            x._accumulate(np.repeat(grad, lengths, axis=0) * softmax)

    return Tensor._from_op(out_data, (x,), backward)
