"""Reverse-mode automatic differentiation over batched dense float64 arrays.

A :class:`Tensor` wraps an ndarray and remembers the primitive operation that
produced it, so a computation builds an operation tape as a DAG.  The fit
loss runs through it node by node; a critic's loss (weighted gap and gradient
penalty) is one node with a closed-form parameter gradient
(:func:`fairweigh.nn.critic_loss`).

The tape is first-order, and a gradient is a plain ``np.ndarray``, not a
:class:`Tensor`: every vector-Jacobian product takes and returns arrays and
:func:`backward` builds no tape node.  Gradients may share memory (``add``
hands the same array to both parents), so no code updates a gradient in place.

Every primitive is one ``Tensor(data, parents, vjp=...)`` call.  Its
vector-Jacobian product ``vjp(g, out)`` receives the gradient ``g`` of the
output and the output node ``out`` itself, and returns one gradient per
parent; :func:`backward` calls it as ``node._vjp(g, node)``.  A primitive
whose derivative is written in terms of its output (tanh, sigmoid, softmax)
reads it from ``out`` instead of closing over it.  The tape must stay
acyclic: a node references its parents and never the reverse, so reference
counting frees each activation as soon as the last tensor built on it goes,
without waiting for the cyclic garbage collector.

All arithmetic is float64.  Affine maps, pointwise activations, softmax,
concatenation and reductions are everything a dense feed-forward net needs.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
    "affine",
    "backward",
    "no_grad",
    "concat",
]

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable tape recording inside the block (pure inference)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _as_array(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


class Tensor:
    """Node of the recorded computation.

    ``parents`` and ``_vjp`` are set only while recording is enabled; leaves
    (inputs, parameters, constants) carry neither.
    """

    __slots__ = ("data", "parents", "_vjp")

    def __init__(self, data, parents=(), vjp=None):
        self.data = _as_array(data)
        if _GRAD_ENABLED:
            self.parents = tuple(parents)
            self._vjp = vjp
        else:
            self.parents = ()
            self._vjp = None

    # -- introspection ----------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, leaf={self._vjp is None})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _lift(other)
        return Tensor(
            self.data + other.data,
            (self, other),
            vjp=lambda g, out: (
                _unbroadcast(g, self.shape),
                _unbroadcast(g, other.shape),
            ),
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = _lift(other)
        return Tensor(
            self.data - other.data,
            (self, other),
            vjp=lambda g, out: (
                _unbroadcast(g, self.shape),
                _unbroadcast(-g, other.shape),
            ),
        )

    def __rsub__(self, other):
        return _lift(other) - self

    def __mul__(self, other):
        other = _lift(other)
        return Tensor(
            self.data * other.data,
            (self, other),
            vjp=lambda g, out: (
                _unbroadcast(g * other.data, self.shape),
                _unbroadcast(g * self.data, other.shape),
            ),
        )

    __rmul__ = __mul__

    def __neg__(self):
        return Tensor(-self.data, (self,), vjp=lambda g, out: (-g,))

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only constant exponents are supported")
        c = float(exponent)
        return Tensor(
            self.data**c,
            (self,),
            vjp=lambda g, out: (g * (self.data ** (c - 1.0)) * c,),
        )

    # -- pointwise nonlinearities -------------------------------------------

    def log(self):
        return Tensor(np.log(self.data), (self,), vjp=lambda g, out: (g / self.data,))

    def tanh(self):
        return Tensor(
            np.tanh(self.data),
            (self,),
            vjp=lambda g, out: (g * (1.0 - out.data * out.data),),
        )

    def sigmoid(self):
        return Tensor(
            _stable_sigmoid(self.data),
            (self,),
            vjp=lambda g, out: (g * out.data * (1.0 - out.data),),
        )

    def softmax(self, axis: int = 1):
        return Tensor(
            _stable_softmax(self.data, axis),
            (self,),
            vjp=lambda g, out: (
                out.data * (g - (g * out.data).sum(axis=axis, keepdims=True)),
            ),
        )

    # -- reductions ------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        in_shape = self.shape
        return Tensor(
            self.data.sum(axis=axis, keepdims=keepdims),
            (self,),
            vjp=lambda g, out: (
                np.broadcast_to(
                    g if axis is None or keepdims else np.expand_dims(g, axis),
                    in_shape,
                ),
            ),
        )

    def mean(self, axis=None, keepdims: bool = False):
        n = self.size if axis is None else np.prod(
            [self.shape[a] for a in ((axis,) if isinstance(axis, int) else axis)]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(n))


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``; at inner dimension 1 the exact outer product ``a * b``,
    which BLAS computes several times slower than a wider product."""
    if a.shape[1] == 1:
        return a * b
    return a @ b


def affine(h: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """``h @ weight + bias`` as one tape node (2-D ``h``, 1-D ``bias``)."""
    return Tensor(
        _matmul(h.data, weight.data) + bias.data,
        (h, weight, bias),
        vjp=lambda g, out: (
            _matmul(g, weight.data.T),
            _matmul(h.data.T, g),
            g.sum(axis=0),
        ),
    )


def _lift(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _stable_softmax(x: np.ndarray, axis: int) -> np.ndarray:
    z = x - x.max(axis=axis, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=axis, keepdims=True)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce gradient ``g`` back to ``shape`` after numpy broadcasting."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def concat(tensors) -> Tensor:
    """Concatenate 2-D tensors along their columns (tape-recorded)."""
    tensors = [_lift(t) for t in tensors]
    if len(tensors) == 1:
        return tensors[0]
    offsets = np.cumsum([0] + [t.shape[1] for t in tensors]).tolist()
    return Tensor(
        np.concatenate([t.data for t in tensors], axis=1),
        tensors,
        vjp=lambda g, out: tuple(
            g[:, lo:hi] for lo, hi in zip(offsets, offsets[1:])
        ),
    )


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order  # parents precede children


def backward(output: Tensor, wrt) -> list[np.ndarray]:
    """Gradients of a scalar ``output`` with respect to each tensor in
    ``wrt``, as arrays of the tensors' shapes."""
    if output.size != 1:
        raise ValueError(f"backward expects a scalar output, got shape {output.shape}")
    grads: dict[int, np.ndarray] = {id(output): np.ones_like(output.data)}
    for node in reversed(_toposort(output)):
        g = grads.get(id(node))
        if g is None or node._vjp is None:
            continue
        for parent, pg in zip(node.parents, node._vjp(g, node)):
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    # np.asarray: arithmetic on 0-d arrays gives numpy scalars
    return [
        np.asarray(grads[id(t)]) if id(t) in grads else np.zeros_like(t.data)
        for t in wrt
    ]
