"""Reverse-mode automatic differentiation over batched dense float64 arrays.

A :class:`Tensor` wraps an ndarray and remembers the primitive operation that
produced it, so a computation builds an operation tape as a DAG.  Gradients
are themselves Tensors computed with the same recorded primitives, which makes
second derivatives available: differentiating a gradient norm with respect to
upstream parameters is an ordinary second call to :func:`backward` with
``create_graph=True`` on the first.

All arithmetic is float64.  The engine is deliberately small: affine maps,
pointwise activations, softmax, concatenation and reductions are everything a
dense feed-forward net with a gradient-penalty critic needs.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
    "backward",
    "input_gradient",
    "no_grad",
    "replay",
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
    (inputs, parameters, constants) carry neither.  ``_recompute`` re-derives
    ``data`` from the parents' data and exists so a tape can be replayed and
    checked bit-for-bit.
    """

    __slots__ = ("data", "parents", "_vjp", "_recompute")

    def __init__(self, data, parents=(), vjp=None, recompute=None):
        self.data = _as_array(data)
        if _GRAD_ENABLED:
            self.parents = tuple(parents)
            self._vjp = vjp
            self._recompute = recompute
        else:
            self.parents = ()
            self._vjp = None
            self._recompute = None

    # -- introspection ----------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def detach(self) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out.parents = ()
        out._vjp = None
        out._recompute = None
        return out

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, leaf={self._vjp is None})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _lift(other)
        out = Tensor(
            self.data + other.data,
            (self, other),
            vjp=lambda g: (_unbroadcast(g, self.shape), _unbroadcast(g, other.shape)),
            recompute=lambda a, b: a + b,
        )
        return out

    __radd__ = __add__

    def __sub__(self, other):
        other = _lift(other)
        return Tensor(
            self.data - other.data,
            (self, other),
            vjp=lambda g: (_unbroadcast(g, self.shape), _unbroadcast(-g, other.shape)),
            recompute=lambda a, b: a - b,
        )

    def __rsub__(self, other):
        return _lift(other) - self

    def __mul__(self, other):
        other = _lift(other)
        return Tensor(
            self.data * other.data,
            (self, other),
            vjp=lambda g: (
                _unbroadcast(g * other, self.shape),
                _unbroadcast(g * self, other.shape),
            ),
            recompute=lambda a, b: a * b,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _lift(other)
        return Tensor(
            self.data / other.data,
            (self, other),
            vjp=lambda g: (
                _unbroadcast(g / other, self.shape),
                _unbroadcast(-g * self / (other * other), other.shape),
            ),
            recompute=lambda a, b: a / b,
        )

    def __rtruediv__(self, other):
        return _lift(other) / self

    def __neg__(self):
        return Tensor(
            -self.data,
            (self,),
            vjp=lambda g: (-g,),
            recompute=lambda a: -a,
        )

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only constant exponents are supported")
        c = float(exponent)
        return Tensor(
            self.data**c,
            (self,),
            vjp=lambda g: (g * (self ** (c - 1.0)) * c,),
            recompute=lambda a: a**c,
        )

    def __matmul__(self, other):
        other = _lift(other)
        if self.ndim != 2 or other.ndim != 2:
            raise ValueError(
                f"matmul expects 2-D operands, got {self.shape} @ {other.shape}"
            )
        return Tensor(
            self.data @ other.data,
            (self, other),
            vjp=lambda g: (g @ other.T, self.T @ g),
            recompute=lambda a, b: a @ b,
        )

    # -- pointwise nonlinearities -------------------------------------------

    def exp(self):
        out = Tensor(
            np.exp(self.data),
            (self,),
            recompute=lambda a: np.exp(a),
        )
        out._vjp = lambda g: (g * out,)
        return out

    def log(self):
        return Tensor(
            np.log(self.data),
            (self,),
            vjp=lambda g: (g / self,),
            recompute=lambda a: np.log(a),
        )

    def sqrt(self):
        out = Tensor(
            np.sqrt(self.data),
            (self,),
            recompute=lambda a: np.sqrt(a),
        )
        out._vjp = lambda g: (g * 0.5 / out,)
        return out

    def tanh(self):
        out = Tensor(
            np.tanh(self.data),
            (self,),
            recompute=lambda a: np.tanh(a),
        )
        out._vjp = lambda g: (g * (1.0 - out * out),)
        return out

    def sigmoid(self):
        out = Tensor(
            _stable_sigmoid(self.data),
            (self,),
            recompute=_stable_sigmoid,
        )
        out._vjp = lambda g: (g * out * (1.0 - out),)
        return out

    def softmax(self, axis: int = 1):
        out = Tensor(
            _stable_softmax(self.data, axis),
            (self,),
            recompute=lambda a: _stable_softmax(a, axis),
        )
        out._vjp = lambda g: (out * (g - (g * out).sum(axis=axis, keepdims=True)),)
        return out

    # -- shape manipulation --------------------------------------------------

    @property
    def T(self):
        return Tensor(
            self.data.T,
            (self,),
            vjp=lambda g: (g.T,),
            recompute=lambda a: a.T,
        )

    def reshape(self, shape):
        old = self.shape
        return Tensor(
            self.data.reshape(shape),
            (self,),
            vjp=lambda g: (g.reshape(old),),
            recompute=lambda a: a.reshape(shape),
        )

    def broadcast_to(self, shape):
        old = self.shape
        return Tensor(
            np.broadcast_to(self.data, shape),
            (self,),
            vjp=lambda g: (_unbroadcast(g, old),),
            recompute=lambda a: np.broadcast_to(a, shape),
        )

    def slice_cols(self, start: int, stop: int):
        """Columns ``start:stop`` of a 2-D tensor."""
        if self.ndim != 2:
            raise ValueError("slice_cols expects a 2-D tensor")
        width = self.shape[1]
        return Tensor(
            self.data[:, start:stop],
            (self,),
            vjp=lambda g: (_embed_cols(g, width, start, stop),),
            recompute=lambda a: a[:, start:stop],
        )

    # -- reductions ------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        in_shape = self.shape
        out = Tensor(
            self.data.sum(axis=axis, keepdims=keepdims),
            (self,),
            recompute=lambda a: a.sum(axis=axis, keepdims=keepdims),
        )

        def vjp(g):
            if axis is None:
                kshape = (1,) * len(in_shape)
            elif keepdims:
                kshape = g.shape
            else:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % len(in_shape) for a in axes)
                kshape = tuple(
                    1 if i in axes else s for i, s in enumerate(in_shape)
                )
            return (g.reshape(kshape).broadcast_to(in_shape),)

        out._vjp = vjp
        return out

    def mean(self, axis=None, keepdims: bool = False):
        n = self.size if axis is None else np.prod(
            [self.shape[a] for a in ((axis,) if isinstance(axis, int) else axis)]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(n))


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


def _unbroadcast(g: Tensor, shape) -> Tensor:
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


def _embed_cols(g: Tensor, width: int, start: int, stop: int) -> Tensor:
    """Scatter a column-slice gradient into a zero tensor of full width."""
    rows = g.shape[0]
    stop_norm = min(stop, width) if stop >= 0 else stop % width
    pieces = []
    if start > 0:
        pieces.append(Tensor(np.zeros((rows, start))))
    pieces.append(g)
    if stop_norm < width:
        pieces.append(Tensor(np.zeros((rows, width - stop_norm))))
    return concat(pieces, axis=1) if len(pieces) > 1 else g


def concat(tensors, axis: int = 1) -> Tensor:
    """Concatenate 2-D tensors along ``axis`` (tape-recorded)."""
    tensors = [_lift(t) for t in tensors]
    if len(tensors) == 1:
        return tensors[0]
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        grads = []
        for i, t in enumerate(tensors):
            lo, hi = int(offsets[i]), int(offsets[i + 1])
            if axis == 1:
                grads.append(g.slice_cols(lo, hi))
            else:
                grads.append(g.T.slice_cols(lo, hi).T)
        return tuple(grads)

    return Tensor(
        np.concatenate([t.data for t in tensors], axis=axis),
        tuple(tensors),
        vjp=vjp,
        recompute=lambda *arrs: np.concatenate(arrs, axis=axis),
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


def backward(output: Tensor, wrt, create_graph: bool = False) -> list[Tensor]:
    """Gradients of a scalar ``output`` with respect to each tensor in ``wrt``.

    With ``create_graph=True`` the returned gradients are themselves recorded,
    so expressions built from them (for example a gradient-norm penalty) can be
    differentiated again.
    """
    if output.size != 1:
        raise ValueError(f"backward expects a scalar output, got shape {output.shape}")
    topo = _toposort(output)
    grads: dict[int, Tensor] = {id(output): Tensor(np.ones_like(output.data))}

    def run():
        for node in reversed(topo):
            g = grads.get(id(node))
            if g is None or node._vjp is None:
                continue
            parent_grads = node._vjp(g)
            for parent, pg in zip(node.parents, parent_grads):
                if pg is None:
                    continue
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg

    if create_graph:
        run()
    else:
        with no_grad():
            run()

    out = []
    for t in wrt:
        g = grads.get(id(t))
        if g is None:
            g = Tensor(np.zeros_like(t.data))
        elif not create_graph:
            g = g.detach()
        out.append(g)
    return out


def input_gradient(output: Tensor, x: Tensor, create_graph: bool = True) -> Tensor:
    """Gradient of a scalar output with respect to the input tensor ``x``.

    Recorded on the tape by default so that penalties built from it remain
    differentiable with respect to any parameters upstream of ``output``.
    """
    (gx,) = backward(output, [x], create_graph=create_graph)
    return gx


def replay(tensor: Tensor) -> np.ndarray:
    """Recompute a recorded tensor's value from its leaf inputs.

    Replaying applies each recorded primitive again in topological order; the
    result must match the stored forward value bit-for-bit.
    """
    values: dict[int, np.ndarray] = {}
    for node in _toposort(tensor):
        if node._recompute is None:
            values[id(node)] = node.data
        else:
            values[id(node)] = node._recompute(*(values[id(p)] for p in node.parents))
    return values[id(tensor)]
