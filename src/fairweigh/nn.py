"""Dense feed-forward nets (tanh hidden layers; linear, logistic or softmax
head) on plain float64 arrays, with closed-form gradients.

Parameters live in a :class:`ParamStore` as named groups, one group per
sub-network, so two network views can evaluate the same group and stay
synchronized by construction.  :func:`mlp_forward`, the inference forward,
runs a large input in blocks of :data:`BLOCK_ROWS` rows, so a pass over a
whole training split holds each layer's activations for one block at a time
instead of for every row.  :func:`mlp_backward` turns a loss's gradient
at the head into parameter gradients; :func:`critic_loss` is a critic's whole
loss with its gradient.  The training forwards and backwards take their
row-sized arrays from a :class:`Scratch` that repeated steps share.
Updates are plain momentum SGD or Adam, and the learning-rate schedule decays
polynomially with training progress.

The kernels make as few passes over row-sized arrays as they can, by three
rules: the first layer's bias is folded into its product, h_1 =
tanh([x, 1] [W_1; b_1]), so a narrow input (the critic's is one column) needs
no broadcast product and bias add; a sum over rows (a bias gradient) is the
product ``ones @ a``, which BLAS does several times faster than
``a.sum(axis=0)``; and each call builds the contiguous W_l^T once for all its
products ``a W_l^T`` instead of reading a transposed view in each.
"""

from __future__ import annotations

import json
import math
import zipfile
from typing import Sequence

import numpy as np

from .autodiff import Tensor

HEADS = ("linear", "logistic", "softmax")

# Rows per block of :func:`mlp_forward`.  Rows are independent, so the block
# size changes only the memory held and how well it stays in cache: a 32x32
# layer product costs 25-27 ns per row in blocks of 512-960 rows and 42-46 ns
# at 1,024 rows or more.  The critic's forward (1 -> 32, 32, 32 -> 1) took
# 5.9 ms at 16k rows and 29.5 ms at 80k in blocks of 768 rows, against 8.5 and
# 36.6 ms in blocks of 4,096 (medians on one pinned CPU, 1 OpenBLAS thread);
# at 1.6k rows, 0.61 against 0.64 ms.
BLOCK_ROWS = 768


class ParamStore:
    """Named groups of (weight, bias) layers with seeded initialization.

    Weights draw from the uniform distribution on ±sqrt(6 / (fan_in +
    fan_out)); biases start at zero.  Group creation order is part of the
    deterministic state, so callers must add groups in a reproducible order.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)
        self.groups: dict[str, list[tuple[Tensor, Tensor]]] = {}

    def add_group(
        self, name: str, sizes: Sequence[tuple[int, int]], zero_final: bool = False
    ) -> None:
        """``zero_final`` starts the last layer at zero, so the group's output
        begins at exactly zero and the training objective (not the random
        draw) decides its initial orientation; critics rely on this."""
        if name in self.groups:
            raise ValueError(f"parameter group {name!r} already exists")
        layers = []
        for i, (fan_in, fan_out) in enumerate(sizes):
            if zero_final and i == len(sizes) - 1:
                weight = Tensor(np.zeros((fan_in, fan_out)))
            else:
                bound = math.sqrt(6.0 / (fan_in + fan_out))
                weight = Tensor(self._rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            bias = Tensor(np.zeros(fan_out))
            layers.append((weight, bias))
        self.groups[name] = layers

    def group(self, name: str) -> list[tuple[Tensor, Tensor]]:
        return self.groups[name]

    def parameters(self, names: Sequence[str] | None = None) -> list[Tensor]:
        if names is None:
            names = list(self.groups)
        return [p for n in names for layer in self.groups[n] for p in layer]

    def snapshot(self) -> dict[str, list[np.ndarray]]:
        return {
            name: [p.data.copy() for layer in layers for p in layer]
            for name, layers in self.groups.items()
        }

    def restore(self, snap: dict[str, list[np.ndarray]]) -> None:
        missing = [name for name in self.groups if name not in snap]
        if missing:
            raise ValueError(f"snapshot lacks parameter group {missing[0]!r}")
        pairs = []  # every array is checked before any parameter changes
        for name, arrays in snap.items():
            if name not in self.groups:
                raise ValueError(f"snapshot has unknown parameter group {name!r}")
            params = [p for layer in self.groups[name] for p in layer]
            if len(params) != len(arrays):
                raise ValueError(f"snapshot layer count mismatch in group {name!r}")
            for p, arr in zip(params, arrays):
                if p.data.shape != arr.shape:
                    raise ValueError(
                        f"snapshot shape mismatch in group {name!r}: "
                        f"{arr.shape} vs {p.data.shape}"
                    )
            pairs.extend(zip(params, arrays))
        for p, arr in pairs:
            p.data = arr.copy()


def layer_sizes(
    in_width: int, hidden: Sequence[int], out_width: int
) -> list[tuple[int, int]]:
    """(fan_in, fan_out) of each layer of a net with the given hidden widths."""
    widths = [in_width, *hidden, out_width]
    return list(zip(widths, widths[1:]))


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b``.  At inner dimension 1, an outer product, ``np.matmul`` takes
    several times longer than ``np.dot`` (61 against 13 us at 640 x 32 on one
    core); both form each entry as the one exact multiplication."""
    if a.shape[1] == 1:
        return np.dot(a, b, out=out)
    return np.matmul(a, b, out=out)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class Scratch:
    """Row-sized work arrays that repeated passes write into instead of
    allocating: one buffer per key, at least ``rows`` deep, handed out as a
    view of its leading rows.  A fresh ``Scratch()`` allocates exact sizes."""

    def __init__(self, rows: int = 0):
        self.rows = rows
        self._buffers: dict = {}

    def take(self, key, rows: int, width: int, fill: float | None = None) -> np.ndarray:
        """A ``(rows, width)`` view; a new buffer starts as ``fill`` when given."""
        buffer = self._buffers.get(key)
        if buffer is None or buffer.shape[0] < rows or buffer.shape[1] != width:
            shape = (max(rows, self.rows), width)
            buffer = np.empty(shape) if fill is None else np.full(shape, fill)
            self._buffers[key] = buffer
        return buffer[:rows]

    def ones(self, rows: int) -> np.ndarray:
        """``rows`` ones: a row sum ``a.sum(axis=0)`` as the product ``ones @ a``."""
        return self.take("ones", rows, 1, 1.0)[:, 0]

    def with_ones(self, x: np.ndarray) -> np.ndarray:
        """``[x, 1]``: ``x`` copied into a buffer whose last column is one."""
        out = self.take(("x1", x.shape[1]), len(x), x.shape[1] + 1, 1.0)
        out[:, :-1] = x
        return out


def mlp_activations(
    layers: Sequence[tuple[Tensor, Tensor]], x: np.ndarray, head: str,
    scratch: Scratch | None = None,
) -> tuple[list[np.ndarray], np.ndarray]:
    """The tanh activations h_0 = x, ..., h_{L-1} of a batch and the output of
    the requested head, as :func:`mlp_backward` takes them.  The activations
    are written into ``scratch`` (fresh arrays when None), so they stay valid
    only until its next use."""
    if head not in HEADS:
        raise ValueError(f"unknown head {head!r}")
    weights, biases = [w.data for w, _ in layers], [b.data for _, b in layers]
    scratch = Scratch() if scratch is None else scratch
    hs = _forward(weights, biases, np.vstack([weights[0], biases[0]]), x, scratch)
    z = _matmul(hs[-1], weights[-1]) + biases[-1]
    if head == "linear":
        return hs, z
    if head == "logistic":
        return hs, _stable_sigmoid(z)
    z = np.exp(z - z.max(axis=1, keepdims=True))
    return hs, z / z.sum(axis=1, keepdims=True)


def row_blocks(rows: int, size: int = BLOCK_ROWS) -> list[slice]:
    """The blocks of ``size`` rows a blocked pass over ``rows`` rows runs in
    (one empty block for none).  Rows are independent, but the rounding of a
    matrix product can depend on its shape: blocks start at multiples of
    ``size``, aligned as in one pass, and a last single row joins the block
    before it (a one-row product runs as a matrix-vector product).  On the
    benchmark's nets a blocked pass is then bit-identical to one pass; for
    some head widths and row counts BLAS picks another kernel and the last
    bits may differ."""
    bounds = [0, *range(size, rows - 1, size), rows]
    return [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]


def mlp_forward(layers: Sequence[tuple[Tensor, Tensor]], x: np.ndarray, head: str) -> np.ndarray:
    """Run a batch through tanh hidden layers and the requested output head.

    The rows run in the blocks of :func:`row_blocks` whose head outputs are
    concatenated, so only one block's activations are held at a time, in one
    :class:`Scratch` that the blocks share.
    """
    blocks = row_blocks(len(x))
    scratch = Scratch(min(len(x), BLOCK_ROWS + 1))
    return np.concatenate([mlp_activations(layers, x[b], head, scratch)[1] for b in blocks])


def mlp_backward(
    layers, hs, out, head: str, grad_out: np.ndarray, scratch: Scratch | None = None
) -> list[np.ndarray]:
    """Gradients W_1, b_1, ..., W_L, b_L of a loss whose gradient at the head
    output ``out`` of :func:`mlp_activations` (with activations ``hs``) is
    ``grad_out``: through the head, then one backward sweep, its row-sized
    arrays taken from ``scratch`` (fresh ones when None).  The gradients are
    fresh arrays."""
    weights = [w.data for w, _ in layers]
    scratch = Scratch() if scratch is None else scratch
    if head == "logistic":
        grad_out = grad_out * out * (1.0 - out)
    elif head == "softmax":
        grad_out = out * (grad_out - (grad_out * out).sum(axis=1, keepdims=True))
    grad_w = [np.zeros_like(w) for w in weights[:-1]] + [_matmul(hs[-1].T, grad_out)]
    grad_b = [np.zeros_like(b.data) for _, b in layers[:-1]]
    grad_b.append(scratch.ones(len(grad_out)) @ grad_out)
    if len(hs) > 1:
        wts = [np.ascontiguousarray(w.T) for w in weights]
        g = _matmul(grad_out, wts[-1], out=scratch.take(("g", len(hs) - 1), *hs[-1].shape))
        _sweep(wts, hs, _slopes(hs, scratch), g, None, grad_w, grad_b, scratch)
    return [g for pair in zip(grad_w, grad_b) for g in pair]


def _forward(weights, biases, first, x, scratch: Scratch) -> list[np.ndarray]:
    """Activations h_0 = x and h_l = tanh(h_{l-1} W_l + b_l), l < L; h_1 as
    tanh([x, 1] ``first``) with ``first`` = [W_1; b_1], the bias as a last row."""
    hs = [np.asarray(x, dtype=np.float64)]
    rows = len(hs[0])
    for l in range(1, len(weights)):
        h = scratch.take(("h", l), rows, weights[l - 1].shape[1])
        if l == 1:
            np.matmul(scratch.with_ones(hs[0]), first, out=h)
        else:
            np.add(np.matmul(hs[-1], weights[l - 1], out=h), biases[l - 1], out=h)
        hs.append(np.tanh(h, out=h))
    return hs


def _slopes(hs, scratch: Scratch) -> list[np.ndarray | None]:
    """The tanh slopes 1 - h_l^2 of the activations ``hs`` (None at h_0)."""
    slopes = [None]
    for l, h in enumerate(hs[1:], 1):
        s = np.multiply(h, h, out=scratch.take(("s", l), *h.shape))
        slopes.append(np.subtract(1.0, s, out=s))
    return slopes


def _sweep(wts, hs, slopes, g, inject, grad_w, grad_b, scratch: Scratch, scale=1.0) -> None:
    """Adds ``scale`` times the gradients of W_l and b_l, l < L, through the
    forward ``hs`` to ``grad_w`` and ``grad_b``, from ``g`` at h_{L-1} (None
    for zero) plus ``inject[l]`` at h_l; ``wts`` are the contiguous W_l^T."""
    ones = scratch.ones(len(hs[0]))
    for l in range(len(hs) - 1, 0, -1):
        a = scratch.take(("a", l), *hs[l].shape)
        if g is None:
            g = inject[l]
        elif inject is not None:
            g = np.add(g, inject[l], out=a)
        np.multiply(g, slopes[l], out=a)
        grad_w[l - 1] += scale * (hs[l - 1].T @ a)
        grad_b[l - 1] += scale * (ones @ a)
        if l > 1:
            g = np.matmul(a, wts[l - 1], out=scratch.take(("g", l - 1), *hs[l - 1].shape))


def _penalty(weights, wts, hs, slopes, scale: float, grad_w, grad_b, scratch: Scratch) -> float:
    """Mean (||grad_x critic(x_hat)|| - 1)^2 over the rows of x_hat = h_0;
    adds ``scale`` times its parameter gradient to ``grad_w`` and ``grad_b``.

    The critic has tanh hidden layers and a linear head of width 1, layers
    l = 1..L with weights W_l and biases b_l.  With B rows:

    - Input gradient: r_{L-1} = W_L[:, 0] on every row; then
      rho_l = r_l * (1 - h_l^2) and r_{l-1} = rho_l W_l^T.
    - Value: n = sqrt(||r_0||^2 + 1e-24) per row (the epsilon keeps the norm
      differentiable at a zero gradient); the penalty is mean((n - 1)^2).
    - Gradient through the chain: start from R = (2/B) (n - 1)/n * r_0.  For
      l = 1..L-1: dW_l += R^T rho_l, Q = R W_l, D_l = Q * r_l * h_l,
      R = Q * (1 - h_l^2).  Then dW_L[:, 0] += sum over rows of R.
    - Gradient through the forward, with D_l injected: start from G = 0.  For
      l = L-1..1: A = (G + D_l) * (1 - h_l^2), dW_l += -2 h_{l-1}^T A,
      db_l += -2 (sum over rows of A), G = A W_l^T.  db_L is 0.  The sweep is
      linear in the D_l, so the -2 of d(1 - h^2)/dh = -2h scales its
      gradients instead of every row of every D_l.
    """
    depth = len(weights) - 1
    rows = hs[0].shape[0]
    # r[l] and rho[l] of the docstring
    r = [None] * depth + [np.broadcast_to(weights[-1][:, 0], (rows, weights[-1].shape[0]))]
    rho = [None] * (depth + 1)
    for l in range(depth, 0, -1):
        rho[l] = np.multiply(r[l], slopes[l], out=scratch.take(("rho", l), *hs[l].shape))
        r[l - 1] = np.matmul(rho[l], wts[l - 1], out=scratch.take(("r", l - 1), *hs[l - 1].shape))
    # n and R's row scale (2/B) (n - 1)/n as 1-D arrays
    norm = np.square(r[0]).sum(axis=1)
    norm += 1e-24
    np.sqrt(norm, out=norm)
    dev = norm - 1.0
    value = np.square(dev).sum() * (1.0 / float(rows))
    dev *= scale * 2.0 / rows
    dev /= norm
    inject = [None] * (depth + 1)
    big_r = np.multiply(r[0], dev[:, None], out=scratch.take(("R", 0), *r[0].shape))
    for l in range(1, depth + 1):
        grad_w[l - 1] += big_r.T @ rho[l]
        q = _matmul(big_r, weights[l - 1], out=scratch.take(("q", l), *hs[l].shape))
        inject[l] = np.multiply(q, r[l], out=scratch.take(("inject", l), *hs[l].shape))
        np.multiply(inject[l], hs[l], out=inject[l])
        big_r = np.multiply(q, slopes[l], out=q)
    grad_w[depth] += (scratch.ones(rows) @ big_r).reshape(-1, 1)
    _sweep(wts, hs, slopes, None, inject, grad_w, grad_b, scratch, -2.0)
    return float(value)


def gradient_penalty(layers: Sequence[tuple[Tensor, Tensor]], x_hat: np.ndarray) -> Tensor:
    """Mean (||grad_x critic(x_hat)|| - 1)^2 over the rows of ``x_hat``: the
    loss of :func:`critic_loss` with no objective rows."""
    none = np.empty((0, np.shape(x_hat)[1]))
    return critic_loss(layers, none, none, 0.0, x_hat, 1.0)[0]


def critic_loss(
    layers, x_high, x_low, coef, x_hat, penalty_coef, scratch: Scratch | None = None
) -> tuple[Tensor, float, float]:
    """A critic's training loss with its closed-form parameter gradient, and
    the objective and penalty it is made of: the objective is
    sum_i coef_i (C(x_high_i) - C(x_low_i)) (``coef`` a scalar or one value
    per row), the loss ``penalty_coef`` times the :func:`_penalty` at
    ``x_hat`` minus the objective.  Each input runs its own forward, and each
    forward of the objective one backward sweep.  The row-sized arrays of all
    of them come from ``scratch`` (fresh ones when None).

    Per objective input, v = sum_i coef_i h_{L-1,i} (one matrix-vector
    product) gives both the objective term v w_L + b_L sum_i coef_i and the
    head's weight gradient."""
    scratch = Scratch() if scratch is None else scratch
    weights, biases = [w.data for w, _ in layers], [b.data for _, b in layers]
    if weights[-1].shape[1] != 1:
        raise ValueError(f"the critic needs a head of width 1, got {weights[-1].shape[1]}")
    first = np.vstack([weights[0], biases[0]])
    wts = [np.ascontiguousarray(w.T) for w in weights]  # for the products a W_l^T
    grad_w, grad_b = [np.zeros_like(w) for w in weights], [np.zeros_like(b) for b in biases]
    objective = 0.0
    for x, sign in ((x_high, 1.0), (x_low, -1.0)):
        hs = _forward(weights, biases, first, x, scratch)
        ones = scratch.ones(len(hs[0]))
        c = ones * np.reshape(coef, -1)
        v, total = c @ hs[-1], ones @ c
        objective += sign * (float(v @ weights[-1][:, 0]) + float(biases[-1][0]) * total)
        grad_w[-1][:, 0] -= sign * v
        grad_b[-1] -= sign * total
        if len(hs) > 1:  # the loss's gradient at h_{L-1}: -sign coef_i w_L
            g = scratch.take(("g", len(hs) - 1), *hs[-1].shape)
            _matmul(c.reshape(-1, 1), -sign * weights[-1].T, out=g)
            _sweep(wts, hs, _slopes(hs, scratch), g, None, grad_w, grad_b, scratch)
    hs = _forward(weights, biases, first, x_hat, scratch)
    slopes = _slopes(hs, scratch)
    penalty = _penalty(weights, wts, hs, slopes, penalty_coef, grad_w, grad_b, scratch)
    params = [p for layer in layers for p in layer]
    grads = [g for pair in zip(grad_w, grad_b) for g in pair]
    loss = Tensor(penalty_coef * penalty - objective, dict(zip(map(id, params), grads)))
    return loss, objective, penalty


def learning_rate(eta0: float, progress: float) -> float:
    """Polynomial decay eta0 * (1 + 10 p)^(-0.75) over progress p in [0, 1]."""
    if not 0.0 <= progress <= 1.0:
        raise ValueError(f"progress must lie in [0, 1], got {progress}")
    return float(eta0) * (1.0 + 10.0 * progress) ** -0.75


def _check_finite(grads: Sequence[np.ndarray]) -> None:
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise FloatingPointError("non-finite gradient; aborting update step")


class MomentumSGD:
    """theta <- theta - lr * v with v <- momentum * v + g."""

    def __init__(self, params: Sequence[Tensor], lr: float, momentum: float = 0.9):
        self.params = list(params)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads: Sequence[np.ndarray], lr: float | None = None) -> None:
        _check_finite(grads)
        eta = self.lr if lr is None else float(lr)
        for i, (p, g) in enumerate(zip(self.params, grads)):
            self.velocity[i] = self.momentum * self.velocity[i] + g
            p.data = p.data - eta * self.velocity[i]


class Adam:
    """Adam with bias correction; ``beta1``, ``beta2`` and ``eps`` are fixed.
    The moments of all parameters are one flat vector."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-4):
        self.params = list(params)
        self.lr = float(lr)
        self.t = 0
        self.m = np.zeros(sum(p.data.size for p in self.params))
        self.v = np.zeros_like(self.m)
        self._ends = np.cumsum([p.data.size for p in self.params]).tolist()

    def step(self, grads: Sequence[np.ndarray]) -> None:
        g = np.concatenate([np.ravel(gr) for gr in grads])
        _check_finite([g])
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * g
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * g**2
        update = self.lr * (self.m / b1c) / (np.sqrt(self.v / b2c) + self.eps)
        for p, lo, hi in zip(self.params, [0, *self._ends], self._ends):
            p.data = p.data - update[lo:hi].reshape(p.data.shape)


def save_params(store: ParamStore, path, meta: dict | None = None) -> None:
    """Write all parameter groups plus a JSON metadata section to ``path``.

    The format is an npz archive: one float64 array per parameter under the
    key ``<group>/<layer>/{W,b}`` and the metadata as a UTF-8 byte array,
    which round-trips bit-exactly.
    """
    arrays: dict[str, np.ndarray] = {}
    layout: dict[str, int] = {}
    for name, layers in store.groups.items():
        layout[name] = len(layers)
        for i, (weight, bias) in enumerate(layers):
            arrays[f"{name}/{i}/W"] = weight.data
            arrays[f"{name}/{i}/b"] = bias.data
    header = {"seed": store.seed, "layout": layout, "meta": meta or {}}
    arrays["__header__"] = np.frombuffer(
        json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_params(path) -> tuple[ParamStore, dict]:
    """Rebuild a ParamStore from :func:`save_params` output; returns metadata.

    Raises ``ValueError`` when ``path`` holds no such archive.
    """
    try:
        with np.load(path) as archive:
            header = json.loads(bytes(archive["__header__"]).decode("utf-8"))
            store = ParamStore(seed=header["seed"])
            for name, n_layers in header["layout"].items():
                layers = []
                for i in range(n_layers):
                    weight = Tensor(archive[f"{name}/{i}/W"])
                    bias = Tensor(archive[f"{name}/{i}/b"])
                    layers.append((weight, bias))
                store.groups[name] = layers
            return store, header["meta"]
    except (EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(f"not a parameter archive ({exc})") from None

