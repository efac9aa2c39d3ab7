"""Dense feed-forward nets (tanh hidden layers; linear, logistic or softmax
head) on plain float64 arrays, with closed-form gradients.

Parameters live in a :class:`ParamStore` as named groups, one group per
sub-network, so two network views can evaluate the same group and stay
synchronized by construction.  :func:`mlp_backward` turns a loss's gradient
at the head into parameter gradients; :func:`critic_loss` is a critic's whole
loss with its gradient, its row-sized arrays taken from a :class:`Scratch`.
Updates are plain momentum SGD or Adam, and the learning-rate schedule decays
polynomially with training progress.
"""

from __future__ import annotations

import json
import math
import zipfile
from typing import Sequence

import numpy as np

from .autodiff import Tensor

HEADS = ("linear", "logistic", "softmax")


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
    """``a @ b``; at inner dimension 1 the exact outer product ``a * b``,
    which BLAS computes several times slower than a wider product."""
    if a.shape[1] == 1:
        return np.multiply(a, b, out=out)
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

    def take(self, key, rows: int, width: int) -> np.ndarray:
        buffer = self._buffers.get(key)
        if buffer is None or buffer.shape[0] < rows or buffer.shape[1] != width:
            buffer = self._buffers[key] = np.empty((max(rows, self.rows), width))
        return buffer[:rows]


def mlp_activations(
    layers: Sequence[tuple[Tensor, Tensor]], x: np.ndarray, head: str
) -> tuple[list[np.ndarray], np.ndarray]:
    """The tanh activations h_0 = x, ..., h_{L-1} of a batch and the output of
    the requested head, as :func:`mlp_backward` takes them."""
    if head not in HEADS:
        raise ValueError(f"unknown head {head!r}")
    weights, biases = [w.data for w, _ in layers], [b.data for _, b in layers]
    hs = _forward(weights, biases, x, Scratch())
    z = _matmul(hs[-1], weights[-1]) + biases[-1]
    if head == "linear":
        return hs, z
    if head == "logistic":
        return hs, _stable_sigmoid(z)
    z = np.exp(z - z.max(axis=1, keepdims=True))
    return hs, z / z.sum(axis=1, keepdims=True)


def mlp_forward(layers: Sequence[tuple[Tensor, Tensor]], x: np.ndarray, head: str) -> np.ndarray:
    """Run a batch through tanh hidden layers and the requested output head."""
    return mlp_activations(layers, x, head)[1]


def mlp_backward(layers, hs, out, head: str, grad_out: np.ndarray) -> list[np.ndarray]:
    """Gradients W_1, b_1, ..., W_L, b_L of a loss whose gradient at the head
    output ``out`` of :func:`mlp_activations` (with activations ``hs``) is
    ``grad_out``: through the head, then one backward sweep."""
    weights = [w.data for w, _ in layers]
    if head == "logistic":
        grad_out = grad_out * out * (1.0 - out)
    elif head == "softmax":
        grad_out = out * (grad_out - (grad_out * out).sum(axis=1, keepdims=True))
    grad_w = [np.zeros_like(w) for w in weights[:-1]] + [_matmul(hs[-1].T, grad_out)]
    grad_b = [np.zeros_like(b.data) for _, b in layers[:-1]] + [grad_out.sum(axis=0)]
    if len(hs) > 1:
        scratch = Scratch()
        g = _matmul(grad_out, weights[-1].T)
        _sweep(weights, hs, _slopes(hs, scratch), g, None, grad_w, grad_b, scratch)
    return [g for pair in zip(grad_w, grad_b) for g in pair]


def _forward(weights, biases, x, scratch: Scratch) -> list[np.ndarray]:
    """Activations h_0 = x and h_l = tanh(h_{l-1} W_l + b_l), l < L."""
    hs = [np.asarray(x, dtype=np.float64)]
    for l, (weight, bias) in enumerate(zip(weights[:-1], biases[:-1]), 1):
        h = _matmul(hs[-1], weight, out=scratch.take(("h", l), len(hs[0]), weight.shape[1]))
        np.add(h, bias, out=h)
        hs.append(np.tanh(h, out=h))
    return hs


def _slopes(hs, scratch: Scratch) -> list[np.ndarray | None]:
    """The tanh slopes 1 - h_l^2 of the activations ``hs`` (None at h_0)."""
    slopes = [None]
    for l, h in enumerate(hs[1:], 1):
        s = np.multiply(h, h, out=scratch.take(("s", l), *h.shape))
        slopes.append(np.subtract(1.0, s, out=s))
    return slopes


def _sweep(weights, hs, slopes, g, inject, grad_w, grad_b, scratch: Scratch) -> None:
    """Adds the gradients of W_l and b_l, l < L, through the forward ``hs`` to
    ``grad_w`` and ``grad_b``, from ``g`` at h_{L-1} plus ``inject[l]`` at h_l."""
    for l in range(len(hs) - 1, 0, -1):
        a = scratch.take(("a", l), *hs[l].shape)
        if inject is not None:
            g = np.add(g, inject[l], out=a)
        np.multiply(g, slopes[l], out=a)
        grad_w[l - 1] += hs[l - 1].T @ a
        grad_b[l - 1] += a.sum(axis=0)
        if l > 1:
            g = np.matmul(a, weights[l - 1].T, out=scratch.take(("g", l - 1), *hs[l - 1].shape))


def _penalty(weights, hs, slopes, scale: float, grad_w, grad_b, scratch: Scratch) -> float:
    """Mean (||grad_x critic(x_hat)|| - 1)^2 over the rows of x_hat = h_0;
    adds ``scale`` times its parameter gradient to ``grad_w`` and ``grad_b``.

    The critic has tanh hidden layers and a linear head of width 1, layers
    l = 1..L with weights W_l and biases b_l.  With B rows:

    - Input gradient: r_{L-1} = W_L[:, 0] on every row; then
      rho_l = r_l * (1 - h_l^2) and r_{l-1} = rho_l W_l^T.
    - Value: n = sqrt(||r_0||^2 + 1e-24) per row (the epsilon keeps the norm
      differentiable at a zero gradient); the penalty is mean((n - 1)^2).
    - Gradient through the chain: start from R = (2/B) (n - 1)/n * r_0.  For
      l = 1..L-1: dW_l += R^T rho_l, Q = R W_l, D_l = -2 Q * r_l * h_l,
      R = Q * (1 - h_l^2).  Then dW_L[:, 0] += sum over rows of R.
    - Gradient through the forward, with D_l injected: start from G = 0.  For
      l = L-1..1: A = (G + D_l) * (1 - h_l^2), dW_l += h_{l-1}^T A,
      db_l += sum over rows of A, G = A W_l^T.  db_L is 0.
    """
    depth = len(weights) - 1
    rows = hs[0].shape[0]
    # r[l] and rho[l] of the docstring
    r = [None] * depth + [np.broadcast_to(weights[-1][:, 0], (rows, weights[-1].shape[0]))]
    rho = [None] * (depth + 1)
    for l in range(depth, 0, -1):
        rho[l] = np.multiply(r[l], slopes[l], out=scratch.take(("rho", l), *hs[l].shape))
        r[l - 1] = scratch.take(("r", l - 1), *hs[l - 1].shape)
        np.matmul(rho[l], weights[l - 1].T, out=r[l - 1])
    norm = np.sqrt((r[0] * r[0]).sum(axis=1, keepdims=True) + 1e-24)
    value = ((norm - 1.0) ** 2.0).sum() * (1.0 / float(rows))
    inject = [None] * (depth + 1)
    big_r = (scale * 2.0 / rows) * (norm - 1.0) / norm * r[0]
    for l in range(1, depth + 1):
        grad_w[l - 1] += big_r.T @ rho[l]
        q = np.matmul(big_r, weights[l - 1], out=scratch.take(("q", l), *hs[l].shape))
        inject[l] = np.multiply(-2.0, q, out=scratch.take(("inject", l), *hs[l].shape))
        np.multiply(inject[l], r[l], out=inject[l])
        np.multiply(inject[l], hs[l], out=inject[l])
        big_r = np.multiply(q, slopes[l], out=q)
    grad_w[depth] += big_r.sum(axis=0).reshape(-1, 1)
    _sweep(weights, hs, slopes, 0.0, inject, grad_w, grad_b, scratch)
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
    of them come from ``scratch`` (fresh ones when None)."""
    scratch = Scratch() if scratch is None else scratch
    weights, biases = [w.data for w, _ in layers], [b.data for _, b in layers]
    if weights[-1].shape[1] != 1:
        raise ValueError(f"the critic needs a head of width 1, got {weights[-1].shape[1]}")
    grad_w, grad_b = [np.zeros_like(w) for w in weights], [np.zeros_like(b) for b in biases]
    objective = 0.0
    for x, sign in ((x_high, 1.0), (x_low, -1.0)):
        hs = _forward(weights, biases, x, scratch)
        c = np.broadcast_to(np.reshape(coef, (-1, 1)), (hs[0].shape[0], 1))
        objective += sign * float((c * (_matmul(hs[-1], weights[-1]) + biases[-1])).sum())
        top = -sign * c  # the loss's gradient at the head's output
        grad_w[-1] += hs[-1].T @ top
        grad_b[-1] += top.sum(axis=0)
        if len(hs) > 1:
            g = scratch.take(("g", len(hs) - 1), *hs[-1].shape)
            np.multiply(top, weights[-1][:, 0], out=g)
            _sweep(weights, hs, _slopes(hs, scratch), g, None, grad_w, grad_b, scratch)
    hs = _forward(weights, biases, x_hat, scratch)
    penalty = _penalty(weights, hs, _slopes(hs, scratch), penalty_coef, grad_w, grad_b, scratch)
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
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * g
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * g**2
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


def finite_difference(fn, params: Sequence[Tensor], step: float = 1e-5) -> list[np.ndarray]:
    """Central finite-difference gradient of scalar ``fn()`` in ``params``.

    Used by tests as the independent oracle against the closed-form
    gradients: it reads only the values of ``fn()``, a loss or a float.
    """
    def evaluate() -> float:
        value = fn()
        return float(value.data) if isinstance(value, Tensor) else float(value)

    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.ravel()
        gflat = g.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            f_plus = evaluate()
            flat[j] = orig - step
            f_minus = evaluate()
            flat[j] = orig
            gflat[j] = (f_plus - f_minus) / (2.0 * step)
        grads.append(g)
    return grads
