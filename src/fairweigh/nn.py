"""Dense feed-forward building blocks on top of the autodiff engine.

Parameters live in a :class:`ParamStore` as named groups, one group per
sub-network, so two network views can evaluate the same group and stay
synchronized by construction.  Updates are plain momentum SGD or Adam, and the
learning-rate schedule decays polynomially with training progress.
"""

from __future__ import annotations

import json
import math
from typing import Sequence

import numpy as np

from .autodiff import Tensor, _matmul, affine

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
                p.data = arr.copy()


def layer_sizes(
    in_width: int, hidden: Sequence[int], out_width: int
) -> list[tuple[int, int]]:
    """(fan_in, fan_out) of each layer of a net with the given hidden widths."""
    widths = [in_width, *hidden, out_width]
    return list(zip(widths, widths[1:]))


def mlp_forward(layers: Sequence[tuple[Tensor, Tensor]], x: Tensor, head: str) -> Tensor:
    """Run a batch through tanh hidden layers and the requested output head."""
    if head not in HEADS:
        raise ValueError(f"unknown head {head!r}")
    h = x
    for weight, bias in layers[:-1]:
        h = affine(h, weight, bias).tanh()
    z = affine(h, *layers[-1])
    if head == "linear":
        return z
    if head == "logistic":
        return z.sigmoid()
    return z.softmax(axis=1)


def gradient_penalty(layers: Sequence[tuple[Tensor, Tensor]], x_hat: np.ndarray) -> Tensor:
    """Mean (||grad_x critic(x_hat)|| - 1)^2 over the rows of ``x_hat``, as
    one tape node whose parameter gradient is computed in closed form.

    ``layers`` is a critic with tanh hidden layers and a linear head of width
    1, layers l = 1..L with weights W_l and biases b_l.  With B rows:

    - Forward: h_0 = x_hat and h_l = tanh(h_{l-1} W_l + b_l) for l < L.
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

    The value equals what double backpropagation through the tape gives, bit
    for bit; the gradients agree to rounding.
    """
    weights = [w.data for w, _ in layers]
    if weights[-1].shape[1] != 1:
        raise ValueError(
            f"gradient penalty needs a critic head of width 1, got {weights[-1].shape[1]}"
        )
    depth = len(weights) - 1
    hs = [np.asarray(x_hat, dtype=np.float64)]
    for weight, (_, bias) in zip(weights[:-1], layers[:-1]):
        hs.append(np.tanh(_matmul(hs[-1], weight) + bias.data))
    rows = hs[0].shape[0]
    # r[l] and rho[l] of the docstring; slopes[l] = 1 - h_l^2
    r = [None] * depth + [np.broadcast_to(weights[-1][:, 0], (rows, weights[-1].shape[0]))]
    rho = [None] * (depth + 1)
    slopes = [None] + [1.0 - h * h for h in hs[1:]]
    for l in range(depth, 0, -1):
        rho[l] = r[l] * slopes[l]
        r[l - 1] = rho[l] @ weights[l - 1].T
    norm = np.sqrt((r[0] * r[0]).sum(axis=1, keepdims=True) + 1e-24)
    value = ((norm - 1.0) ** 2.0).sum() * (1.0 / float(rows))

    grad_w = [None] * (depth + 1)
    inject = [None] * (depth + 1)
    big_r = (2.0 / rows) * (norm - 1.0) / norm * r[0]
    for l in range(1, depth + 1):
        grad_w[l - 1] = big_r.T @ rho[l]
        q = big_r @ weights[l - 1]
        inject[l] = -2.0 * q * r[l] * hs[l]
        big_r = q * slopes[l]
    grad_w[depth] = big_r.sum(axis=0).reshape(-1, 1)
    grad_b = [None] * depth + [np.zeros(1)]
    g = 0.0
    for l in range(depth, 0, -1):
        a = (g + inject[l]) * slopes[l]
        grad_w[l - 1] += hs[l - 1].T @ a
        grad_b[l - 1] = a.sum(axis=0)
        if l > 1:
            g = a @ weights[l - 1].T

    params = [p for layer in layers for p in layer]
    grads = [gr for pair in zip(grad_w, grad_b) for gr in pair]
    return Tensor(value, params, vjp=lambda g, out: tuple(g * gr for gr in grads))


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
    """Adam with bias correction; ``beta1``, ``beta2`` and ``eps`` are fixed."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-4):
        self.params = list(params)
        self.lr = float(lr)
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads: Sequence[np.ndarray]) -> None:
        _check_finite(grads)
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for i, (p, g) in enumerate(zip(self.params, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g**2
            m_hat = self.m[i] / b1c
            v_hat = self.v[i] / b2c
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


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
    """Rebuild a ParamStore from :func:`save_params` output; returns metadata."""
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


def finite_difference(fn, params: Sequence[Tensor], step: float = 1e-5) -> list[np.ndarray]:
    """Central finite-difference gradient of scalar ``fn()`` in ``params``.

    Used by tests as the independent oracle against analytic gradients; it
    never touches the tape.
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
