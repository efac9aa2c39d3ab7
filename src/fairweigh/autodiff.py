"""Parameters and losses.

A :class:`Tensor` is either a parameter, an array that an optimizer updates
in place of its ``data``, or a loss: its value and the gradient of that value
for each parameter it depends on.  Nothing records a computation: every loss
gets its gradients in closed form when it is built (the fit loss from
:func:`fairweigh.nn.mlp_backward`, a critic's from
:func:`fairweigh.nn.critic_loss`), and :func:`backward` only reads them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor", "backward"]


class Tensor:
    """A parameter (``grads`` empty), or a loss whose ``grads`` map the id of
    each parameter it depends on to that parameter's gradient."""

    __slots__ = ("data", "grads")

    def __init__(self, data, grads: dict[int, np.ndarray] | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grads = {} if grads is None else grads


def backward(loss: Tensor, wrt) -> list[np.ndarray]:
    """Gradients of a scalar ``loss`` with respect to each parameter in
    ``wrt``, as arrays of the parameters' shapes (zero where it does not
    depend on one)."""
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    return [
        loss.grads[id(p)] if id(p) in loss.grads else np.zeros_like(p.data) for p in wrt
    ]
