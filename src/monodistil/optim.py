"""AdamW, global-norm gradient clipping, and the one training step every loop takes."""

from __future__ import annotations

import math

import numpy as np

from .autograd import Tensor, release_graph
from .errors import ConfigurationError, TrainingDivergedError, UsageError

# one recipe for every stage: pretrain, condition, distill and finetune
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8
CLIP_NORM = 1.0


class AdamW:
    """Adam update with bias correction and decoupled weight decay.

    Moment buffers are keyed by parameter name and share each parameter's
    shape. ``step`` consumes gradients but never clears them; zeroing is a
    separate call so gradient accumulation stays under caller control.
    """

    def __init__(self, params: dict[str, Tensor], learning_rate: float = 3e-4,
                 weight_decay: float = 0.01):
        if learning_rate <= 0.0:
            raise ConfigurationError(f"learning_rate must be positive, got {learning_rate}")
        if weight_decay < 0.0:
            raise ConfigurationError(f"weight_decay must be non-negative, got {weight_decay}")
        self.params = dict(params)
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.step_count = 0
        self.first_moment: dict[str, np.ndarray] = {}
        self.second_moment: dict[str, np.ndarray] = {}

    def step(self) -> None:
        """Apply one update to every trainable parameter with a gradient."""
        trainable = {n: p for n, p in self.params.items() if p.requires_grad}
        missing = [n for n, p in trainable.items() if p.grad is None]
        if missing:
            raise UsageError(f"optimizer step with missing gradients: {', '.join(sorted(missing))}")
        self.step_count += 1
        bc1 = 1.0 - BETA1 ** self.step_count
        bc2 = 1.0 - BETA2 ** self.step_count
        for name, p in trainable.items():
            g = p.grad
            m = self.first_moment.get(name)
            v = self.second_moment.get(name)
            if m is None:
                m = np.zeros_like(p.data)
                v = np.zeros_like(p.data)
                self.first_moment[name] = m
                self.second_moment[name] = v
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            m_hat = m / bc1
            v_hat = v / bc2
            p.data -= self.learning_rate * (m_hat / (np.sqrt(v_hat) + EPSILON))
            if self.weight_decay > 0.0:
                p.data -= self.learning_rate * self.weight_decay * p.data

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


def clip_grad_norm(params: dict[str, Tensor]) -> float:
    """Scale all gradients so their joint L2 norm is at most ``CLIP_NORM``.

    Returns the pre-clip norm. Parameters without gradients are skipped.
    """
    total = 0.0
    grads = [p.grad for p in params.values() if p.requires_grad and p.grad is not None]
    for g in grads:
        total += float(np.sum(np.square(g, dtype=np.float64)))
    norm = math.sqrt(total)
    if norm > CLIP_NORM:
        scale = CLIP_NORM / norm
        for g in grads:
            g *= scale
    return norm


def train_step(loss: Tensor, optimizer: AdamW, params: dict[str, Tensor], step: int,
               epoch: int) -> float:
    """Backward, clip, update and release the loss's tape; returns the pre-clip norm.

    A non-finite loss raises before any gradient exists.
    """
    if not np.isfinite(loss.data):
        raise TrainingDivergedError(
            f"non-finite loss {float(loss.data)} at step {step} (epoch {epoch})")
    optimizer.zero_grad()
    loss.backward()
    norm = clip_grad_norm(params)
    optimizer.step()
    release_graph(loss)
    return norm
