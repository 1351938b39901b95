"""AdamW, global-norm gradient clipping, and the one training step every loop takes."""

from __future__ import annotations

import math

import numpy as np

from .autograd import Tensor
from .errors import ConfigurationError, TrainingDivergedError, UsageError


class AdamW:
    """Adam update with bias correction and decoupled weight decay.

    Moment buffers are keyed by parameter name and share each parameter's
    shape. ``step`` consumes gradients but never clears them; zeroing is a
    separate call so gradient accumulation stays under caller control.
    """

    def __init__(self, params: dict[str, Tensor], learning_rate: float = 3e-4,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8,
                 weight_decay: float = 0.01):
        if learning_rate <= 0.0:
            raise ConfigurationError(f"learning_rate must be positive, got {learning_rate}")
        if not (0.0 < beta1 < 1.0 and 0.0 < beta2 < 1.0):
            raise ConfigurationError(f"betas must lie in (0, 1), got ({beta1}, {beta2})")
        if epsilon <= 0.0:
            raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
        if weight_decay < 0.0:
            raise ConfigurationError(f"weight_decay must be non-negative, got {weight_decay}")
        self.params = dict(params)
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
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
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        for name, p in trainable.items():
            g = p.grad
            m = self.first_moment.get(name)
            v = self.second_moment.get(name)
            if m is None:
                m = np.zeros_like(p.data)
                v = np.zeros_like(p.data)
                self.first_moment[name] = m
                self.second_moment[name] = v
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / bc1
            v_hat = v / bc2
            p.data -= self.learning_rate * (m_hat / (np.sqrt(v_hat) + self.epsilon))
            if self.weight_decay > 0.0:
                p.data -= self.learning_rate * self.weight_decay * p.data

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


def clip_grad_norm(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most ``max_norm``.

    Returns the pre-clip norm. Parameters without gradients are skipped.
    """
    if max_norm <= 0.0:
        raise ConfigurationError(f"max_norm must be positive, got {max_norm}")
    total = 0.0
    grads = [p.grad for p in params.values() if p.requires_grad and p.grad is not None]
    for g in grads:
        total += float(np.sum(g.astype(np.float64) ** 2))
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm


def train_step(loss: Tensor, optimizer: AdamW, params: dict[str, Tensor], clip_norm: float,
               step: int, epoch: int) -> None:
    """Backward, clip and update; a non-finite loss raises before any gradient exists."""
    if not np.isfinite(loss.data):
        raise TrainingDivergedError(
            f"non-finite loss {float(loss.data)} at step {step} (epoch {epoch})")
    optimizer.zero_grad()
    loss.backward()
    clip_grad_norm(params, clip_norm)
    optimizer.step()
