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

    The trainable parameters' data become views into one flat buffer that
    the optimizer owns, and the moments, a gradient buffer and two scratch
    buffers are flat arrays of the same length, so a step is a few
    whole-buffer ops that allocate nothing. Each op keeps the textbook
    expression's order, so the update is bit-identical to a per-tensor one.
    ``first_moment`` and ``second_moment`` map each parameter name to its
    view. The store is rebuilt, moments carried over by name, whenever the
    trainable set changes or a parameter's data is replaced. ``step``
    consumes gradients but never clears them; zeroing is a separate call so
    gradient accumulation stays under caller control.
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
        self._names: tuple[str, ...] = ()
        self._views: list[np.ndarray] = []

    def _build_store(self, trainable: dict[str, Tensor]) -> None:
        dtypes = {p.data.dtype for p in trainable.values()}
        if len(dtypes) > 1:
            raise UsageError(f"AdamW needs parameters of one dtype, got {sorted(map(str, dtypes))}")
        dtype = dtypes.pop()
        bounds = np.cumsum([0] + [p.data.size for p in trainable.values()]).tolist()
        flat = [np.zeros(bounds[-1], dtype=dtype) for _ in range(6)]
        self._param, self._m, self._v, self._grad, self._s1, self._s2 = flat
        self._views = []
        for (name, p), lo, hi in zip(trainable.items(), bounds, bounds[1:]):
            view = self._param[lo:hi].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            self._views.append(view)
            for moments, buffer in ((self.first_moment, self._m), (self.second_moment, self._v)):
                moment = buffer[lo:hi].reshape(view.shape)
                if name in moments:
                    moment[...] = moments[name]
                moments[name] = moment
        self._names = tuple(trainable)

    def step(self) -> None:
        """Apply one update to every trainable parameter with a gradient."""
        trainable = {n: p for n, p in self.params.items() if p.requires_grad}
        missing = [n for n, p in trainable.items() if p.grad is None]
        if missing:
            raise UsageError(f"optimizer step with missing gradients: {', '.join(sorted(missing))}")
        self.step_count += 1
        if not trainable:
            return
        if tuple(trainable) != self._names or any(
                p.data is not view for p, view in zip(trainable.values(), self._views)):
            self._build_store(trainable)
        bc1 = 1.0 - BETA1 ** self.step_count
        bc2 = 1.0 - BETA2 ** self.step_count
        w, m, v, g, s1, s2 = self._param, self._m, self._v, self._grad, self._s1, self._s2
        np.concatenate([p.grad.reshape(-1) for p in trainable.values()], out=g)
        # m = BETA1*m + (1-BETA1)*g; v = BETA2*v + (1-BETA2)*g*g
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=s1)
        v *= BETA2
        np.multiply(g, 1.0 - BETA2, out=s1)
        v += np.multiply(s1, g, out=s1)
        # w -= lr * ((m / bc1) / (sqrt(v / bc2) + EPSILON))
        np.divide(m, bc1, out=s1)
        np.sqrt(np.divide(v, bc2, out=s2), out=s2)
        s1 /= np.add(s2, EPSILON, out=s2)
        w -= np.multiply(s1, self.learning_rate, out=s1)
        if self.weight_decay > 0.0:
            w -= np.multiply(w, self.learning_rate * self.weight_decay, out=s1)

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
