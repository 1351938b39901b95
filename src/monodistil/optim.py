"""AdamW, global-norm gradient clipping, and the one training step every loop takes."""

from __future__ import annotations

import math

import numpy as np

from .autograd import Tensor, release_graph
from .errors import ConfigurationError, TrainingDivergedError, UsageError

# one recipe for every stage: pretrain, condition, distill and finetune
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8
WEIGHT_DECAY = 0.01
CLIP_NORM = 1.0


class AdamW:
    """Adam update with bias correction and decoupled weight decay.

    The trainable set is fixed at construction: ``params`` keeps the given
    tensors whose ``requires_grad`` is set, in order. Their data become
    views into one flat buffer that the optimizer owns, and the moments, a
    gradient buffer and one scratch buffer are flat arrays of the same
    length, so a step is a few whole-buffer ops that allocate nothing. Each
    op keeps the textbook expression's order, so the update is
    bit-identical to a per-tensor one. ``first_moment`` and
    ``second_moment`` map each parameter name to its view. Freeze a tensor
    before building the optimizer: one frozen later gets no gradient, and
    ``step`` raises naming it. ``step`` consumes gradients but never clears
    them; zeroing is a separate call so gradient accumulation stays under
    caller control.
    """

    def __init__(self, params: dict[str, Tensor], learning_rate: float = 3e-4):
        if learning_rate <= 0.0:
            raise ConfigurationError(f"learning_rate must be positive, got {learning_rate}")
        self.params = {n: p for n, p in params.items() if p.requires_grad}
        if not self.params:
            raise UsageError("AdamW needs at least one parameter with requires_grad set")
        dtypes = {p.data.dtype for p in self.params.values()}
        if len(dtypes) > 1:
            raise UsageError(f"AdamW needs parameters of one dtype, got {sorted(map(str, dtypes))}")
        dtype = dtypes.pop()
        self.learning_rate = learning_rate
        self.step_count = 0
        bounds = np.cumsum([0] + [p.data.size for p in self.params.values()]).tolist()
        flat = [np.zeros(bounds[-1], dtype=dtype) for _ in range(5)]
        self._param, self._m, self._v, self._grad, self._scratch = flat
        self.first_moment: dict[str, np.ndarray] = {}
        self.second_moment: dict[str, np.ndarray] = {}
        for (name, p), lo, hi in zip(self.params.items(), bounds, bounds[1:]):
            view = self._param[lo:hi].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            self.first_moment[name] = self._m[lo:hi].reshape(view.shape)
            self.second_moment[name] = self._v[lo:hi].reshape(view.shape)

    def step(self) -> None:
        """Apply one update to every parameter; each must have a gradient."""
        missing = [n for n, p in self.params.items() if p.grad is None]
        if missing:
            raise UsageError(f"optimizer step with missing gradients: {', '.join(sorted(missing))}")
        self.step_count += 1
        bc1 = 1.0 - BETA1 ** self.step_count
        bc2 = 1.0 - BETA2 ** self.step_count
        w, m, v, g, s = self._param, self._m, self._v, self._grad, self._scratch
        np.concatenate([p.grad.reshape(-1) for p in self.params.values()], out=g)
        # m = BETA1*m + (1-BETA1)*g; v = BETA2*v + (1-BETA2)*g*g
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=s)
        v *= BETA2
        np.multiply(g, 1.0 - BETA2, out=s)
        v += np.multiply(s, g, out=s)
        # w -= lr * ((m / bc1) / (sqrt(v / bc2) + EPSILON)); then w -= lr * WEIGHT_DECAY * w.
        # g is spent once v holds it, so its buffer takes the denominator
        np.divide(m, bc1, out=s)
        np.sqrt(np.divide(v, bc2, out=g), out=g)
        s /= np.add(g, EPSILON, out=g)
        w -= np.multiply(s, self.learning_rate, out=s)
        w -= np.multiply(w, self.learning_rate * WEIGHT_DECAY, out=s)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


def clip_grad_norm(params: dict[str, Tensor]) -> float:
    """Scale all gradients so their joint L2 norm is at most ``CLIP_NORM``.

    Returns the pre-clip norm. Parameters without gradients are skipped.
    Each gradient's float64 square-sum is taken on its own, as one sum over
    the whole gradient buffer would round differently.
    """
    total = 0.0
    grads = [p.grad for p in params.values() if p.requires_grad and p.grad is not None]
    for g in grads:
        total += float(np.square(g, dtype=np.float64).sum())
    norm = math.sqrt(total)
    if norm > CLIP_NORM:
        scale = CLIP_NORM / norm
        for g in grads:
            g *= scale
    return norm


def train_step(loss: Tensor, optimizer: AdamW, step: int, epoch: int) -> float:
    """Backward, clip ``optimizer.params``, update and release the loss's tape;
    returns the pre-clip norm.

    A non-finite loss raises before any gradient exists.
    """
    if not np.isfinite(loss.data):
        raise TrainingDivergedError(
            f"non-finite loss {float(loss.data)} at step {step} (epoch {epoch})")
    optimizer.zero_grad()
    loss.backward()
    norm = clip_grad_norm(optimizer.params)
    optimizer.step()
    release_graph(loss)
    return norm
