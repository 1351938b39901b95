"""Losses and distribution helpers used by pretraining and distillation."""

from __future__ import annotations

import numpy as np

from .autograd import Tensor, gather_rows, log_softmax, take_index
from .errors import DimensionError, NoMaskedPositionsError


def kl_divergence(p_logits: Tensor, q_logits: Tensor, temperature: float = 1.0) -> Tensor:
    """KL(p || q) between tempered softmax distributions, as a scalar tensor.

    Computed in log space as sum_i p_i * (log p_i - log q_i) over the final
    (vocabulary) axis, then averaged over all remaining axes. Non-negative
    up to roundoff, and exactly zero when both logit tensors are equal.
    """
    if p_logits.shape != q_logits.shape:
        raise DimensionError(
            f"kl_divergence needs identical shapes, got {p_logits.shape} and {q_logits.shape}")
    lp = log_softmax(p_logits, temperature=temperature, axis=-1)
    lq = log_softmax(q_logits, temperature=temperature, axis=-1)
    p = lp.exp()
    return (p * (lp - lq)).sum(axis=-1).reshape(-1).mean()


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-softmax probability of ``targets`` over [N, C] rows."""
    if logits.ndim != 2:
        raise DimensionError(f"cross_entropy expects [N, C] logits, got {logits.shape}")
    targets = np.asarray(targets)
    if targets.shape != (logits.shape[0],):
        raise DimensionError(
            f"targets shape {targets.shape} does not match logits rows {logits.shape}")
    log_probs = log_softmax(logits, axis=-1)
    picked = take_index(log_probs, targets)
    return -picked.mean()


def cross_entropy_masked(logits: Tensor, targets: np.ndarray, mask: np.ndarray) -> Tensor:
    """Masked-token cross entropy, averaged over supervised positions only.

    ``logits`` is [batch, seq, vocab]; ``targets`` holds gold token ids and
    ``mask`` is true exactly where the loss applies. Raises when the mask
    selects nothing rather than returning a silent zero.
    """
    mask = np.asarray(mask, dtype=bool)
    targets = np.asarray(targets)
    if mask.shape != logits.shape[:-1]:
        raise DimensionError(f"mask shape {mask.shape} does not match logits {logits.shape}")
    if targets.shape != mask.shape:
        raise DimensionError(f"targets shape {targets.shape} does not match mask {mask.shape}")
    if not mask.any():
        raise NoMaskedPositionsError("no supervised positions: mask selects zero elements")
    rows = gather_rows(logits, mask)
    return cross_entropy(rows, targets[mask])

