"""Scalar oracles and distribution-level properties for the loss functions."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from monodistil.autograd import Tensor, softmax
from monodistil.errors import DimensionError, NoMaskedPositionsError
from monodistil.losses import cross_entropy, cross_entropy_masked, kl_divergence


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def test_softmax_symmetry_case():
    out = softmax(Tensor(np.array([0.0, 0.0], dtype=np.float32)), temperature=1.0)
    np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-7)


def test_softmax_scalar_oracle():
    out = softmax(Tensor(np.array([1.0, 2.0], dtype=np.float32)), temperature=1.0)
    np.testing.assert_allclose(out.data, [0.26894, 0.73106], atol=1e-5)


def test_softmax_high_temperature_approaches_uniform():
    out = softmax(Tensor(np.array([1.0, 2.0], dtype=np.float32)), temperature=1000.0)
    np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-3)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.floats(min_value=0.25, max_value=20.0))
def test_temperature_never_lowers_entropy(seed, factor):
    logits = Tensor(_rng(seed).standard_normal((8,)).astype(np.float32) * 3)
    cool = softmax(logits, temperature=1.0).data.astype(np.float64)
    warm = softmax(logits, temperature=1.0 + factor).data.astype(np.float64)

    def entropy(p):
        p = np.clip(p, 1e-12, 1.0)
        return float(-(p * np.log(p)).sum())

    assert entropy(warm) >= entropy(cool) - 1e-7


def test_kl_of_identical_logits_is_zero():
    x = Tensor(_rng(1).standard_normal((4, 7)).astype(np.float32) * 2)
    assert abs(kl_divergence(x, x, 1.0).item()) < 1e-7


def test_kl_scalar_oracle():
    p = Tensor(np.log(np.array([0.5, 0.5], dtype=np.float32)))
    q = Tensor(np.log(np.array([0.25, 0.75], dtype=np.float32)))
    expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert abs(kl_divergence(p, q, 1.0).item() - expected) < 1e-6
    assert abs(expected - 0.14384) < 5e-6


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_kl_non_negative(seed):
    gen = _rng(seed)
    p = Tensor(gen.standard_normal((3, 9)).astype(np.float32) * 4)
    q = Tensor(gen.standard_normal((3, 9)).astype(np.float32) * 4)
    assert kl_divergence(p, q, 2.0).item() >= -1e-7


def test_kl_shape_mismatch():
    with pytest.raises(DimensionError):
        kl_divergence(Tensor(np.zeros((2, 3), dtype=np.float32)),
                      Tensor(np.zeros((2, 4), dtype=np.float32)))


def test_cross_entropy_uniform_logits_equals_log_vocab():
    vocab = 11
    logits = Tensor(np.zeros((6, vocab), dtype=np.float32))
    ce = cross_entropy(logits, np.arange(6) % vocab)
    assert abs(ce.item() - math.log(vocab)) < 1e-6


def test_cross_entropy_dominant_logit_drives_loss_to_zero():
    logits = np.zeros((1, 4), dtype=np.float32)
    logits[0, 2] = 30.0
    assert cross_entropy(Tensor(logits), np.array([2])).item() < 1e-6


def test_cross_entropy_scalar_oracle():
    logits = Tensor(np.array([[0.0, math.log(3.0)]], dtype=np.float32))
    ce = cross_entropy(logits, np.array([1]))
    assert abs(ce.item() - (-math.log(0.75))) < 1e-6
    assert abs(-math.log(0.75) - 0.28768) < 5e-6


def test_cross_entropy_masked_averages_masked_positions_only():
    gen = _rng(2)
    logits_data = gen.standard_normal((2, 5, 7)).astype(np.float32)
    targets = gen.integers(0, 7, size=(2, 5))
    mask = np.zeros((2, 5), dtype=bool)
    mask[0, 1] = mask[1, 4] = True

    full = cross_entropy_masked(Tensor(logits_data), targets, mask).item()
    rows = Tensor(logits_data[mask])
    direct = cross_entropy(rows, targets[mask]).item()
    assert abs(full - direct) < 1e-7

    # shifting logits at unmasked positions must not move the loss
    perturbed = logits_data.copy()
    perturbed[~mask] += 5.0
    again = cross_entropy_masked(Tensor(perturbed), targets, mask).item()
    assert abs(full - again) < 1e-7


def test_cross_entropy_masked_empty_mask_raises():
    logits = Tensor(np.zeros((1, 3, 4), dtype=np.float32))
    with pytest.raises(NoMaskedPositionsError, match="no supervised positions"):
        cross_entropy_masked(logits, np.zeros((1, 3), dtype=int),
                             np.zeros((1, 3), dtype=bool))

