"""Update-rule oracles for the decoupled-weight-decay optimizer and clipping."""

import gc
import math

import numpy as np
import pytest

from monodistil import distill, harness, optim
from monodistil.autograd import Tensor
from monodistil.distill import DistillConfig, distill_run, pretrain_mlm
from monodistil.errors import UsageError
from monodistil.harness import TaskSpec, finetune
from monodistil.losses import cross_entropy
from monodistil.model import EncoderConfig, forward_mlm, init_random
from monodistil.optim import (BETA1, BETA2, CLIP_NORM, EPSILON, AdamW, clip_grad_norm,
                              train_step)


def _param(value, shape=()):
    t = Tensor(np.full(shape, value, dtype=np.float32), requires_grad=True)
    return t


def test_zero_grad_zero_decay_leaves_parameters_unchanged(monkeypatch):
    monkeypatch.setattr(optim, "WEIGHT_DECAY", 0.0)
    p = _param(1.5, (3,))
    opt = AdamW({"p": p}, learning_rate=0.1)
    p.grad = np.zeros_like(p.data)
    opt.step()
    np.testing.assert_array_equal(p.data, np.full((3,), 1.5, dtype=np.float32))


def test_first_step_moves_by_learning_rate(monkeypatch):
    monkeypatch.setattr(optim, "WEIGHT_DECAY", 0.0)
    p = _param(1.0)
    opt = AdamW({"p": p}, learning_rate=0.1)
    p.grad = np.ones_like(p.data)
    opt.step()
    # bias-corrected Adam with eps 1e-8: first step is lr within ~1e-7 relative
    assert abs((1.0 - float(p.data)) - 0.1) < 1e-6


def test_decay_shrinks_magnitude_with_zero_grad(monkeypatch):
    monkeypatch.setattr(optim, "WEIGHT_DECAY", 0.5)
    for sign in (+1.0, -1.0):
        p = _param(sign * 2.0)
        opt = AdamW({"p": p}, learning_rate=0.05)
        p.grad = np.zeros_like(p.data)
        opt.step()
        assert abs(float(p.data)) < 2.0
        assert np.sign(float(p.data)) == sign


def test_missing_grad_is_an_error_naming_the_parameter():
    p, q = _param(0.0), _param(0.0)
    opt = AdamW({"alpha": p, "beta": q}, learning_rate=0.1)
    p.grad = np.ones_like(p.data)
    with pytest.raises(UsageError, match="beta"):
        opt.step()


def test_step_count_increments_and_grads_survive_step():
    p = _param(1.0, (2,))
    opt = AdamW({"p": p}, learning_rate=0.01)
    p.grad = np.ones_like(p.data)
    opt.step()
    assert opt.step_count == 1
    np.testing.assert_array_equal(p.grad, np.ones_like(p.data))
    opt.step()
    assert opt.step_count == 2
    opt.zero_grad()
    assert p.grad is None


# 0.3 as well: at 0.5 a reordered decay product rounds alike
@pytest.mark.parametrize("weight_decay", [0.0, 0.5, 0.3])
def test_in_place_update_matches_the_textbook_formula_bit_for_bit(monkeypatch, weight_decay):
    monkeypatch.setattr(optim, "WEIGHT_DECAY", weight_decay)
    rng = np.random.Generator(np.random.PCG64(11))
    shapes = [(), (1,), (7,), (5, 3), (4, 2, 3), (64, 48)]
    params = {f"p{i}": Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True)
              for i, s in enumerate(shapes)}
    want = {n: p.data.copy() for n, p in params.items()}
    moments = {n: (np.zeros_like(w), np.zeros_like(w)) for n, w in want.items()}
    lr = 0.03
    opt = AdamW(params, learning_rate=lr)
    for step in range(1, 6):
        for name, p in params.items():
            p.grad = rng.standard_normal(p.shape).astype(np.float32)
        opt.step()
        bc1, bc2 = 1.0 - BETA1 ** step, 1.0 - BETA2 ** step
        for name, p in params.items():
            g, (m, v), w = p.grad, moments[name], want[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            w -= lr * ((m / bc1) / (np.sqrt(v / bc2) + EPSILON))
            if weight_decay > 0.0:
                w -= lr * weight_decay * w
    for name, p in params.items():
        assert p.data.dtype == np.float32
        np.testing.assert_array_equal(p.data, want[name], err_msg=name)
        np.testing.assert_array_equal(opt.first_moment[name], moments[name][0], err_msg=name)
        np.testing.assert_array_equal(opt.second_moment[name], moments[name][1], err_msg=name)


def test_loss_scale_invariance_of_update_direction(monkeypatch):
    """Scaling every gradient by a constant barely moves an Adam step."""
    monkeypatch.setattr(optim, "WEIGHT_DECAY", 0.0)

    def one_step(scale):
        p = _param(1.0, (4,))
        opt = AdamW({"p": p}, learning_rate=0.1)
        rng = np.random.Generator(np.random.PCG64(5))
        p.grad = (rng.standard_normal(4) * scale).astype(np.float32)
        opt.step()
        return p.data.copy()

    np.testing.assert_allclose(one_step(1.0), one_step(100.0), atol=1e-5)


def test_clip_grad_norm_rescales_to_the_ceiling():
    p = _param(0.0, (3,))
    q = _param(0.0, (2,))
    p.grad = np.full((3,), 2.0, dtype=np.float32)
    q.grad = np.full((2,), 2.0, dtype=np.float32)
    total = float(np.sqrt(5 * 4.0))
    returned = clip_grad_norm({"p": p, "q": q})
    assert abs(returned - total) < 1e-5
    clipped = float(np.sqrt((p.grad ** 2).sum() + (q.grad ** 2).sum()))
    assert abs(clipped - 1.0) < 1e-5


def test_clip_grad_norm_leaves_small_gradients_alone():
    p = _param(0.0, (2,))
    p.grad = np.full((2,), 0.1, dtype=np.float32)
    before = p.grad.copy()
    clip_grad_norm({"p": p})
    np.testing.assert_array_equal(p.grad, before)


def _clip_per_tensor_squares(params: dict) -> tuple[float, list[np.ndarray]]:
    """Pre-clip norm and clipped gradients with a fresh float64 square per tensor."""
    grads = [p.grad.copy() for p in params.values() if p.requires_grad and p.grad is not None]
    total = 0.0
    for g in grads:
        total += float(np.sum(np.square(g, dtype=np.float64)))
    norm = math.sqrt(total)
    if norm > CLIP_NORM:
        for g in grads:
            g *= CLIP_NORM / norm
    return norm, grads


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0])
def test_clip_grad_norm_matches_the_per_tensor_formula_bit_for_bit(seed, scale):
    # one float64 sum over all the squares reads a different norm at
    # seed 3, scale 1e-3
    rng = np.random.default_rng(seed)
    shapes = {"embedding": (252, 64), "gain": (64,), "frozen": (16, 8), "weight": (64, 256),
              "no_grad_yet": (3,)}
    params = {name: _param(0.0, shape) for name, shape in shapes.items()}
    for name, p in params.items():
        p.grad = (rng.standard_normal(p.shape) * scale).astype(np.float32)
    params["frozen"].requires_grad = False
    params["no_grad_yet"].grad = None
    norm, expected = _clip_per_tensor_squares(params)
    assert clip_grad_norm(params) == norm
    got = [p.grad for p in params.values() if p.requires_grad and p.grad is not None]
    for g, e in zip(got, expected, strict=True):
        assert np.array_equal(g.view(np.uint32), e.view(np.uint32))


def test_train_step_returns_the_pre_clip_norm():
    p = Tensor(np.array([3.0, 4.0], dtype=np.float32), requires_grad=True)
    loss = (p * p).sum()
    norm = train_step(loss, AdamW({"p": p}, learning_rate=0.1), 1, 1)
    # gradient 2p = [6, 8]: norm 10 before clipping, 1 after
    assert norm == pytest.approx(10.0)
    assert np.linalg.norm(p.grad) == pytest.approx(1.0)


def test_train_step_frees_its_tape_without_the_cyclic_gc():
    cfg = EncoderConfig(hidden_dim=16, intermediate_size=32, num_layers=1, num_heads=2,
                        max_positions=8, vocab_size=30)
    model = init_random(cfg, seed=0)
    optimizer = AdamW(model.params)
    rng = np.random.Generator(np.random.PCG64(0))
    ids = rng.integers(0, cfg.vocab_size, size=(2, 6))
    mask = np.ones((2, 6), dtype=np.int64)
    gc.collect()
    gc.disable()
    try:
        for step in range(1, 4):
            logits = forward_mlm(model, ids, mask).reshape(-1, cfg.vocab_size)
            train_step(cross_entropy(logits, ids.reshape(-1)), optimizer, step, 1)
        # reference counting alone freed every step's graph: no cycles are left
        assert gc.collect() == 0
    finally:
        gc.enable()


class PerTensorAdamW(AdamW):
    """The per-tensor update that the flat store replaced, kept as its reference."""

    def step(self) -> None:
        self.step_count += 1
        bc1 = 1.0 - BETA1 ** self.step_count
        bc2 = 1.0 - BETA2 ** self.step_count
        for name, p in self.params.items():
            g, m, v = p.grad, self.first_moment[name], self.second_moment[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            m_hat = m / bc1
            v_hat = v / bc2
            p.data -= self.learning_rate * (m_hat / (np.sqrt(v_hat) + EPSILON))
            p.data -= self.learning_rate * optim.WEIGHT_DECAY * p.data


def _recording(base, made):
    """``base`` that records each optimizer it makes."""
    class Recording(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)
    return Recording


def _assert_twins_equal(flat, per_tensor, flat_params, per_tensor_params):
    assert flat.step_count == per_tensor.step_count > 4
    assert set(flat_params) == set(per_tensor_params)
    for name in per_tensor_params:
        np.testing.assert_array_equal(flat_params[name].data, per_tensor_params[name].data,
                                      err_msg=name)
    assert set(flat.first_moment) == set(per_tensor.first_moment)
    for name in per_tensor.first_moment:
        np.testing.assert_array_equal(flat.first_moment[name], per_tensor.first_moment[name],
                                      err_msg=name)
        np.testing.assert_array_equal(flat.second_moment[name], per_tensor.second_moment[name],
                                      err_msg=name)


def test_flat_store_matches_the_per_tensor_update_in_pretraining(
        monkeypatch, tiny_cfg, small_bundle, small_vocab):
    cfg = DistillConfig(epochs=2, batch_size=8, max_len=16, seed=0)
    runs = []
    for base in (AdamW, PerTensorAdamW):
        made = []
        monkeypatch.setattr(distill, "AdamW", _recording(base, made))
        model, _ = pretrain_mlm(tiny_cfg, small_bundle.lang_a, cfg, small_vocab)
        runs.append((made[0], model.params))
    (flat, flat_params), (per_tensor, per_tensor_params) = runs
    _assert_twins_equal(flat, per_tensor, flat_params, per_tensor_params)


def test_flat_store_matches_the_per_tensor_update_in_copy_and_freeze_distillation(
        monkeypatch, tiny_cfg, small_bundle, small_vocab):
    teacher = init_random(tiny_cfg, seed=5)
    cfg = DistillConfig(epochs=2, batch_size=8, max_len=16, seed=0)
    runs = []
    for base in (AdamW, PerTensorAdamW):
        made = []
        monkeypatch.setattr(distill, "AdamW", _recording(base, made))
        student, _ = distill_run(teacher, tiny_cfg, small_bundle.lang_a, cfg, small_vocab,
                                 init_from_teacher="copy_and_freeze")
        runs.append((made[0], student.params))
    (flat, flat_params), (per_tensor, per_tensor_params) = runs
    # the embeddings were frozen before the optimizer was built: it holds no slot for them
    frozen = {"token_embedding", "position_embedding"}
    assert frozen.isdisjoint(flat.params) and frozen.isdisjoint(per_tensor.params)
    for name in frozen:
        np.testing.assert_array_equal(flat_params[name].data, teacher[name].data)
    _assert_twins_equal(flat, per_tensor, flat_params, per_tensor_params)


def test_flat_store_matches_the_per_tensor_update_in_finetuning(
        monkeypatch, tiny_model, small_vocab, bundle_files):
    task = TaskSpec("polarity", "classification", bundle_files["cls_train"],
                    bundle_files["cls_eval"], epochs=1, batch_size=16, max_len=16)
    runs = []
    for base in (AdamW, PerTensorAdamW):
        made = []
        monkeypatch.setattr(harness, "AdamW", _recording(base, made))
        finetune(tiny_model, task, small_vocab, "m")
        runs.append((made[0], made[0].params))
    (flat, flat_params), (per_tensor, per_tensor_params) = runs
    assert "head_weight" in flat_params
    _assert_twins_equal(flat, per_tensor, flat_params, per_tensor_params)


def _three_params(seed: int) -> dict[str, Tensor]:
    rng = np.random.Generator(np.random.PCG64(seed))
    return {n: Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True)
            for n, s in (("a", (3, 2)), ("b", (4,)), ("c", ()))}


def test_parameters_are_views_into_one_buffer():
    params = _three_params(2)
    frozen = Tensor(np.ones(5, dtype=np.float32))
    values = {n: p.data.copy() for n, p in params.items()}
    opt = AdamW({**params, "frozen": frozen}, learning_rate=0.1)
    # the store is built at construction, holding the trainable tensors' values
    assert list(opt.params) == ["a", "b", "c"]
    buffers = {id(np.asarray(p.data).base) for p in params.values()}
    assert len(buffers) == 1 and None not in buffers
    assert frozen.data.base is None
    for name, p in params.items():
        np.testing.assert_array_equal(p.data, values[name])
    for p in params.values():
        p.grad = np.ones_like(p.data)
    opt.step()
    assert all(np.all(p.data < values[n]) for n, p in params.items())
    assert params["a"].data.base is params["c"].data.base


def test_freezing_after_construction_fails_naming_the_tensor():
    params = _three_params(3)
    opt = AdamW(params, learning_rate=0.1)
    params["b"].requires_grad = False
    loss = sum(((p * p).sum() for p in params.values()), Tensor(np.zeros((), np.float32)))
    with pytest.raises(UsageError, match="missing gradients: b$"):
        train_step(loss, opt, 1, 1)
    assert opt.step_count == 0


def test_mixed_dtypes_are_rejected():
    params = {"a": _param(1.0, (2,)), "b": _param(1.0, (2,))}
    params["b"].data = np.ones(2, dtype=np.float64)
    with pytest.raises(UsageError, match="one dtype"):
        AdamW(params)


@pytest.mark.parametrize("params", [{}, {"frozen": Tensor(np.ones(2, dtype=np.float32))}],
                         ids=["no-tensors", "all-frozen"])
def test_an_empty_trainable_set_is_rejected_at_construction(params):
    with pytest.raises(UsageError, match="at least one parameter"):
        AdamW(params)
