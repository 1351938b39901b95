"""Tape mechanics, broadcasting, and gradient verification for the tensor core."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from monodistil import autograd
from monodistil.autograd import (Tensor, constant, dropout, embedding,
                                 finite_difference_check, gather_positions, gather_rows,
                                 layer_norm,
                                 log_softmax, matmul, no_grad, precision, select,
                                 slice_leading, softmax, take_index)
from monodistil.errors import ConfigurationError, DimensionError, UsageError


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def test_matmul_identity():
    eye = Tensor(np.eye(2, dtype=np.float32))
    m = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32))
    np.testing.assert_array_equal(matmul(eye, m).data, m.data)


def test_matmul_hand_computed():
    a = Tensor(np.array([[1.0, 2.0]], dtype=np.float32))
    b = Tensor(np.array([[3.0], [4.0]], dtype=np.float32))
    assert matmul(a, b).data.tolist() == [[11.0]]


def test_matmul_zero_annihilates():
    z = Tensor(np.zeros((3, 4), dtype=np.float32))
    m = Tensor(_rng(1).standard_normal((4, 2)).astype(np.float32))
    np.testing.assert_array_equal(matmul(z, m).data, np.zeros((3, 2), dtype=np.float32))


def test_matmul_shape_mismatch_names_both_shapes():
    a = Tensor(np.zeros((2, 3), dtype=np.float32))
    b = Tensor(np.zeros((4, 2), dtype=np.float32))
    with pytest.raises(DimensionError) as err:
        matmul(a, b)
    assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)


def _weight_gradient(a: np.ndarray, w: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """dL/dw of ``sum(matmul(a, w) * upstream)``, so that matmul's output
    gradient is exactly ``upstream``."""
    weight = Tensor(w, requires_grad=True)
    (matmul(Tensor(a, requires_grad=True), weight) * constant(upstream)).sum().backward()
    return weight.grad


@pytest.mark.parametrize("rows", [2, 3, 7, 32])
def test_stacked_weight_gradient_with_several_rows_keeps_its_summation(rows):
    """Masked-row MLM blocks have m >= 2 rows: their weight gradient is still
    the per-matrix product summed over the batch, bit for bit."""
    rng = _rng(rows)
    a = rng.standard_normal((8, rows, 64)).astype(np.float32)
    w = rng.standard_normal((64, 32)).astype(np.float32)
    g = rng.standard_normal((8, rows, 32)).astype(np.float32)
    want = np.matmul(np.swapaxes(a, -1, -2), g).sum(axis=0)
    np.testing.assert_array_equal(_weight_gradient(a, w, g), want)


@pytest.mark.parametrize("lead, inner, outer", [((16,), 256, 64), ((16,), 64, 256),
                                                ((2, 3), 16, 8)],
                         ids=["16x256x64", "16x64x256", "2x3x16x8"])
def test_one_row_weight_gradient_matches_a_float64_reference(lead, inner, outer):
    """One row per stacked matrix (the CLS query path) takes a single GEMM."""
    rng = _rng(inner)
    a = rng.standard_normal((*lead, 1, inner)).astype(np.float32)
    w = rng.standard_normal((inner, outer)).astype(np.float32)
    g = rng.standard_normal((*lead, 1, outer)).astype(np.float32)
    got = _weight_gradient(a, w, g)
    want = a.reshape(-1, inner).astype(np.float64).T @ g.reshape(-1, outer).astype(np.float64)
    assert got.dtype == np.float32 and got.shape == w.shape
    assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))


def test_backward_of_sum_is_ones():
    x = Tensor(_rng(2).standard_normal((3, 5)).astype(np.float32), requires_grad=True)
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones_like(x.data))


def test_backward_of_sum_of_squares():
    x = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
    (x * x).sum().backward()
    np.testing.assert_allclose(x.grad, [2.0, 4.0], rtol=1e-6)


def test_backward_accumulates_until_zeroed():
    x = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
    (x * x).sum().backward()
    first = x.grad.copy()
    (x * x).sum().backward()
    np.testing.assert_allclose(x.grad, 2.0 * first, rtol=1e-6)
    x.zero_grad()
    assert x.grad is None


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    with pytest.raises(UsageError):
        (x * x).backward()


def test_backward_requires_graph():
    x = Tensor(np.zeros((), dtype=np.float32), requires_grad=True)
    with pytest.raises(UsageError):
        x.backward()


def test_no_grad_blocks_taping():
    x = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
    with no_grad():
        y = (x * x).sum()
    assert not y.requires_grad
    with pytest.raises(UsageError):
        y.backward()


def test_precision_context_controls_new_tensors():
    with precision(np.float64):
        assert Tensor(np.zeros(2)).data.dtype == np.float64
    assert Tensor(np.zeros(2)).data.dtype == np.float32


def test_broadcast_add_unbroadcasts_gradient():
    a = Tensor(_rng(3).standard_normal((4, 3)).astype(np.float32), requires_grad=True)
    b = Tensor(_rng(4).standard_normal((3,)).astype(np.float32), requires_grad=True)
    (a + b).sum().backward()
    np.testing.assert_array_equal(a.grad, np.ones((4, 3), dtype=np.float32))
    np.testing.assert_array_equal(b.grad, np.full((3,), 4.0, dtype=np.float32))


def test_shared_subgraph_gradient_adds_up():
    x = Tensor(np.array([3.0], dtype=np.float32), requires_grad=True)
    y = x * 2.0
    ((y * y).sum() + y.sum()).backward()
    # d/dx (4x^2 + 2x) = 8x + 2 = 26 at x=3
    np.testing.assert_allclose(x.grad, [26.0], rtol=1e-6)


def test_division_by_tensor_rejected():
    x = Tensor(np.ones(2, dtype=np.float32))
    with pytest.raises(UsageError):
        _ = x / x


def test_dropout_rate_validation_and_identity():
    x = Tensor(np.ones((2, 2), dtype=np.float32))
    assert dropout(x, 0.0, _rng(0)) is x
    assert dropout(x, 0.5, None) is x
    with pytest.raises(ConfigurationError):
        dropout(x, 1.0, _rng(0))


def test_dropout_scales_by_keep_probability():
    x = Tensor(np.ones((200, 50), dtype=np.float32), requires_grad=True)
    out = dropout(x, 0.25, _rng(7))
    kept = out.data[out.data > 0]
    np.testing.assert_allclose(kept, 1.0 / 0.75, rtol=1e-6)
    drop_rate = 1.0 - kept.size / x.size
    assert abs(drop_rate - 0.25) < 3 * np.sqrt(0.25 * 0.75 / x.size)


def test_finite_difference_sum_of_squares():
    x = Tensor(_rng(5).standard_normal((3, 4)).astype(np.float32))
    assert finite_difference_check(lambda t: (t * t).sum(), x) < 1e-4


def test_finite_difference_linear_is_near_exact():
    w = _rng(6).standard_normal((4, 1)).astype(np.float32)
    x = Tensor(_rng(7).standard_normal((2, 4)).astype(np.float32))
    fn = lambda t: matmul(t, constant(w)).sum()
    assert finite_difference_check(fn, x) < 1e-6


def test_finite_difference_softmax_cross_entropy_pipeline():
    from monodistil.losses import cross_entropy

    targets = np.array([1, 0, 3])
    x = Tensor(_rng(8).standard_normal((3, 5)).astype(np.float32))
    assert finite_difference_check(lambda t: cross_entropy(t, targets), x) < 1e-3


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_softmax_rows_sum_to_one(seed):
    x = Tensor(_rng(seed).standard_normal((4, 9)).astype(np.float32) * 5)
    out = softmax(x)
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.floats(min_value=0.1, max_value=50.0))
def test_temperature_preserves_argmax(seed, temperature):
    x = Tensor(_rng(seed).standard_normal((6, 7)).astype(np.float32) * 3)
    out = softmax(x, temperature=temperature)
    np.testing.assert_array_equal(out.data.argmax(axis=-1), x.data.argmax(axis=-1))


def test_log_softmax_matches_log_of_softmax():
    x = Tensor(_rng(9).standard_normal((3, 8)).astype(np.float32) * 4)
    np.testing.assert_allclose(log_softmax(x).data, np.log(softmax(x).data),
                               atol=1e-6)


def test_gather_rows_forward_and_mask_validation():
    x = Tensor(np.arange(12, dtype=np.float32).reshape(2, 3, 2))
    mask = np.array([[True, False, True], [False, False, True]])
    out = gather_rows(x, mask)
    np.testing.assert_array_equal(out.data, x.data[mask])
    with pytest.raises(DimensionError):
        gather_rows(x, np.ones((2, 2), dtype=bool))


def test_gather_positions_forward_backward_and_validation():
    x = Tensor(_rng(12).standard_normal((2, 4, 3)).astype(np.float32), requires_grad=True)
    positions = np.array([[0, 3, 3], [2, 1, 0]])
    out = gather_positions(x, positions)
    np.testing.assert_array_equal(out.data, np.stack([x.data[0, [0, 3, 3]],
                                                      x.data[1, [2, 1, 0]]]))
    out.sum().backward()
    expected = np.zeros((2, 4, 3), dtype=np.float32)
    expected[0, 0], expected[0, 3] = 1.0, 2.0
    expected[1, :3] = 1.0
    np.testing.assert_array_equal(x.grad, expected)
    with pytest.raises(DimensionError):
        gather_positions(x, np.zeros((3, 1), dtype=np.int64))
    with pytest.raises(DimensionError):
        gather_positions(x, np.zeros(2, dtype=np.int64))


def test_transpose_backward_applies_the_inverse_permutation():
    data = _rng(13).standard_normal((2, 3, 4, 5)).astype(np.float32)
    axes = (2, 0, 3, 1)
    weight = _rng(14).standard_normal(data.transpose(axes).shape).astype(np.float32)
    x = Tensor(data, requires_grad=True)
    (x.transpose(axes) * Tensor(weight)).sum().backward()
    np.testing.assert_array_equal(x.grad, weight.transpose(np.argsort(axes)))


def test_take_index_validation():
    x = Tensor(np.zeros((3, 4), dtype=np.float32))
    with pytest.raises(DimensionError):
        take_index(x, np.array([0, 1]))


def test_embedding_backward_accumulates_repeated_ids():
    w = Tensor(np.zeros((5, 2), dtype=np.float32), requires_grad=True)
    out = embedding(w, np.array([1, 1, 4]))
    out.sum().backward()
    expected = np.zeros((5, 2), dtype=np.float32)
    expected[1] = 2.0
    expected[4] = 1.0
    np.testing.assert_array_equal(w.grad, expected)


def test_structural_ops_route_gradients_to_their_slices():
    x = Tensor(_rng(10).standard_normal((4, 3)).astype(np.float32), requires_grad=True)
    select(x, axis=0, index=2).sum().backward()
    assert x.grad[2].tolist() == [1.0, 1.0, 1.0]
    assert np.all(x.grad[[0, 1, 3]] == 0)

    y = Tensor(_rng(11).standard_normal((4, 3)).astype(np.float32), requires_grad=True)
    slice_leading(y, 2).sum().backward()
    assert np.all(y.grad[:2] == 1.0) and np.all(y.grad[2:] == 0.0)


_INDEX_OPS = {
    "embedding": lambda x: embedding(x, np.array([[1, 3], [1, 0]])),
    "gather_rows": lambda x: gather_rows(x, np.array([True, False, True, True])),
    "take_index": lambda x: take_index(x, np.array([2, 0, 2, 1])),
    "select": lambda x: select(x, axis=1, index=2),
    "slice_leading": lambda x: slice_leading(x, 3),
}


@pytest.mark.parametrize("op", sorted(_INDEX_OPS))
def test_indexing_ops_accumulate_across_backward_calls(op):
    rng = _rng(17)
    x = Tensor(rng.standard_normal((4, 3)).astype(np.float32), requires_grad=True)
    out_shape = _INDEX_OPS[op](x).shape
    # integer weights keep every sum exact, so twice is exactly twice
    weight = Tensor(rng.integers(-4, 5, size=out_shape).astype(np.float32))

    (_INDEX_OPS[op](x) * weight).sum().backward()
    first = x.grad.copy()
    assert np.any(first != 0)
    (_INDEX_OPS[op](x) * weight).sum().backward()
    np.testing.assert_array_equal(x.grad, 2.0 * first)


def test_select_counts_a_negative_axis_from_the_end():
    data = _rng(18).standard_normal((2, 3, 4)).astype(np.float32)
    weight = _rng(19).standard_normal((2, 3)).astype(np.float32)
    x = Tensor(data, requires_grad=True)
    out = select(x, -1, 1)
    np.testing.assert_array_equal(out.data, np.take(data, 1, axis=-1))
    (out * Tensor(weight)).sum().backward()
    expected = np.zeros_like(data)
    expected[..., 1] = weight
    np.testing.assert_array_equal(x.grad, expected)


def test_forward_backward_bit_deterministic():
    def run():
        x = Tensor(_rng(12).standard_normal((6, 6)).astype(np.float32), requires_grad=True)
        w = Tensor(_rng(13).standard_normal((6, 6)).astype(np.float32), requires_grad=True)
        loss = (softmax(matmul(x, w)).gelu() * 0.5).sum()
        loss.backward()
        return loss.data.copy(), x.grad.copy(), w.grad.copy()

    first, second = run(), run()
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)


def test_finite_outputs_on_finite_inputs():
    x = Tensor((_rng(14).standard_normal((3, 5)) * 30).astype(np.float32))
    for out in (softmax(x), log_softmax(x), x.gelu(), x.exp() * 0 + x.sum()):
        assert np.isfinite(out.data).all()


def _gelu_reference(x: float) -> tuple[float, float]:
    """float64 value and derivative of x * Phi(x) from the stdlib erf."""
    cdf = 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
    pdf = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return x * cdf, cdf + x * pdf


def test_gelu_matches_exact_erf_form():
    x = Tensor(np.linspace(-10.0, 10.0, 40001).astype(np.float32), requires_grad=True)
    y = x.gelu()
    (y * 1.0).sum().backward()
    reference = np.array([_gelu_reference(float(v)) for v in x.data])
    assert y.data.dtype == np.float32 and x.grad.dtype == np.float32
    assert np.abs(y.data - reference[:, 0]).max() < 1e-6
    assert np.abs(x.grad - reference[:, 1]).max() < 1e-6


def test_gelu_repeated_backward_accumulates():
    x = Tensor(np.linspace(-4.0, 4.0, 97).astype(np.float32), requires_grad=True)
    y = x.gelu().sum()
    y.backward()
    first = x.grad.copy()
    y.backward()
    # the second pass sees seeds 1 (y) + 2 (gelu output) on top of the first
    np.testing.assert_array_equal(x.grad, 4.0 * first)


def test_repeated_backward_keeps_unreduced_gradients_apart():
    a = Tensor(np.zeros((2, 3), dtype=np.float32), requires_grad=True)
    b = Tensor(np.zeros((2, 3), dtype=np.float32), requires_grad=True)
    z = (a + b).sum()
    z.backward()
    z.backward()
    # second pass: seed 2 on z, 1 + 2 on a + b, added to the first pass's 1;
    # had a and b kept the sum's own grad array, both would read 12
    np.testing.assert_array_equal(a.grad, np.full((2, 3), 4.0, dtype=np.float32))
    np.testing.assert_array_equal(b.grad, np.full((2, 3), 4.0, dtype=np.float32))

    x = Tensor(_rng(15).standard_normal((2, 3)).astype(np.float32), requires_grad=True)
    gain = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    bias = Tensor(np.zeros((2, 3), dtype=np.float32), requires_grad=True)
    y = layer_norm(x, gain, bias).sum()
    y.backward()
    y.backward()
    np.testing.assert_array_equal(bias.grad, np.full((2, 3), 4.0, dtype=np.float32))


def _layer_norm_grads(x, gain, bias, weight, dtype):
    with precision(dtype):
        ts = [Tensor(v.astype(dtype), requires_grad=True) for v in (x, gain, bias)]
        out = layer_norm(*ts)
        (out * Tensor(weight.astype(dtype))).sum().backward()
    return [out.data] + [t.grad for t in ts]


def test_float32_layer_norm_matches_float64_reference():
    rng = _rng(16)
    x = (rng.standard_normal((32, 32, 64)) * 3.0 + 1.0).astype(np.float32)
    gain = (1.0 + 0.1 * rng.standard_normal(64)).astype(np.float32)
    bias = (0.1 * rng.standard_normal(64)).astype(np.float32)
    weight = rng.standard_normal((32, 32, 64)).astype(np.float32)
    single = _layer_norm_grads(x, gain, bias, weight, np.float32)
    reference = _layer_norm_grads(x, gain, bias, weight, np.float64)
    for name, got, ref in zip(("output", "x grad", "gain grad", "bias grad"), single, reference):
        assert got.dtype == np.float32, name
        # gain and bias grads sum 1024 rows, so the bound scales with the largest value
        assert np.abs(got - ref).max() <= 1e-5 * max(1.0, np.abs(ref).max()), name


def test_layer_norm_widens_to_a_float64_bias():
    x = Tensor(_rng(17).standard_normal((4, 8)).astype(np.float32), requires_grad=True)
    gain = Tensor(np.ones(8, dtype=np.float32), requires_grad=True)
    with precision(np.float64):
        bias = Tensor(np.full(8, 1e-9), requires_grad=True)
    out = layer_norm(x, gain, bias)
    assert out.data.dtype == np.float64
    out.sum().backward()
    assert x.grad.dtype == np.float32 and bias.grad.dtype == np.float64
