"""Transformer encoder with MLM and task heads.

Post-layer-norm residual blocks, learned absolute positions, GELU feed
forward, no segment embeddings. One frozen hyperparameter bundle
(EncoderConfig) fully determines every parameter shape.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .data import TASK_KINDS
from .errors import ConfigurationError, DimensionError
from .tokenizer import Vocab

ATTENTION_MASK_BIAS = -1e9
INIT_STD = 0.02


@dataclass(frozen=True)
class EncoderConfig:
    hidden_dim: int
    intermediate_size: int
    num_layers: int
    num_heads: int
    max_positions: int
    vocab_size: int

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, (int, np.integer)) or value <= 0:
                raise ConfigurationError(f"{f.name} must be a positive integer, got {value!r}")
        if self.hidden_dim % self.num_heads != 0:
            raise ConfigurationError(
                f"hidden_dim {self.hidden_dim} is not divisible by num_heads {self.num_heads}")
        if self.max_positions < 3:
            raise ConfigurationError(f"max_positions must be at least 3, got {self.max_positions}")
        head_dim = self.hidden_dim // self.num_heads
        if head_dim % 8 != 0:
            warnings.warn(f"unusual head dimension {head_dim} (not a multiple of 8); "
                          "allowed but slow on most hardware", stacklevel=2)

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.num_heads


def parameter_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter name and shape, in canonical (checkpoint) order."""
    h, i, v, p = (config.hidden_dim, config.intermediate_size,
                  config.vocab_size, config.max_positions)
    shapes: dict[str, tuple[int, ...]] = {
        "token_embedding": (v, h),
        "position_embedding": (p, h),
        "embedding_norm_gain": (h,),
        "embedding_norm_bias": (h,),
    }
    for layer in range(config.num_layers):
        for proj in ("query", "key", "value", "attn_output"):
            shapes[f"layer_{layer}_{proj}_weight"] = (h, h)
            shapes[f"layer_{layer}_{proj}_bias"] = (h,)
        shapes[f"layer_{layer}_attn_norm_gain"] = (h,)
        shapes[f"layer_{layer}_attn_norm_bias"] = (h,)
        shapes[f"layer_{layer}_ffn_inner_weight"] = (h, i)
        shapes[f"layer_{layer}_ffn_inner_bias"] = (i,)
        shapes[f"layer_{layer}_ffn_output_weight"] = (i, h)
        shapes[f"layer_{layer}_ffn_output_bias"] = (h,)
        shapes[f"layer_{layer}_ffn_norm_gain"] = (h,)
        shapes[f"layer_{layer}_ffn_norm_bias"] = (h,)
    shapes["mlm_head_weight"] = (h, v)
    shapes["mlm_head_bias"] = (v,)
    return shapes


@dataclass
class EncoderModel:
    config: EncoderConfig
    params: dict[str, Tensor]

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]


def truncated_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """Normal(0, std) with values beyond two deviations resampled."""
    out = rng.standard_normal(shape)
    bad = np.abs(out) > 2.0
    while bad.any():
        out[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(out) > 2.0
    return (out * std).astype(np.float32)


def init_random(config: EncoderConfig, seed: int) -> EncoderModel:
    """Fresh model: truncated-normal weights, zero biases, unit norm gains."""
    rng = np.random.Generator(np.random.PCG64(seed))
    params: dict[str, Tensor] = {}
    for name, shape in parameter_shapes(config).items():
        if name.endswith("_gain"):
            data = np.ones(shape, dtype=np.float32)
        elif name.endswith("_bias"):
            data = np.zeros(shape, dtype=np.float32)
        else:
            data = truncated_normal(rng, shape, INIT_STD)
        params[name] = Tensor(data, requires_grad=True)
    return EncoderModel(config, params)


def clone_model(model: EncoderModel) -> EncoderModel:
    """Independent copy whose tensors are all fresh and trainable."""
    params = {name: Tensor(t.data.copy(), requires_grad=True)
              for name, t in model.params.items()}
    return EncoderModel(model.config, params)


def count_parameters(model: EncoderModel) -> int:
    return sum(int(t.data.size) for t in model.params.values())


def _maybe_dropout(x: Tensor, dropout) -> Tensor:
    if dropout is None:
        return x
    return ag.dropout(x, *dropout)


def encode_hidden(model: EncoderModel, token_ids: np.ndarray,
                  attention_mask: np.ndarray, dropout=None,
                  positions: np.ndarray | None = None) -> Tensor:
    """Run the encoder stack; returns hidden states [batch, seq, hidden].

    ``dropout`` is a ``(rate, rng)`` pair for training-mode dropout; None
    means inference. ``positions``, an int [batch, m] array, names for each
    sequence the positions whose rows the last layer computes: that layer
    still attends over keys and values from every position, but runs its
    query, attention output, residuals and FFN on those rows alone, and the
    result is [batch, m, hidden]. Each row goes through the same arithmetic
    as on the full path, and BLAS rounds it alike when m >= 2; at m == 1
    numpy switches to matrix-vector products, which round differently.
    """
    cfg = model.config
    token_ids = np.asarray(token_ids, dtype=np.int64)
    attention_mask = np.asarray(attention_mask, dtype=bool)
    if token_ids.ndim != 2:
        raise DimensionError(f"token ids must be [batch, seq], got shape {token_ids.shape}")
    if token_ids.shape != attention_mask.shape:
        raise DimensionError(
            f"token ids {token_ids.shape} and attention mask {attention_mask.shape} differ")
    batch, seq = token_ids.shape
    if seq > cfg.max_positions:
        raise DimensionError(f"sequence length {seq} exceeds max_positions {cfg.max_positions}")
    if token_ids.min() < 0 or token_ids.max() >= cfg.vocab_size:
        raise DimensionError(
            f"token ids must lie in [0, {cfg.vocab_size}), got range "
            f"[{token_ids.min()}, {token_ids.max()}]")

    tok = ag.embedding(model["token_embedding"], token_ids)
    pos = ag.slice_leading(model["position_embedding"], seq)
    h = tok + pos.reshape((1, seq, cfg.hidden_dim))
    h = ag.layer_norm(h, model["embedding_norm_gain"], model["embedding_norm_bias"])
    h = _maybe_dropout(h, dropout)

    # keys at PAD positions are unreachable for every query
    bias = np.where(attention_mask, 0.0, ATTENTION_MASK_BIAS).astype(np.float32)
    bias = ag.constant(bias.reshape(batch, 1, 1, seq))
    scale = 1.0 / np.sqrt(cfg.head_dim)

    for layer in range(cfg.num_layers):
        def proj(name: str, x: Tensor) -> Tensor:
            w = model[f"layer_{layer}_{name}_weight"]
            b = model[f"layer_{layer}_{name}_bias"]
            return ag.matmul(x, w, bias=b)

        def split_heads(x: Tensor) -> Tensor:
            return x.reshape((batch, -1, cfg.num_heads, cfg.head_dim)).transpose((0, 2, 1, 3))

        # the query rows: every position, or the named ones in the last layer
        x = h
        if positions is not None and layer == cfg.num_layers - 1:
            x = ag.gather_positions(h, positions)
        q = split_heads(proj("query", x))
        k = split_heads(proj("key", h))
        v = split_heads(proj("value", h))
        scores = ag.matmul(q, k.transpose((0, 1, 3, 2)), scale=scale, bias=bias)
        attn = ag.softmax(scores, axis=-1)
        attn = _maybe_dropout(attn, dropout)
        ctx = ag.matmul(attn, v).transpose((0, 2, 1, 3)).reshape((batch, -1, cfg.hidden_dim))
        attn_out = _maybe_dropout(proj("attn_output", ctx), dropout)
        h = ag.layer_norm(x, model[f"layer_{layer}_attn_norm_gain"],
                          model[f"layer_{layer}_attn_norm_bias"], residual=attn_out)

        inner = proj("ffn_inner", h)
        ffn = _maybe_dropout(proj("ffn_output", inner.gelu()), dropout)
        h = ag.layer_norm(h, model[f"layer_{layer}_ffn_norm_gain"],
                          model[f"layer_{layer}_ffn_norm_bias"], residual=ffn)
    return h


def forward_mlm(model: EncoderModel, token_ids: np.ndarray, attention_mask: np.ndarray,
                rows: np.ndarray | None = None) -> Tensor:
    """Vocabulary logits [batch, seq, vocab] from corrupted inputs, without
    dropout: the MLM stages train without it.

    With a boolean ``rows`` mask over [batch, seq], only those positions
    reach the head: the result is [n_rows, vocab] in C order of the mask.
    They are also the only rows the last encoder layer computes, with and
    without a tape, and the logits equal the full path's bit for bit. With
    a tape, the last layer's bias and gain gradients sum over the
    [batch, m] slots rather than every position, so they and the gradients
    upstream of them round differently, at about 1e-7 relative.
    """
    positions = None
    if rows is not None:
        positions, rows = _masked_slots(rows, np.shape(token_ids))
    h = encode_hidden(model, token_ids, attention_mask, positions=positions)
    if rows is not None:
        h = ag.gather_rows(h, rows)
    return ag.matmul(h, model["mlm_head_weight"], bias=model["mlm_head_bias"])


def _masked_slots(rows, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Query positions [batch, m] covering a boolean ``rows`` mask, and the
    [batch, m] mask of slots that hold a masked position.

    Each sequence lists its masked positions in order, so the true slots in
    C order give the masked rows in C order of ``rows``. ``m`` is the
    largest per-sequence count but at least 2, which keeps every last-layer
    product a matrix-matrix one; spare slots repeat position 0.
    """
    rows = np.asarray(rows, dtype=bool)
    if rows.ndim != 2 or rows.shape != shape:
        raise DimensionError(f"rows mask {rows.shape} does not match [batch, seq] token ids "
                             f"{shape}")
    counts = rows.sum(axis=1)
    width = max(int(counts.max(initial=0)), 2)
    slots = np.arange(width) < counts[:, None]
    positions = np.zeros(slots.shape, dtype=np.int64)
    positions[slots] = np.nonzero(rows)[1]
    return positions, slots


@dataclass
class Head:
    """Single linear task head over encoder output positions: read at [CLS]
    for a classification task, at every position for a tagging task."""

    kind: str                 # the task kind, one of data.TASK_KINDS
    labels: tuple[str, ...]   # label names in id order
    weight: Tensor
    bias: Tensor

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ConfigurationError(
                f"head kind must be 'classification' or 'tagging', got {self.kind!r}")

    @property
    def num_labels(self) -> int:
        return len(self.labels)

    def params(self) -> dict[str, Tensor]:
        return {"head_weight": self.weight, "head_bias": self.bias}


def init_head(config: EncoderConfig, kind: str, labels: tuple[str, ...], seed: int) -> Head:
    """A fresh head over ``labels``, the label names in id order."""
    if len(labels) < 2:
        raise ConfigurationError(f"a task head needs at least 2 labels, got {len(labels)}")
    rng = np.random.Generator(np.random.PCG64(seed))
    weight = Tensor(truncated_normal(rng, (config.hidden_dim, len(labels)), INIT_STD),
                    requires_grad=True)
    bias = Tensor(np.zeros(len(labels), dtype=np.float32), requires_grad=True)
    return Head(kind, labels, weight, bias)


def forward_sequence_cls(model: EncoderModel, head: Head, token_ids, attention_mask,
                         dropout=None) -> Tensor:
    """Class logits [batch, classes] read off the first (CLS) position.

    The loss reads only position 0, so the last encoder layer computes that
    row alone (``positions`` of zeros); its keys and values still come from
    every position. The logits match the full-sequence path up to float32
    roundoff, not bit for bit: one query row makes matrix-vector products.
    Token tagging keeps the full path.
    """
    batch = np.shape(token_ids)[0]
    h = encode_hidden(model, token_ids, attention_mask, dropout,
                      positions=np.zeros((batch, 1), dtype=np.int64))
    cls = ag.select(h, axis=1, index=0)
    return ag.matmul(cls, head.weight, bias=head.bias)


def forward_token_cls(model: EncoderModel, head: Head, token_ids, attention_mask,
                      dropout=None) -> Tensor:
    """Tag logits [batch, seq, tags] over every position."""
    h = encode_hidden(model, token_ids, attention_mask, dropout)
    return ag.matmul(h, head.weight, bias=head.bias)


def copy_embeddings_from(student: EncoderModel, teacher: EncoderModel) -> None:
    """Overwrite student token/position embeddings with the teacher's values.

    Requires equal vocabulary and hidden sizes; teacher position rows are
    truncated when the student accepts fewer positions.
    """
    s_cfg, t_cfg = student.config, teacher.config
    if s_cfg.vocab_size != t_cfg.vocab_size:
        raise DimensionError(
            f"vocabulary sizes differ: student {s_cfg.vocab_size}, teacher {t_cfg.vocab_size}")
    if s_cfg.hidden_dim != t_cfg.hidden_dim:
        raise DimensionError(
            f"hidden sizes differ: student {s_cfg.hidden_dim}, teacher {t_cfg.hidden_dim}; "
            "embedding copy needs matching widths")
    if s_cfg.max_positions > t_cfg.max_positions:
        raise DimensionError(
            f"student expects {s_cfg.max_positions} positions but teacher has "
            f"only {t_cfg.max_positions}")
    student["token_embedding"].data[...] = teacher["token_embedding"].data
    student["position_embedding"].data[...] = \
        teacher["position_embedding"].data[:s_cfg.max_positions]


def check_max_len(model: EncoderModel, max_len: int, role: str = "model") -> None:
    """Batches up to ``max_len`` wide must fit the model's position table."""
    if max_len > model.config.max_positions:
        raise ConfigurationError(f"max_len {max_len} exceeds the {role}'s "
                                 f"max_positions {model.config.max_positions}")


def model_vocab_guard(model: EncoderModel, vocab: Vocab) -> None:
    if len(vocab) != model.config.vocab_size:
        raise DimensionError(
            f"model built for vocabulary of {model.config.vocab_size} tokens "
            f"but got {len(vocab)}")
