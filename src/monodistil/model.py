"""Transformer encoder with MLM and task heads.

Post-layer-norm residual blocks, learned absolute positions, GELU feed
forward, no segment embeddings. One frozen hyperparameter bundle
(EncoderConfig) fully determines every parameter shape.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tensor
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
        for name in ("hidden_dim", "intermediate_size", "num_layers", "num_heads",
                     "max_positions", "vocab_size"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value <= 0:
                raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")
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


def parameter_groups(config: EncoderConfig) -> dict[str, list[str]]:
    """Named freezable groups; "all" is accepted as the union pseudo-group."""
    groups = {
        "embeddings": ["token_embedding", "position_embedding"],
        "embedding_norm": ["embedding_norm_gain", "embedding_norm_bias"],
    }
    for layer in range(config.num_layers):
        members = [f"layer_{layer}_{proj}_{kind}"
                   for proj in ("query", "key", "value", "attn_output")
                   for kind in ("weight", "bias")]
        members += [f"layer_{layer}_{part}" for part in
                    ("attn_norm_gain", "attn_norm_bias", "ffn_inner_weight", "ffn_inner_bias",
                     "ffn_output_weight", "ffn_output_bias", "ffn_norm_gain", "ffn_norm_bias")]
        groups[f"layer_{layer}"] = members
    groups["mlm_head"] = ["mlm_head_weight", "mlm_head_bias"]
    return groups


@dataclass
class EncoderModel:
    config: EncoderConfig
    params: dict[str, Tensor]
    frozen_groups: set = field(default_factory=set)

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def trainable_params(self) -> dict[str, Tensor]:
        return {k: t for k, t in self.params.items() if t.requires_grad}


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
    """Independent copy with fresh trainable tensors and no frozen groups."""
    params = {name: Tensor(t.data.copy(), requires_grad=True)
              for name, t in model.params.items()}
    return EncoderModel(model.config, params)


def count_parameters(model: EncoderModel) -> int:
    return sum(int(t.data.size) for t in model.params.values())


def count_parameters_for_config(config: EncoderConfig) -> int:
    return sum(int(np.prod(s)) for s in parameter_shapes(config).values())


def _maybe_dropout(x: Tensor, dropout) -> Tensor:
    if dropout is None:
        return x
    return ag.dropout(x, *dropout)


def encode_hidden(model: EncoderModel, token_ids: np.ndarray,
                  attention_mask: np.ndarray, dropout=None) -> Tensor:
    """Run the encoder stack; returns hidden states [batch, seq, hidden].

    ``dropout`` is a ``(rate, rng)`` pair for training-mode dropout; None
    means inference.
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
            return ag.matmul(x, w) + b

        def split_heads(x: Tensor) -> Tensor:
            return x.reshape((batch, seq, cfg.num_heads, cfg.head_dim)).transpose((0, 2, 1, 3))

        q = split_heads(proj("query", h))
        k = split_heads(proj("key", h))
        v = split_heads(proj("value", h))
        scores = ag.matmul(q, k.transpose((0, 1, 3, 2))) * scale + bias
        attn = ag.softmax(scores, axis=-1)
        attn = _maybe_dropout(attn, dropout)
        ctx = ag.matmul(attn, v).transpose((0, 2, 1, 3)).reshape((batch, seq, cfg.hidden_dim))
        attn_out = _maybe_dropout(proj("attn_output", ctx), dropout)
        h = ag.layer_norm(h + attn_out,
                          model[f"layer_{layer}_attn_norm_gain"],
                          model[f"layer_{layer}_attn_norm_bias"])

        inner = ag.matmul(h, model[f"layer_{layer}_ffn_inner_weight"]) \
            + model[f"layer_{layer}_ffn_inner_bias"]
        ffn = ag.matmul(inner.gelu(), model[f"layer_{layer}_ffn_output_weight"]) \
            + model[f"layer_{layer}_ffn_output_bias"]
        ffn = _maybe_dropout(ffn, dropout)
        h = ag.layer_norm(h + ffn,
                          model[f"layer_{layer}_ffn_norm_gain"],
                          model[f"layer_{layer}_ffn_norm_bias"])
    return h


def forward_mlm(model: EncoderModel, token_ids: np.ndarray, attention_mask: np.ndarray,
                dropout=None) -> Tensor:
    """Vocabulary logits [batch, seq, vocab] from corrupted inputs."""
    h = encode_hidden(model, token_ids, attention_mask, dropout)
    return ag.matmul(h, model["mlm_head_weight"]) + model["mlm_head_bias"]


@dataclass
class Head:
    """Single linear task head over encoder output positions."""

    kind: str
    num_labels: int
    weight: Tensor
    bias: Tensor

    def __post_init__(self):
        if self.kind not in ("sequence", "token"):
            raise ConfigurationError(f"head kind must be 'sequence' or 'token', got {self.kind!r}")

    def params(self) -> dict[str, Tensor]:
        return {"head_weight": self.weight, "head_bias": self.bias}


def init_head(config: EncoderConfig, kind: str, num_labels: int, seed: int) -> Head:
    if num_labels < 2:
        raise ConfigurationError(f"a task head needs at least 2 labels, got {num_labels}")
    rng = np.random.Generator(np.random.PCG64(seed))
    weight = Tensor(truncated_normal(rng, (config.hidden_dim, num_labels), INIT_STD),
                    requires_grad=True)
    bias = Tensor(np.zeros(num_labels, dtype=np.float32), requires_grad=True)
    return Head(kind, num_labels, weight, bias)


def _check_head(head: Head, kind: str, num_labels: int):
    if head.kind != kind:
        raise ConfigurationError(f"head kind {head.kind!r} cannot serve a {kind} task")
    if head.num_labels != num_labels:
        raise ConfigurationError(
            f"head has {head.num_labels} labels but the batch declares {num_labels}")


def forward_sequence_cls(model: EncoderModel, head: Head, token_ids, attention_mask,
                         num_labels: int | None = None, dropout=None) -> Tensor:
    """Class logits [batch, classes] read off the first (CLS) position."""
    if num_labels is not None:
        _check_head(head, "sequence", num_labels)
    h = encode_hidden(model, token_ids, attention_mask, dropout)
    cls = ag.select(h, axis=1, index=0)
    return ag.matmul(cls, head.weight) + head.bias


def forward_token_cls(model: EncoderModel, head: Head, token_ids, attention_mask,
                      num_labels: int | None = None, dropout=None) -> Tensor:
    """Tag logits [batch, seq, tags] over every position."""
    if num_labels is not None:
        _check_head(head, "token", num_labels)
    h = encode_hidden(model, token_ids, attention_mask, dropout)
    return ag.matmul(h, head.weight) + head.bias


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


def set_frozen(model: EncoderModel, group: str, frozen: bool) -> None:
    """Freeze or thaw a parameter group; frozen groups never receive updates."""
    groups = parameter_groups(model.config)
    if group == "all":
        targets = list(groups)
    elif group in groups:
        targets = [group]
    else:
        raise ConfigurationError(
            f"unknown parameter group {group!r}; valid: {sorted(groups)} or 'all'")
    for g in targets:
        for name in groups[g]:
            model.params[name].requires_grad = not frozen
            if frozen:
                model.params[name].grad = None
        if frozen:
            model.frozen_groups.add(g)
        else:
            model.frozen_groups.discard(g)


def model_vocab_guard(model: EncoderModel, vocab: Vocab) -> None:
    if len(vocab) != model.config.vocab_size:
        raise DimensionError(
            f"model built for vocabulary of {model.config.vocab_size} tokens "
            f"but got {len(vocab)}")
