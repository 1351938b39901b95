"""Knowledge distillation of a small single-language masked LM from a
larger multilingual teacher, with ablation protocols and report emission,
all on a hand-rolled numpy autodiff core."""

from .autograd import Tensor, finite_difference_check, no_grad, precision
from .checkpoint import checkpoint_digest, load_checkpoint, load_finetuned, save_checkpoint
from .data import (LabeledBatch, MaskedBatch, load_corpus, make_labeled_batches,
                   make_mlm_batch, subsample)
from .distill import (DistillConfig, TrainState, condition_teacher, distill_loss,
                      distill_run, evaluate_masked, pretrain_mlm)
from .errors import (CheckpointCorruptError, CheckpointError, CheckpointShapeError,
                     ConfigurationError, DataError, DimensionError, EvaluationError,
                     MonodistilError, NoMaskedPositionsError, TrainingDivergedError,
                     UsageError, VocabMismatchError, VocabularyError)
from .harness import (ComparisonReport, ComparisonRow, MetricReport, TaskSpec, compare,
                      emit_report, finetune, measure_speedup, parse_report_csv,
                      run_ablation_conditioning, run_ablation_data_fraction,
                      run_ablation_init)
from .losses import cross_entropy, cross_entropy_masked, kl_divergence
from .metrics import accuracy, decode_spans, span_f1
from .model import (EncoderConfig, EncoderModel, Head, copy_embeddings_from,
                    count_parameters, forward_mlm, forward_sequence_cls,
                    forward_token_cls, init_head, init_random)
from .optim import AdamW, clip_grad_norm
from .synth import SynthConfig, generate_bundle, write_bundle
from .tokenizer import EncodedSequence, Vocab, encode, train_vocab

__version__ = "0.1.0"
