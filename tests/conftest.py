"""Shared fixtures: one small synthetic bundle and vocab reused across files."""

import numpy as np
import pytest
from hypothesis import settings

from monodistil.model import EncoderConfig, init_random
from monodistil.synth import SynthConfig, generate_bundle
from monodistil.tokenizer import train_vocab

settings.register_profile("suite", deadline=None, max_examples=25)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def small_bundle():
    return generate_bundle(SynthConfig(docs_per_language=40, heldout_docs=10, seed=0))


@pytest.fixture(scope="session")
def small_vocab(small_bundle):
    return train_vocab(small_bundle.mixed.documents, 600)


@pytest.fixture(scope="session")
def tiny_cfg(small_vocab):
    return EncoderConfig(hidden_dim=16, intermediate_size=32, num_layers=1,
                         num_heads=2, max_positions=16,
                         vocab_size=len(small_vocab))


@pytest.fixture()
def tiny_model(tiny_cfg):
    return init_random(tiny_cfg, seed=3)


@pytest.fixture(scope="session")
def bundle_files(small_bundle, small_vocab, tmp_path_factory):
    from monodistil.synth import write_bundle

    out = tmp_path_factory.mktemp("bundle")
    paths = write_bundle(small_bundle, out)
    vocab_path = out / "vocab.txt"
    small_vocab.save(vocab_path)
    paths["vocab"] = str(vocab_path)
    return paths


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))
