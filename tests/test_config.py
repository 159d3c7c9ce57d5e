import dataclasses
import re

import numpy as np
import pytest

from ctcseq.config import SECTIONS, default_config, load_config, save_config
from ctcseq.ctc import Alphabet
from ctcseq.data import GenConfig
from ctcseq.model import ModelConfig, Recognizer, load_checkpoint, save_checkpoint
from ctcseq.training import TrainConfig

# every settable key; a new knob, or a constant turned back into one, is an edit here
KEYS = {
    "model": {"feat_channels", "feat_grid", "pooled_grid", "embed_dim", "encoder_layers", "heads",
              "ffn_hidden", "context_window", "num_classes"},
    "train": {"lr", "epochs", "mel_weight", "flip_prob", "beam_width", "lm_alpha", "lm_order", "seed",
              "batch_size"},
    "data": {"frame_size", "min_letters", "max_letters", "n_signers", "left_handed_rate", "train_fraction",
             "dev_fraction", "words"},
}


def test_each_section_has_exactly_its_keys():
    assert {section: {f.name for f in dataclasses.fields(cls)} for section, cls in SECTIONS.items()} == KEYS
    assert sum(map(len, KEYS.values())) == 26


@pytest.mark.parametrize("configs", [
    default_config(),
    {
        "model": ModelConfig(feat_grid=(6, 5), pooled_grid=(3, 2), encoder_layers=0, context_window=0,
                             num_classes=3),
        "train": TrainConfig(lr=3.7e-4, seed=3, epochs=2, flip_prob=0.0, lm_alpha=1.0),
        "data": GenConfig(frame_size=24, words=("abc", "cab", "b"), left_handed_rate=0.5,
                          train_fraction=0.6, dev_fraction=0.25),
    },
], ids=["defaults", "non-default"])
def test_save_then_load_gives_the_same_configs(tmp_path, configs):
    path = tmp_path / "echo.ini"
    save_config(configs, path)
    assert load_config(path) == configs


@pytest.mark.parametrize("make, message", [
    (lambda: TrainConfig(epochs=2.5), "epochs must be an integer: 2.5"),
    (lambda: TrainConfig(batch_size=2.5), "batch_size must be an integer: 2.5"),
    (lambda: GenConfig(frame_size=32.5), "frame_size must be an integer: 32.5"),
    (lambda: GenConfig(n_signers=5.0), "n_signers must be an integer: 5.0"),
    (lambda: GenConfig(max_letters=4.0), "max_letters must be an integer: 4.0"),
    (lambda: ModelConfig(feat_grid=(8, 8.0)), "feat_grid must be an integer: (8, 8.0)"),
], ids=["epochs", "batch_size", "frame_size", "n_signers", "max_letters", "feat_grid"])
def test_integer_keys_refuse_a_float(make, message):
    # a float size would construct, then fail deep inside train() or synthesize()
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


def test_integer_keys_take_numpy_integers(tmp_path):
    assert TrainConfig(seed=np.int64(3)).seed == 3
    cfg = ModelConfig(feat_grid=(np.int32(6), 5), heads=np.int64(2))
    save_checkpoint(Recognizer(cfg, seed=0), tmp_path / "np.ckpt", Alphabet(tuple("abcde")))
    assert load_checkpoint(tmp_path / "np.ckpt")[0].cfg == cfg
