import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from ctcseq.ctc import Alphabet
from ctcseq.data import GenConfig, SyntheticClip, synthesize
from ctcseq.decoder import greedy_decode
from ctcseq.autodiff import Parameter, backward
from ctcseq.losses import combined_loss
from ctcseq.model import ModelConfig, Recognizer, load_checkpoint
from ctcseq.training import (
    AdamW,
    TrainConfig,
    TrainingDiverged,
    ablate,
    clip_grad_norm,
    evaluate,
    forward_frames,
    train,
)

ALPHABET = Alphabet(tuple("abc"))

SMALL_MODEL = ModelConfig(
    feat_channels=6,
    feat_grid=(6, 6),
    pooled_grid=(3, 3),
    embed_dim=8,
    encoder_layers=1,
    heads=2,
    ffn_hidden=16,
    num_classes=3,
)


@pytest.fixture(scope="module")
def tiny_split():
    cfg = GenConfig(frame_size=32, n_signers=5, max_letters=2)
    return synthesize(5, 12, ALPHABET, cfg)


class TestAdamW:
    def test_zero_gradient_is_pure_decay(self):
        rng = np.random.default_rng(0)
        p = Parameter(rng.normal(size=(3, 3)))
        start = p.data.copy()
        opt = AdamW([p], lr=0.01, weight_decay=0.1)
        for step in range(1, 4):
            opt.step()
            assert np.abs(p.data - start * (1 - 0.01 * 0.1) ** step).max() < 1e-12

    def test_zero_lr_is_bitwise_noop(self):
        p = Parameter(np.random.default_rng(1).normal(size=4))
        start = p.data.copy()
        p.grad = np.random.default_rng(2).normal(size=4)
        opt = AdamW([p], lr=0.0, weight_decay=0.01)
        opt.step()
        assert np.array_equal(p.data, start)

    def test_step_moves_against_gradient(self):
        p = Parameter(np.zeros(3))
        p.grad = np.array([1.0, -1.0, 0.5])
        opt = AdamW([p], lr=0.1)
        opt.step()
        assert np.all(np.sign(p.data) == -np.sign(p.grad))

    def test_missing_gradient_counts_as_zero(self):
        rng = np.random.default_rng(3)
        zero = Parameter(rng.normal(size=4))
        missing = Parameter(zero.data.copy())
        zero.grad = np.zeros(4)
        for p in (zero, missing):
            opt = AdamW([p], lr=0.01, weight_decay=0.1)
            for _ in range(3):
                opt.step()
        assert np.array_equal(zero.data, missing.data)
        other = Parameter(np.zeros(2))
        other.grad = np.array([3.0, 4.0])
        assert clip_grad_norm([missing, other], 1.0) == 5.0
        assert missing.grad is None

    def test_clip_grad_norm(self):
        p = Parameter(np.zeros(4))
        p.grad = np.array([3.0, 4.0, 0.0, 0.0])
        total = clip_grad_norm([p], 1.0)
        assert total == pytest.approx(5.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, abs=1e-12)


class TestTrainConfig:
    def test_rejects_nonpositive_lr(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)

    def test_rejects_bad_flip_prob(self):
        with pytest.raises(ValueError):
            TrainConfig(flip_prob=1.5)


class TestTrainLoop:
    def test_seeded_runs_reproduce_epoch_one_loss(self, tiny_split):
        cfg = TrainConfig(epochs=1, seed=3, batch_size=4)
        r1 = train(Recognizer(SMALL_MODEL, seed=cfg.seed), tiny_split, cfg)
        r2 = train(Recognizer(SMALL_MODEL, seed=cfg.seed), tiny_split, cfg)
        assert r1.log[0].train_loss == r2.log[0].train_loss
        assert r1.log[0].dev_acc_greedy == r2.log[0].dev_acc_greedy

    def test_epoch_log_format(self, tiny_split, tmp_path):
        cfg = TrainConfig(epochs=2, seed=1, batch_size=4)
        result = train(Recognizer(SMALL_MODEL, seed=1), tiny_split, cfg, out_dir=tmp_path)
        lines = (tmp_path / "epoch.log").read_text().splitlines()
        assert len(lines) == 2
        epoch, loss, acc = lines[0].split("\t")
        assert int(epoch) == 1
        float(loss), float(acc)
        assert (tmp_path / "best.ckpt").exists()

    def test_checkpoint_round_trip_gives_same_dev_metrics(self, tiny_split, tmp_path):
        cfg = TrainConfig(epochs=1, seed=2, batch_size=4)
        result = train(Recognizer(SMALL_MODEL, seed=2), tiny_split, cfg, out_dir=tmp_path)
        loaded = load_checkpoint(tmp_path / "best.ckpt")
        a = evaluate(result.model, tiny_split.dev).mean_letter_accuracy
        b = evaluate(loaded, tiny_split.dev).mean_letter_accuracy
        assert a == b

    def test_infeasible_clips_are_skipped(self, tiny_split):
        # a clip whose target cannot fit its frames must not poison training
        clip = tiny_split.train[0]
        bad = SyntheticClip(
            frames=clip.frames[:2].copy(),
            target=(0, 0, 1, 1, 2, 2),
            signer_id=99,
            handedness="right",
        )
        split2 = type(tiny_split)(
            train=[bad] + tiny_split.train[:3],
            dev=tiny_split.dev[:2],
            test=[],
            alphabet=tiny_split.alphabet,
        )
        cfg = TrainConfig(epochs=1, seed=0, batch_size=2, flip_prob=0.0)
        result = train(Recognizer(SMALL_MODEL, seed=0), split2, cfg)
        assert result.skipped_clips == 1

    def test_nan_loss_aborts_with_dump(self, tiny_split, tmp_path, monkeypatch):
        import ctcseq.training as tr

        real = tr.combined_loss

        def poisoned(dist, target, w):
            report = real(dist, target, w)
            report.total = float("nan")
            return report

        monkeypatch.setattr(tr, "combined_loss", poisoned)
        cfg = TrainConfig(epochs=1, seed=0, batch_size=2)
        with pytest.raises(TrainingDiverged) as exc:
            train(Recognizer(SMALL_MODEL, seed=0), tiny_split, cfg, out_dir=tmp_path)
        assert "offending batch" in exc.value.dump
        assert (tmp_path / "diagnostic_dump.txt").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_real_divergence_aborts_before_the_step(self, tmp_path):
        split = synthesize(0, 40, ALPHABET, GenConfig(frame_size=32, n_signers=5))
        model = Recognizer(SMALL_MODEL, seed=0)
        with pytest.raises(TrainingDiverged, match=r"non-finite gradient at epoch 1, batch of clips \d") as exc:
            train(model, split, TrainConfig(lr=1e6, epochs=3, batch_size=4), out_dir=tmp_path)
        assert "diagnostic_dump.txt" in str(exc.value)
        assert exc.value.dump.startswith("offending batch:")
        assert (tmp_path / "diagnostic_dump.txt").read_text() == exc.value.dump
        assert all(np.isfinite(p.data).all() for p in model.parameters())

    def test_malformed_clip_keeps_its_value_error(self, tiny_split):
        small = replace(tiny_split.train[0], frames=tiny_split.train[0].frames[:, :, :8, :8])
        split = replace(tiny_split, train=[small])
        with pytest.raises(ValueError, match="input frames too small"):
            train(Recognizer(SMALL_MODEL, seed=0), split, TrainConfig(epochs=1, batch_size=1))

    def test_result_is_the_trained_argument_and_ckpt_the_best_epoch(self, tiny_split, tmp_path):
        model = Recognizer(SMALL_MODEL, seed=4)
        result = train(model, tiny_split, TrainConfig(epochs=3, seed=4, batch_size=4), out_dir=tmp_path)
        assert result.model is model
        raw = (tmp_path / "best.ckpt").read_bytes()
        (mlen,) = struct.unpack("<Q", raw[8:16])
        assert json.loads(raw[16 : 16 + mlen])["extra"]["epoch"] == result.best_epoch
        best = load_checkpoint(tmp_path / "best.ckpt").named_parameters()
        same = all(np.array_equal(p.data, best[n].data) for n, p in model.named_parameters().items())
        assert same == (result.best_epoch == 3)

    def test_lr_decays_from_peak_towards_zero(self, tiny_split, monkeypatch):
        seen = []
        real_step = AdamW.step

        def recording_step(opt):
            seen.append(opt.lr)
            real_step(opt)

        monkeypatch.setattr(AdamW, "step", recording_step)
        cfg = TrainConfig(epochs=2, seed=0, batch_size=1, lr=2e-3)
        train(Recognizer(SMALL_MODEL, seed=0), tiny_split, cfg)
        assert len(seen) == cfg.epochs * len(tiny_split.train)
        assert seen[0] == cfg.lr
        assert all(b <= a for a, b in zip(seen, seen[1:]))
        assert 0.0 < seen[-1] < 0.02 * cfg.lr

    def test_overfits_single_clip(self):
        rng = np.random.default_rng(0)
        cfg = GenConfig(frame_size=32, n_signers=2, min_letters=2, max_letters=2)
        split = synthesize(21, 3, ALPHABET, cfg)
        clip = split.train[0]
        model = Recognizer(SMALL_MODEL, seed=4)
        opt = AdamW(model.parameters(), lr=3e-3)
        losses = []
        for _ in range(120):
            dist = forward_frames(model, clip.frames)
            report = combined_loss(dist, clip.target, 0.0)
            losses.append(report.total)
            backward(report.node)
            clip_grad_norm(opt.params, 5.0)
            opt.step()
            opt.zero_grad()
        smooth = np.convolve(losses, np.ones(20) / 20, mode="valid")
        assert np.all(np.diff(smooth) < 1e-3)
        assert smooth[-1] < smooth[0] * 0.5
        dist = forward_frames(model, clip.frames)
        assert greedy_decode(dist) == list(clip.target)


class TestAblation:
    def test_table_structure(self, tiny_split):
        model_cfg = SMALL_MODEL
        cfg = TrainConfig(epochs=1, seed=0, batch_size=4)
        table = ablate(tiny_split, cfg, model_cfg)
        assert [label for label, _ in table.rows] == ["ctc", "ctc+mel", "ctc+flip", "ctc+mel+flip"]
        cells = [v for _, row in table.rows for v in row.values()]
        assert len(cells) == 12
        assert all(0.0 <= v <= 1.0 for v in cells)
        text = table.to_text()
        assert "greedy" in text and "beam-lm" in text
