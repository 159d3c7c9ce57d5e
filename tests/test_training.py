import copy
import ctypes
import pickle
import re
import resource
import tracemalloc
import weakref
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
    GRAD_CLIP,
    WEIGHT_DECAY,
    AdamW,
    TrainConfig,
    TrainingDiverged,
    ablate,
    clip_grad_norm,
    evaluate,
    forward_frames,
    train,
)
from conftest import checkpoint_parts
from training_reference import train_reference

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
        opt = AdamW([p])
        opt.lr = 0.01
        for step in range(1, 4):
            opt.step()
            assert np.abs(p.data - start * (1 - 0.01 * WEIGHT_DECAY) ** step).max() < 1e-12

    def test_zero_lr_is_bitwise_noop(self):
        p = Parameter(np.random.default_rng(1).normal(size=4))
        start = p.data.copy()
        p.grad = np.random.default_rng(2).normal(size=4)
        opt = AdamW([p])  # lr starts at 0
        opt.step()
        assert np.array_equal(p.data, start)

    def test_step_moves_against_gradient(self):
        p = Parameter(np.zeros(3))
        p.grad = np.array([1.0, -1.0, 0.5])
        opt = AdamW([p])
        opt.lr = 0.1
        opt.step()
        assert np.all(np.sign(p.data) == -np.sign(p.grad))

    def test_missing_gradient_counts_as_zero(self):
        rng = np.random.default_rng(3)
        zero = Parameter(rng.normal(size=4))
        missing = Parameter(zero.data.copy())
        zero.grad = np.zeros(4)
        for p in (zero, missing):
            opt = AdamW([p])
            opt.lr = 0.01
            for _ in range(3):
                opt.step()
        assert np.array_equal(zero.data, missing.data)
        other = Parameter(np.zeros(2))
        other.grad = np.array([3.0, 4.0])
        assert clip_grad_norm([missing, other]) == 5.0
        assert missing.grad is None

    def test_clip_grad_norm(self):
        p = Parameter(np.zeros(4))
        p.grad = np.array([30.0, 40.0, 0.0, 0.0])
        total = clip_grad_norm([p])
        assert total == pytest.approx(50.0)
        assert np.linalg.norm(p.grad) == pytest.approx(GRAD_CLIP, abs=1e-12)


class TestTrainConfig:
    def test_rejects_nonpositive_lr(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)

    def test_rejects_bad_flip_prob(self):
        with pytest.raises(ValueError):
            TrainConfig(flip_prob=1.5)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match=r"seed must be >= 0: -1"):
            TrainConfig(seed=-1)


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
        lines = (tmp_path / "epoch.log").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        epoch, loss, acc = lines[0].split("\t")
        assert int(epoch) == 1
        float(loss), float(acc)
        assert (tmp_path / "best.ckpt").exists()

    def test_checkpoint_round_trip_gives_same_dev_metrics(self, tiny_split, tmp_path):
        cfg = TrainConfig(epochs=1, seed=2, batch_size=4)
        result = train(Recognizer(SMALL_MODEL, seed=2), tiny_split, cfg, out_dir=tmp_path)
        loaded, letters = load_checkpoint(tmp_path / "best.ckpt")
        assert letters == tiny_split.alphabet
        a = evaluate(result.model, tiny_split.dev).mean_letter_accuracy
        b = evaluate(loaded, tiny_split.dev).mean_letter_accuracy
        assert a == b

    def test_infeasible_clips_are_skipped(self, tiny_split, monkeypatch):
        # a clip whose target cannot fit its frames must not poison training
        import ctcseq.training as tr

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
        real, forwards = tr.forward_frames, []

        def counted(model, frames, **kwargs):
            forwards.append(frames)
            return real(model, frames, **kwargs)

        monkeypatch.setattr(tr, "forward_frames", counted)
        result = train(Recognizer(SMALL_MODEL, seed=0), split2, cfg)
        assert result.skipped_clips == 1
        assert len(forwards) == 3 + len(split2.dev)  # no forward for the clip that cannot fit

    def test_all_infeasible_clips_take_no_step(self, tiny_split):
        # even a zero-gradient AdamW step would decay the weights, so no batch may step
        bad = [replace(clip, frames=clip.frames[:2].copy(), target=(0, 0, 1, 1, 2, 2)) for clip in tiny_split.train[:3]]
        split = replace(tiny_split, train=bad)
        model = Recognizer(SMALL_MODEL, seed=0)
        before = {n: p.data.copy() for n, p in model.named_parameters().items()}
        result = train(model, split, TrainConfig(epochs=2, seed=0, batch_size=2))
        assert all(np.array_equal(p.data, before[n]) for n, p in model.named_parameters().items())
        assert result.skipped_clips == 2 * len(bad)
        assert [r.train_loss for r in result.log] == [float("inf")] * 2

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
        line = r"  clip \d+: target='[a-e]+' frames=\d+ handedness=(left|right) ctc=\S+ mel=\S+\n"
        assert re.fullmatch(rf"offending batch:\n({line})+", exc.value.dump)
        assert (tmp_path / "diagnostic_dump.txt").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_real_divergence_aborts_before_the_step(self, tmp_path):
        split = synthesize(0, 40, ALPHABET, GenConfig(frame_size=32, n_signers=5))
        model = Recognizer(SMALL_MODEL, seed=0)
        with pytest.raises(TrainingDiverged, match=r"non-finite gradient at epoch 1, batch of clips \d") as exc:
            train(model, split, TrainConfig(lr=1e6, epochs=3, batch_size=4), out_dir=tmp_path)
        assert "diagnostic_dump.txt" in str(exc.value)
        assert exc.value.dump.startswith("offending batch:")
        assert (tmp_path / "diagnostic_dump.txt").read_text(encoding="utf-8") == exc.value.dump
        assert all(np.isfinite(p.data).all() for p in model.parameters())

    @pytest.mark.parametrize("clone", [lambda e: pickle.loads(pickle.dumps(e)), copy.copy], ids=["pickle", "copy"])
    def test_divergence_error_survives_pickling_and_copying(self, clone):
        # a training run in a worker process hands its error, dump included, back through pickle
        err = clone(TrainingDiverged("non-finite loss", "offending batch:\n  clip 3: ..."))
        assert type(err) is TrainingDiverged and str(err) == "non-finite loss"
        assert err.dump == "offending batch:\n  clip 3: ..."

    @pytest.mark.parametrize("empty", ["train", "dev"])
    def test_empty_partition_is_rejected(self, tiny_split, empty):
        split = replace(tiny_split, **{empty: []})
        counts = rf"\({len(split.train)} train clips, {len(split.dev)} dev clips\)"
        with pytest.raises(ValueError, match=rf"the {empty} partition is empty {counts}"):
            train(Recognizer(SMALL_MODEL, seed=0), split, TrainConfig(epochs=1))

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
        assert checkpoint_parts(raw)[0]["extra"]["epoch"] == result.best_epoch
        best = load_checkpoint(tmp_path / "best.ckpt")[0].named_parameters()
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
        opt = AdamW(model.parameters())
        opt.lr = 3e-3
        losses = []
        for _ in range(120):
            dist = forward_frames(model, clip.frames)
            report = combined_loss(dist, clip.target, 0.0)
            losses.append(report.total)
            backward(report.node)
            clip_grad_norm(opt.params)
            opt.step()
            opt.zero_grad()
        smooth = np.convolve(losses, np.ones(20) / 20, mode="valid")
        assert np.all(np.diff(smooth) < 1e-3)
        assert smooth[-1] < smooth[0] * 0.5
        dist = forward_frames(model, clip.frames)
        assert greedy_decode(dist) == list(clip.target)


class TestPerClipBackward:
    """``train()`` runs each clip's backward right after its forward, seeded
    with 1/n; ``training_reference`` keeps one graph per batch and one
    backward of the batch mean."""

    def test_reproduces_the_batch_graph_bit_for_bit(self, tiny_split):
        cfg = TrainConfig(epochs=2, seed=6, batch_size=3, flip_prob=0.3)
        assert len(tiny_split.train) % cfg.batch_size != 0  # the last batch is partial
        per_clip, reference = Recognizer(SMALL_MODEL, seed=6), Recognizer(SMALL_MODEL, seed=6)
        result = train(per_clip, tiny_split, cfg)
        assert result.skipped_clips == 0
        assert [r.train_loss for r in result.log] == train_reference(reference, tiny_split, cfg)
        want = reference.named_parameters()
        for name, p in per_clip.named_parameters().items():
            assert np.array_equal(p.data, want[name].data), name

    def test_at_most_one_clip_graph_is_alive(self, tiny_split, monkeypatch):
        import ctcseq.training as tr

        class Marker:  # rides on each clip's loss node, so it lives exactly as long as the graph
            def __init__(self, vjp):
                self.vjp = vjp

            def __call__(self, g):
                return self.vjp(g)

        real, graphs, alive = tr.combined_loss, [], []

        def marked(dist, target, w):
            report = real(dist, target, w)
            marker = Marker(report.node._vjp)
            report.node._vjp = marker
            graphs.append(weakref.ref(marker))
            alive.append(sum(ref() is not None for ref in graphs))
            return report

        monkeypatch.setattr(tr, "combined_loss", marked)
        train(Recognizer(SMALL_MODEL, seed=0), tiny_split, TrainConfig(epochs=1, batch_size=len(tiny_split.train)))
        assert len(alive) == len(tiny_split.train) >= 4
        assert max(alive) == 1  # each clip's graph is freed right after its backward

    def test_backward_peak_stays_near_the_graph(self):
        # each conv layer frees its im2col columns once its weight gradient is made, and builds its
        # input gradient one tap at a time, so the backward adds little to the graph it walks
        split = synthesize(1, 8, Alphabet(tuple("abcde")), GenConfig(frame_size=64, n_signers=5, min_letters=4))
        clip = max(split.train, key=lambda c: c.num_frames)
        model = Recognizer(ModelConfig(), seed=0)
        tracemalloc.start()
        try:
            dist = forward_frames(model, clip.frames, rng=np.random.default_rng(0))
            report = combined_loss(dist, clip.target, 0.1)
            graph = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward(report.node)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert clip.num_frames >= 12
        assert peak <= 1.15 * graph, (peak, graph)

    def test_flipped_frames_die_before_the_next_forward(self, tiny_split, monkeypatch):
        import ctcseq.training as tr

        real_flip, real_forward, flipped, dead = tr.horizontal_flip, tr.forward_frames, [], []

        def flip(clip):
            out = real_flip(clip)
            flipped.append(weakref.ref(out.frames))
            return out

        def forward(model, frames, **kwargs):
            dead.append(all(ref() is None for ref in flipped[:-1]))
            return real_forward(model, frames, **kwargs)

        monkeypatch.setattr(tr, "horizontal_flip", flip)
        monkeypatch.setattr(tr, "forward_frames", forward)
        cfg = TrainConfig(epochs=1, batch_size=len(tiny_split.train), flip_prob=1.0)
        train(Recognizer(SMALL_MODEL, seed=0), tiny_split, cfg)
        assert len(flipped) == len(tiny_split.train) >= 4
        assert all(dead)  # only the clip being run may still hold its flipped copy

    @pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="glibc's mallopt only")
    def test_warm_train_step_does_not_page_fault(self):
        # glibc's default thresholds hand each freed clip graph back to the kernel, and the
        # next forward faults it in again: about 900 minor faults per clip
        split = synthesize(2, 16, Alphabet(tuple("abcde")), GenConfig(frame_size=64, n_signers=5, max_letters=2))
        split = replace(split, train=split.train[:8])
        cfg = TrainConfig(epochs=1, batch_size=4)
        faults = []
        for _ in range(2):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            train(Recognizer(ModelConfig(), seed=0), split, cfg)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert faults[1] / len(split.train) < 100, faults


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
