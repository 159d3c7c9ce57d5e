"""Optimization: seeded shuffling and flip augmentation, the combined
objective, a decoupled-weight-decay adaptive optimizer, best-dev
checkpointing, and the ablation harness.

Clips are processed one at a time, so no padding mask is needed: each
clip's backward runs right after its forward, and the batch's gradients
accumulate in clip order before a single update.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import decoder as dec
from .autodiff import Parameter, backward, no_grad
from .ctc import min_frames
from .data import DatasetSplit, SyntheticClip, check_ranges, horizontal_flip, normalize
from .losses import combined_loss
from .lm import CharNGramModel, lm_train
from .metrics import evaluate_clips
from .model import CONV_STRIDES, ModelConfig, Recognizer, motion_prior, save_checkpoint

log = logging.getLogger(__name__)

# fixed settings of every train() step: AdamW's moments, stabilizer and decay, and the grad-norm clip
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8
WEIGHT_DECAY = 0.01
GRAD_CLIP = 5.0


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters. ``lr`` is the peak learning rate: ``train()``
    decays it along a half cosine from ``lr`` at the first step towards 0 at
    the end of the run."""

    lr: float = 1e-3
    epochs: int = 20
    mel_weight: float = 0.1
    flip_prob: float = 0.3
    beam_width: int = 20
    lm_alpha: float = 0.2
    lm_order: int = 3
    seed: int = 0
    batch_size: int = 8

    def __post_init__(self):
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite: {self.lr}")
        check_ranges(self, {"epochs": ">= 1", "mel_weight": "in [0, 1]", "flip_prob": "in [0, 1]", "beam_width": ">= 1",
                            "lm_alpha": "in [0, 1]", "lm_order": ">= 1", "seed": ">= 0", "batch_size": ">= 1"})


class AdamW:
    """Adam with bias correction and decoupled weight decay.

    With a zero gradient the update reduces to p *= 1 - lr * WEIGHT_DECAY
    exactly. A ``None`` gradient counts as zero. ``lr`` starts at 0: train() sets it per step.
    """

    def __init__(self, params: list[Parameter]):
        self.params = list(params)
        self.lr = 0.0
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - BETA1**self.t
        c2 = 1.0 - BETA2**self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = 0.0 if p.grad is None else p.grad
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            update = (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
            p.data -= self.lr * (update + WEIGHT_DECAY * p.data)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


def clip_grad_norm(params: list[Parameter]) -> float:
    """Scale the gradients to norm at most ``GRAD_CLIP``; returns the norm before."""
    grads = [p.grad for p in params if p.grad is not None]
    total = math.sqrt(sum(float((g * g).sum()) for g in grads))
    if total > GRAD_CLIP:
        scale = GRAD_CLIP / total
        for g in grads:
            g *= scale
    return total


class TrainingDiverged(RuntimeError):
    """Raised when a batch produces a non-finite loss or gradient; carries a
    dump of the batch."""

    def __init__(self, message: str, dump: str):
        super().__init__(message)
        self.dump = dump


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    dev_acc_greedy: float


@dataclass
class TrainResult:
    model: Recognizer
    log: list[EpochRecord]
    best_dev_acc: float
    best_epoch: int
    skipped_clips: int


def forward_frames(model: Recognizer, frames, training: bool = False, rng=None, name: str = "clip"):
    """Run ``model`` on raw RGB frames (T, 3, H, W) in [0, 1]: the motion
    prior comes from the raw frames, the network reads them normalized.
    Frames whose conv output is smaller than ``feat_grid`` raise a
    ValueError that starts with ``name``."""
    h, w = size = frames.shape[2:]
    for stride in CONV_STRIDES:
        size = [-(-n // stride) for n in size]  # a 3x3 kernel with padding 1 keeps ceil(n / stride)
    gh, gw = model.cfg.feat_grid
    if size[0] < gh or size[1] < gw:
        raise ValueError(f"{name}: input frames too small: {h}x{w} frames give conv output "
                         f"{size[0]}x{size[1]}, below feature grid {gh}x{gw}")
    priors = motion_prior(frames, model.cfg.feat_grid)
    return model.forward(normalize(frames), priors=priors, training=training, rng=rng)


def evaluate(model: Recognizer, clips: list[SyntheticClip], decoder: str = "greedy",
             beam_width: int = TrainConfig.beam_width, lm: CharNGramModel | None = None,
             alpha: float = TrainConfig.lm_alpha, alphabet=None, prefix: str = "clip"):
    """Decode every clip and score letter accuracy against the targets."""
    results = []
    with no_grad():
        for i, clip in enumerate(clips):
            name = f"{prefix}_{i:05d}"
            dist = forward_frames(model, clip.frames, name=name)
            pred = dec.decode(dist, decoder, beam_width, lm, alpha, alphabet)
            results.append((name, pred, list(clip.target)))
    return evaluate_clips(results)


def train(model: Recognizer, split: DatasetSplit, cfg: TrainConfig,
          out_dir=None) -> TrainResult:
    """Seeded training with flip augmentation and best-dev checkpointing.

    The learning rate follows a half-cosine decay over the whole run: after
    k of K = epochs * ceil(len(train) / batch_size) optimizer steps it is
    ``cfg.lr * (1 + cos(pi * k / K)) / 2``, so ``cfg.lr`` is the peak.

    Each clip's backward is seeded with 1/n, its share of the mean over the
    batch's n clips, and its graph is freed before the next clip's forward,
    so one clip graph is alive at a time and the weights are bit for bit
    those of one backward of the batch mean. A
    non-finite loss or gradient aborts with ``TrainingDiverged`` and a
    diagnostic dump of the batch so far, before any weight takes the step.
    Clips with fewer frames than ``min_frames(target)`` are skipped, with a
    warning, before their forward.

    ``TrainResult.model`` is ``model`` itself, trained in place, so it holds
    the last epoch's weights; ``out_dir/best.ckpt`` holds the best-dev
    epoch's, ``best_epoch``.
    """
    if not split.train or not split.dev:
        raise ValueError(f"cannot train: the {'dev' if split.train else 'train'} partition is empty "
                         f"({len(split.train)} train clips, {len(split.dev)} dev clips)")
    opt = AdamW(model.parameters())
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    total_steps = cfg.epochs * math.ceil(len(split.train) / cfg.batch_size)

    records: list[EpochRecord] = []
    best_acc = -1.0
    best_epoch = -1
    skipped = 0
    for epoch in range(1, cfg.epochs + 1):
        rng = np.random.default_rng([cfg.seed, epoch])
        order = rng.permutation(len(split.train))
        epoch_losses: list[float] = []
        for start in range(0, len(order), cfg.batch_size):
            batch_idx = order[start : start + cfg.batch_size]
            batch = [split.train[int(j)] for j in batch_idx]
            fits = [clip.num_frames >= min_frames(clip.target) for clip in batch]  # the batch mean is over these
            batch_info = []
            for j, clip, fit in zip(batch_idx, batch, fits):
                if rng.random() < cfg.flip_prob:
                    clip = horizontal_flip(clip)
                if not fit:
                    skipped += 1
                    log.warning("skipping clip %d: target needs more frames than available", int(j))
                    continue
                dist = forward_frames(model, clip.frames, training=True, rng=rng, name=f"clip {int(j)}")
                report = combined_loss(dist, clip.target, cfg.mel_weight)
                batch_info.append((int(j), clip, replace(report, node=None)))
                if not math.isfinite(report.total):
                    raise _diverged(f"non-finite loss at epoch {epoch}, clip {int(j)}", batch_info, split, out)
                epoch_losses.append(report.total)
                with np.errstate(over="ignore", invalid="ignore"):  # the norm check below reports these
                    backward(report.node, np.asarray(1.0 / sum(fits)))
                del dist, report  # free this clip's graph before the next forward
            if not batch_info:
                continue
            if not math.isfinite(clip_grad_norm(opt.params)):
                clips = ", ".join(str(idx) for idx, _, _ in batch_info)
                raise _diverged(f"non-finite gradient at epoch {epoch}, batch of clips {clips}", batch_info, split, out)
            opt.lr = cfg.lr * 0.5 * (1.0 + math.cos(math.pi * opt.t / total_steps))
            opt.step()
            opt.zero_grad()

        train_loss = float(np.mean(epoch_losses)) if epoch_losses else float("inf")
        dev_report = evaluate(model, split.dev, decoder="greedy", prefix="dev")
        acc = dev_report.mean_letter_accuracy
        records.append(EpochRecord(epoch, train_loss, acc))
        if acc > best_acc:
            best_acc = acc
            best_epoch = epoch
            if out is not None:
                save_checkpoint(model, out / "best.ckpt", split.alphabet, extra={"epoch": epoch, "dev_acc": acc})
        if out is not None:
            (out / "epoch.log").write_text(
                "".join(f"{r.epoch}\t{r.train_loss:.10f}\t{r.dev_acc_greedy:.6f}\n" for r in records),
                encoding="utf-8",
            )
    return TrainResult(model=model, log=records, best_dev_acc=best_acc,
                       best_epoch=best_epoch, skipped_clips=skipped)


def _diverged(message: str, batch_info, split: DatasetSplit, out: Path | None) -> TrainingDiverged:
    """The divergence error for the batch so far, its dump written to
    ``out/diagnostic_dump.txt`` when there is an ``out``."""
    lines = ["offending batch:"]
    for idx, clip, report in batch_info:
        word = split.alphabet.decode(clip.target)
        lines.append(
            f"  clip {idx}: target={word!r} frames={clip.num_frames} "
            f"handedness={clip.handedness} ctc={report.ctc!r} mel={report.mel!r}"
        )
    dump = "\n".join(lines) + "\n"
    if out is not None:
        (out / "diagnostic_dump.txt").write_text(dump, encoding="utf-8")
        message += f"; diagnostic dump in {out / 'diagnostic_dump.txt'}"
    return TrainingDiverged(message, dump)


# ---------------------------------------------------------------------------
# ablation harness

ABLATION_ROWS = (
    ("ctc", False, False),
    ("ctc+mel", True, False),
    ("ctc+flip", False, True),
    ("ctc+mel+flip", True, True),
)


@dataclass
class AblationTable:
    rows: list[tuple[str, dict[str, float]]]

    def to_text(self) -> str:
        header = f"{'setting':<16}" + "".join(f"{d:>10}" for d in dec.DECODERS)
        lines = [header]
        for label, cells in self.rows:
            lines.append(f"{label:<16}" + "".join(f"{cells[d]:>10.4f}" for d in dec.DECODERS))
        return "\n".join(lines) + "\n"


def train_and_score(model: Recognizer, split: DatasetSplit, cfg: TrainConfig) -> dict[str, float]:
    """Train ``model`` in place, then return its dev mean letter accuracy
    under each of ``DECODERS``, beam-lm fused with the order-``cfg.lm_order``
    LM of the train words."""
    train(model, split, cfg)
    lm = lm_train([split.alphabet.decode(c.target) for c in split.train], order=cfg.lm_order)
    return {
        decoder: evaluate(model, split.dev, decoder=decoder, beam_width=cfg.beam_width, lm=lm,
                          alpha=cfg.lm_alpha, alphabet=split.alphabet).mean_letter_accuracy
        for decoder in dec.DECODERS
    }


def ablate(split: DatasetSplit, base_cfg: TrainConfig, model_cfg: ModelConfig) -> AblationTable:
    """Train a fresh model on each of the four loss/augmentation combinations
    and score it with ``train_and_score``."""
    rows = []
    for label, use_mel, use_flip in ABLATION_ROWS:
        cfg = replace(
            base_cfg,
            mel_weight=base_cfg.mel_weight if use_mel else 0.0,
            flip_prob=base_cfg.flip_prob if use_flip else 0.0,
        )
        rows.append((label, train_and_score(Recognizer(model_cfg, seed=cfg.seed), split, cfg)))
    return AblationTable(rows=rows)
