"""The one-graph-per-batch step loop that ``ctcseq.training.train`` replaced,
kept as the oracle for its streamed per-clip backward: every clip's graph
stays alive until the batch mean ``(n_1 + ... + n_k) * (1 / k)`` gets one
backward on the calling thread, then the gradient is clipped and AdamW takes
the step. The dev pass, checkpoints and divergence checks are left out;
none of them touches the weights or the random draws.
"""
from __future__ import annotations

import math

import numpy as np

from ctcseq.autodiff import backward
from ctcseq.data import DatasetSplit, horizontal_flip
from ctcseq.losses import combined_loss
from ctcseq.model import Recognizer
from ctcseq.training import AdamW, TrainConfig, clip_grad_norm, forward_frames


def train_reference(model: Recognizer, split: DatasetSplit, cfg: TrainConfig) -> list[float]:
    """Train ``model`` in place; returns the mean clip loss of each epoch."""
    opt = AdamW(model.parameters())
    total_steps = cfg.epochs * math.ceil(len(split.train) / cfg.batch_size)
    losses = []
    for epoch in range(1, cfg.epochs + 1):
        rng = np.random.default_rng([cfg.seed, epoch])
        order = rng.permutation(len(split.train))
        epoch_losses = []
        for start in range(0, len(order), cfg.batch_size):
            nodes = []
            for j in order[start : start + cfg.batch_size]:
                clip = split.train[int(j)]
                if rng.random() < cfg.flip_prob:
                    clip = horizontal_flip(clip)
                dist = forward_frames(model, clip.frames, rng=rng)
                report = combined_loss(dist, clip.target, cfg.mel_weight)
                if math.isfinite(report.total):
                    nodes.append(report.node)
                    epoch_losses.append(report.total)
            if not nodes:
                continue
            total = nodes[0]
            for node in nodes[1:]:
                total = total + node
            backward(total * (1.0 / len(nodes)))
            clip_grad_norm(opt.params)
            opt.lr = cfg.lr * 0.5 * (1.0 + math.cos(math.pi * opt.t / total_steps))
            opt.step()
            opt.zero_grad()
        losses.append(float(np.mean(epoch_losses)))
    return losses
