"""Maximum-entropy regularizer and the combined training objective.

MEL is reported in bits (base-2 logs at the loss boundary); the combined
total converts it to nats so both terms share units.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .autodiff import Tensor, clamp_min, exp, log, mean_, mul, sub, sum_
from .ctc import CtcLossResult, FrameDistributionSeq, ctc_loss

LN2 = math.log(2.0)

PROB_FLOOR = 1e-12


def max_entropy_loss(dist: FrameDistributionSeq) -> Tensor:
    """log2(C') minus the mean per-frame entropy, in bits.

    Zero for uniform frames, log2(C') for one-hot frames. The probabilities
    are exponentiated from ``dist.log_probs`` inside the graph; the
    0*log(0) convention is realized by clamping them inside the log only,
    which keeps the gradient finite (also for -inf log-probs) while matching
    the entropy limit.
    """
    p = exp(dist.log_probs)
    log2p = mul(log(clamp_min(p, PROB_FLOOR)), 1.0 / LN2)
    entropy_bits = -mean_(sum_(mul(p, log2p), axis=1))
    return sub(math.log2(dist.num_classes), entropy_bits)


@dataclass
class LossReport:
    """One training objective evaluation; ``node`` carries the graph."""

    ctc: float
    mel: float
    total: float
    feasible: bool
    node: Tensor | None


def combined_loss(dist: FrameDistributionSeq, target, mel_weight: float) -> LossReport:
    """ctc + mel_weight * mel, with mel converted from bits to nats.

    Propagates the CTC infeasibility flag; an infeasible clip reports an
    infinite total and no graph node.
    """
    if not 0.0 <= mel_weight <= 1.0:
        raise ValueError(f"mel_weight must be in [0, 1]: {mel_weight}")
    ctc_res: CtcLossResult = ctc_loss(dist, target)
    mel = max_entropy_loss(dist)
    if not ctc_res.feasible:
        return LossReport(
            ctc=float("inf"),
            mel=mel.item(),
            total=float("inf"),
            feasible=False,
            node=None,
        )
    total = ctc_res.loss + mul(mel, mel_weight * LN2)
    return LossReport(
        ctc=ctc_res.loss.item(),
        mel=mel.item(),
        total=total.item(),
        feasible=True,
        node=total,
    )
