"""CTC probability model: the alphabet, per-frame distributions, the
collapse map, and the forward-backward loss with gradients w.r.t. the
producing log-probabilities.

Blank always occupies the last class index. Frame distributions are stored
as natural-log probabilities, their one form, and the lattice runs in the
log domain. The brute-force oracles over probability arrays live beside
the tests, in ``tests/ctc_reference.py``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _node, as_tensor
from .lm import EMPTY_CONTEXT

NEG_INF = float("-inf")


@dataclass(frozen=True)
class Alphabet:
    """Ordered letter set; blank is the implicit extra class at index C."""

    letters: tuple[str, ...]

    def __post_init__(self):
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        if len(set(letters)) != len(letters):
            raise ValueError("alphabet letters must be distinct")
        if not letters:
            raise ValueError("alphabet must contain at least one letter")
        for ch in letters:
            if len(ch) != 1 or not ch.isprintable() or ch.isspace() or ch == EMPTY_CONTEXT:
                raise ValueError(f"alphabet letters must be single printable characters, not a space or "
                                 f"{EMPTY_CONTEXT!r}: {ch!r}")

    @property
    def blank_index(self) -> int:
        return len(self.letters)

    @property
    def num_classes(self) -> int:
        """C' = C letters plus blank."""
        return len(self.letters) + 1

    def encode(self, text: str) -> list[int]:
        return [self.letters.index(ch) for ch in text]

    def decode(self, labels) -> str:
        return "".join(self.letters[i] for i in labels)


@dataclass
class FrameDistributionSeq:
    """Per-frame natural-log probability rows over C' classes (letters +
    blank); -inf marks a class of probability zero.

    ``log_probs`` may be attached to a graph, so CTC and MEL differentiate
    through to the producing logits.
    """

    log_probs: Tensor

    def __post_init__(self):
        self.log_probs = as_tensor(self.log_probs)
        arr = self.log_probs.data
        if arr.ndim != 2:
            raise ValueError(f"frame distributions must be T x C': got shape {arr.shape}")
        if np.any(arr > 0.0):
            raise ValueError("frame log-probabilities must not exceed 0")
        if not np.all(np.abs(np.logaddexp.reduce(arr, axis=1)) <= 1e-9):
            raise ValueError("each frame distribution row must sum to 1 (logsumexp 0)")

    @property
    def num_classes(self) -> int:
        return self.log_probs.shape[1]

    @property
    def blank_index(self) -> int:
        return self.num_classes - 1


def collapse(path, blank: int) -> list[int]:
    """The many-to-one map from alignments to label sequences.

    Merges adjacent duplicates first, then removes blanks.
    """
    out: list[int] = []
    prev = None
    for p in path:
        if p != prev:
            out.append(p)
        prev = p
    return [p for p in out if p != blank]


def validate_target(target, num_letters: int) -> list[int]:
    target = list(target)
    if any(not 0 <= l < num_letters for l in target):
        raise ValueError("target labels must be letter indices (blank excluded)")
    return target


def min_frames(target) -> int:
    """The fewest frames that carry ``target``: one per letter, one blank per adjacent repeat."""
    return len(target) + sum(a == b for a, b in zip(target, target[1:]))


def _extended_target(target: list[int], blank: int) -> np.ndarray:
    ext = np.full(2 * len(target) + 1, blank)
    ext[1::2] = target
    return ext


def _lattice(lp: np.ndarray, ext) -> np.ndarray:
    """Log mass entering each lattice state at frame t, before frame t's
    emission. ``_lattice(lp, ext) + lp[:, ext]`` is the forward variable;
    the backward variable is the same recursion run on reversed frames and
    the reversed extended target, flipped back.
    """
    emit = lp[:, ext]
    # a skip over a blank is allowed unless it would merge a repeated letter
    skip = np.flatnonzero((ext[2:] != ext[0]) & (ext[2:] != ext[:-2])) + 2
    mass = np.full(emit.shape, NEG_INF)
    mass[:1, :2] = 0.0  # with no frames there is no first row, and the lattice is empty
    for t in range(1, len(mass)):
        prev = mass[t - 1] + emit[t - 1]
        cur = prev.copy()
        cur[1:] = np.logaddexp(cur[1:], prev[:-1])
        cur[skip] = np.logaddexp(cur[skip], prev[skip - 2])
        mass[t] = cur
    return mass


@dataclass
class CtcLossResult:
    """The loss node; a wrapper only because the bench's tracer reads ``.loss``."""

    loss: Tensor


def ctc_loss(dist: FrameDistributionSeq, target) -> CtcLossResult:
    """-ln p(target | dist), differentiable through to the producing logits.

    Repeated letters in the target are handled by the interleaved-blank
    lattice. A target no alignment carries (fewer frames than
    ``min_frames``, or a letter of probability zero) gives -ln 0 = +inf
    and no graph; ``train`` skips short clips before their forward.
    """
    target = validate_target(target, dist.blank_index)
    lp = dist.log_probs.data
    t_total, cprime = lp.shape
    ext = _extended_target(target, cprime - 1)

    # one row past the last frame, never emitted: its final blank state holds
    # the mass of both end states, and with no frames only the empty target's
    mass = _lattice(np.vstack([lp, np.zeros(cprime)]), ext)
    alpha, log_p = mass[:-1] + lp[:, ext], mass[-1, -1]
    if log_p == NEG_INF:  # no alignment has mass: the vjp below would be NaN
        return CtcLossResult(Tensor(float("inf")))

    beta = _lattice(lp[::-1], ext[::-1])[::-1, ::-1]

    # Soft-alignment posterior per (frame, class), aggregated over lattice
    # states carrying the same label.
    occupancy = alpha + beta
    gamma = np.full((t_total, cprime), NEG_INF)
    for s, lab in enumerate(ext):
        gamma[:, lab] = np.logaddexp(gamma[:, lab], occupancy[:, s])

    def vjp(g):
        return (-np.exp(gamma - log_p) * g,)

    out = _node(np.asarray(-log_p), (dist.log_probs,), vjp)
    return CtcLossResult(out)
