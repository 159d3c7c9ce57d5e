"""CTC decoders: greedy, prefix beam search with blank/non-blank mass
splitting, and beam search fused with a character n-gram language model.

All decoders are pure functions of their inputs and deterministic: argmax
ties break toward the lowest class index, and score ties break toward the
lexicographically smaller (then shorter) prefix.

The decoders read frame distributions as log-probabilities only. The scalar
beam search they are checked against, and the hand-derived distribution on
which greedy and beam search disagree, live in ``tests/beam_reference.py``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ctc import NEG_INF, Alphabet, collapse
from .lm import EOS, CharNGramModel


@dataclass
class BeamHypothesis:
    """A collapsed label prefix with split alignment mass.

    ``logp_blank`` holds the mass of alignments ending in blank,
    ``logp_nonblank`` the mass ending in the prefix's last letter;
    ``score`` is the ranking score used for retention (total log mass for
    plain beam search, the fused probability-domain score with a language
    model).
    """

    prefix: tuple[int, ...]
    logp_blank: float
    logp_nonblank: float
    score: float

    @property
    def log_total(self) -> float:
        return float(np.logaddexp(self.logp_blank, self.logp_nonblank))


def greedy_decode(dist) -> list[int]:
    """Collapse of the per-frame argmax path (ties -> lowest class index)."""
    path = np.argmax(dist.log_probs.data, axis=1)
    return collapse(path.tolist(), dist.blank_index)


def beam_search(
    dist,
    beam_width: int,
    lm: CharNGramModel | None = None,
    alpha: float = 0.0,
    alphabet: Alphabet | None = None,
) -> list[BeamHypothesis]:
    """Prefix beam search; returns the final hypotheses, best first.

    Equal prefixes reached through different alignments are merged by
    adding their masses. With a language model, the ranking score of a
    prefix extended by a letter this step becomes
    (1 - alpha) * s_b + alpha * P(letter | previous <= order letters),
    where s_b is the prefix's posterior mass normalized over the current
    candidate set; retention is otherwise identical. At finalization the
    language model contributes its end-of-sequence probability once. A
    language model with a letter outside ``alphabet`` is refused.

    A frame is a few array steps on a beams x (1 + letters) matrix: column
    0 keeps the prefix (blank, or its last letter again), column 1 + l
    appends letter l. An extension equal to a beam merges into whichever of
    the two cells comes first in row-major order, the order the normalizer
    is reduced in. Each beam carries its context's language-model row.
    Fused scores are those of ``math.exp``; ``np.exp``, which can miss it
    by an ulp, only ranks them, within 1e-15 as they lie in [0, 1]. Both
    searches keep the cells ranked within 1e-12 of the k-th best and sort
    them by exact score, so every cell left out or let in by the margin
    ranks below the k best.
    """
    if beam_width < 1:
        raise ValueError(f"beam width must be >= 1: {beam_width}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"language model weight must be in [0, 1]: {alpha}")
    stray = sorted(set(lm.vocab) - {EOS} - set(alphabet.letters)) if lm is not None and alphabet is not None else []
    if stray:
        raise ValueError(f"language model letters {''.join(stray)!r} are not in the alphabet "
                         f"{''.join(alphabet.letters)!r}")
    lm = lm if alpha > 0.0 else None
    blank, width = dist.blank_index, dist.blank_index + 1
    if lm is not None:
        if alphabet is None:
            raise ValueError("language-model fusion requires the alphabet")
        if len(alphabet.letters) != blank:
            raise ValueError(f"the alphabet has {len(alphabet.letters)} letters, the frame distributions {blank}")
        rows: dict[tuple[int, ...], np.ndarray] = {}  # LM rows by context letters

        def row(prefix: tuple[int, ...]) -> np.ndarray:
            context = prefix[-lm.order:]
            if context not in rows:
                rows[context] = lm.cond_probs(alphabet.letters, alphabet.decode(context))
            return rows[context]

        beam_rows = [row(())]

    beams: list[tuple[int, ...]] = [()]
    pb, pnb = np.zeros(1), np.full(1, NEG_INF)
    for lp in dist.log_probs.data:
        total = np.logaddexp(pb, pnb)
        cand_b = np.full((len(beams), width), NEG_INF)
        cand_b[:, 0] = total + lp[blank]
        cand_nb = np.full_like(cand_b, NEG_INF)
        cand_nb[:, 1:] = total[:, None] + lp[:blank]
        # the last letter again: a repeat after a letter, a new one after a blank
        run = np.array([i for i, p in enumerate(beams) if p], dtype=int)
        letter = np.array([beams[i][-1] for i in run], dtype=int)
        cand_nb[run, 0] = pnb[run] + lp[letter]
        cand_nb[run, 1 + letter] = pb[run] + lp[letter]
        lm_p = np.full_like(cand_b, -1.0)  # P(letter | context) where a letter was appended
        if lm is not None:
            lm_p[:, 1:] = beam_rows
        b, nb, p_lm = cand_b.ravel(), cand_nb.ravel(), lm_p.ravel()  # row-major views
        index = {p: i for i, p in enumerate(beams)}
        # a beam equal to another's extension: of its stay and extension cells, the first in
        # row-major order takes both; no cell is in two pairs, so one array step merges all
        pairs = np.array([(j * width, index[p[:-1]] * width + 1 + p[-1])
                          for j, p in enumerate(beams) if p and p[:-1] in index], dtype=int).reshape(-1, 2)
        stay, ext = pairs[nb[pairs[:, 1]] > NEG_INF].T
        first, last = np.minimum(stay, ext), np.maximum(stay, ext)
        nb[first], b[first], p_lm[first] = np.logaddexp(nb[stay], nb[ext]), b[stay], p_lm[ext]
        b[last] = nb[last] = NEG_INF
        score = nb.copy()  # logaddexp(-inf, y) is y, so only cells with blank mass need it
        live = np.flatnonzero(b > NEG_INF)
        score[live] = np.logaddexp(b[live], nb[live])
        rank = score
        if lm is not None:  # the fused scores, estimated with np.exp
            x = score - np.logaddexp.reduce(score)
            rank = np.where(p_lm >= 0.0, (1.0 - alpha) * np.exp(x) + alpha * p_lm, np.exp(x))
            rank[score == NEG_INF] = NEG_INF
        k = min(beam_width, int(np.count_nonzero(score > NEG_INF)))
        picked = np.flatnonzero(rank >= np.partition(rank, rank.size - k)[rank.size - k] - 1e-12)
        values = score[picked].tolist() if lm is None else [  # the exact fused scores
            (1.0 - alpha) * math.exp(v) + alpha * p if p >= 0.0 else math.exp(v)
            for v, p in zip(x[picked].tolist(), p_lm[picked].tolist())]
        kept = sorted(  # (-score, prefix, cell) ranked at, above or near the k-th best
            (-s, beams[f // width] + ((f % width - 1,) if f % width else ()), f)
            for s, f in zip(values, picked.tolist())
        )[:beam_width]
        cells = [f for *_, f in kept]
        if lm is not None:  # a kept prefix keeps its beam's row or takes its new context's
            beam_rows = [beam_rows[f // width] if f % width == 0 else row(p) for _, p, f in kept]
        beams, pb, pnb = [p for _, p, _ in kept], b[cells], nb[cells]

    totals = np.logaddexp(pb, pnb)
    scores = totals.tolist()
    if lm is not None:
        norm = np.logaddexp.reduce(totals)
        scores = [(1.0 - alpha) * math.exp(t - norm) + alpha * lm.cond_prob(EOS, alphabet.decode(p))
                  for t, p in zip(scores, beams)]
    order = sorted(range(len(beams)), key=lambda i: (-scores[i], beams[i]))
    return [BeamHypothesis(beams[i], float(pb[i]), float(pnb[i]), scores[i]) for i in order]


def beam_decode(dist, beam_width: int) -> list[int]:
    """Highest-total-mass prefix after beam search."""
    return list(beam_search(dist, beam_width)[0].prefix)


def lm_fused_beam_decode(
    dist,
    beam_width: int,
    lm: CharNGramModel,
    alpha: float,
    alphabet: Alphabet,
) -> list[int]:
    """Beam search with language-model score fusion at letter extensions."""
    return list(beam_search(dist, beam_width, lm=lm, alpha=alpha, alphabet=alphabet)[0].prefix)


DECODERS = ("greedy", "beam", "beam-lm")


def decode(dist, decoder: str, beam_width: int, lm: CharNGramModel | None, alpha: float,
           alphabet: Alphabet | None) -> list[int]:
    """Labels of ``dist`` under the named decoder, one of ``DECODERS``."""
    if decoder == "greedy":
        return greedy_decode(dist)
    if decoder == "beam":
        return beam_decode(dist, beam_width)
    if decoder == "beam-lm":
        if lm is None or alphabet is None:
            raise ValueError("beam-lm decoding requires a language model and alphabet")
        return lm_fused_beam_decode(dist, beam_width, lm, alpha, alphabet)
    raise ValueError(f"unknown decoder {decoder!r}")
