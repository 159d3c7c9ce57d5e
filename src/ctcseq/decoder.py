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

from .ctc import Alphabet, collapse
from .lm import EOS, CharNGramModel

NEG_INF = float("-inf")


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
    language model contributes its end-of-sequence probability once.

    A frame is a few array steps on a beams x (1 + letters) matrix: column
    0 keeps the prefix (blank, or its last letter again), column 1 + l
    appends letter l. An extension equal to a beam merges into the first
    of the two cells in row-major order, the order the normalizer is
    reduced in. The language model gives one row per context.
    """
    if beam_width < 1:
        raise ValueError(f"beam width must be >= 1: {beam_width}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"language model weight must be in [0, 1]: {alpha}")
    lm = lm if alpha > 0.0 else None
    if lm is not None and alphabet is None:
        raise ValueError("language-model fusion requires the alphabet")
    blank, width = dist.blank_index, dist.blank_index + 1
    rows: dict[tuple[int, ...], np.ndarray] = {}  # LM rows by context letters

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
            for i, p in enumerate(beams):
                if p[-lm.order:] not in rows:
                    rows[p[-lm.order:]] = lm.cond_probs(alphabet.letters, alphabet.decode(p[-lm.order:]))
                lm_p[i, 1:] = rows[p[-lm.order:]]
        index = {p: i for i, p in enumerate(beams)}
        for j, p in enumerate(beams):
            i = index.get(p[:-1]) if p else None
            if i is None or cand_nb[i, 1 + p[-1]] == NEG_INF:
                continue
            col = 1 + p[-1]
            if j < i:  # beam j's cell comes first and takes the extension
                cand_nb[j, 0] = np.logaddexp(cand_nb[j, 0], cand_nb[i, col])
                cand_nb[i, col] = NEG_INF
                lm_p[j, 0] = lm_p[i, col]
            else:  # the extension's cell comes first and takes beam j
                cand_nb[i, col] = np.logaddexp(cand_nb[j, 0], cand_nb[i, col])
                cand_b[i, col] = cand_b[j, 0]
                cand_b[j, 0] = cand_nb[j, 0] = NEG_INF
        score = np.logaddexp(cand_b, cand_nb).ravel()
        if lm is not None:
            # math.exp: np.exp differs from it in the last bit on some inputs
            s_b = np.array([math.exp(x) for x in (score - np.logaddexp.reduce(score)).tolist()])
            fused = lm_p.ravel() >= 0.0
            s_b[fused] = (1.0 - alpha) * s_b[fused] + alpha * lm_p.ravel()[fused]
            score = np.where(score > NEG_INF, s_b, NEG_INF)
        k = min(beam_width, int(np.count_nonzero(score > NEG_INF)))
        picked = np.flatnonzero(score >= np.partition(score, score.size - k)[score.size - k])
        kept = sorted(  # (-score, prefix, cell) at or above the k-th best score
            (-s, beams[f // width] + ((f % width - 1,) if f % width else ()), f)
            for s, f in zip(score[picked].tolist(), picked.tolist())
        )[:beam_width]
        cells = [f for *_, f in kept]
        beams, pb, pnb = [p for _, p, _ in kept], cand_b.ravel()[cells], cand_nb.ravel()[cells]

    return _finalize(beams, pb, pnb, lm, alpha, alphabet)


def _finalize(beams, pb, pnb, lm, alpha: float, alphabet) -> list[BeamHypothesis]:
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
        stray = sorted(set(lm.vocab) - {EOS} - set(alphabet.letters))
        if stray:
            raise ValueError(f"language model letters {''.join(stray)!r} are not in the alphabet "
                             f"{''.join(alphabet.letters)!r}")
        return lm_fused_beam_decode(dist, beam_width, lm, alpha, alphabet)
    raise ValueError(f"unknown decoder {decoder!r}")
