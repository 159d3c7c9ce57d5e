"""CTC decoders: greedy, prefix beam search with blank/non-blank mass
splitting, and beam search fused with a character n-gram language model.

All decoders are pure functions of their inputs and deterministic: argmax
ties break toward the lowest class index, and score ties break toward the
lexicographically smaller (then shorter) prefix.
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


def _expand_step(beams: dict, lp: np.ndarray, blank: int) -> dict:
    """One time step of prefix beam search.

    Returns prefix -> [logp_blank, logp_nonblank, extended_this_step].
    """
    nxt: dict[tuple[int, ...], list] = {}
    for prefix, (pb, pnb) in beams.items():
        total = np.logaddexp(pb, pnb)
        entry = nxt.setdefault(prefix, [NEG_INF, NEG_INF, False])
        # blank keeps the prefix and moves all mass to the blank bucket
        entry[0] = np.logaddexp(entry[0], total + lp[blank])
        if prefix:
            # same letter again extends the current run, prefix unchanged
            entry[1] = np.logaddexp(entry[1], pnb + lp[prefix[-1]])
        for letter in range(blank):
            base = pb if (prefix and letter == prefix[-1]) else total
            if base == NEG_INF:
                continue
            mass = base + lp[letter]
            if mass == NEG_INF:
                continue
            grown = nxt.setdefault(prefix + (letter,), [NEG_INF, NEG_INF, False])
            grown[1] = np.logaddexp(grown[1], mass)
            grown[2] = True
    return {k: v for k, v in nxt.items() if np.logaddexp(v[0], v[1]) > NEG_INF}


def _letters_of(prefix: tuple[int, ...], alphabet: Alphabet | None) -> str:
    if alphabet is None:
        raise ValueError("language-model fusion requires the alphabet")
    return alphabet.decode(prefix)


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
    """
    if beam_width < 1:
        raise ValueError(f"beam width must be >= 1: {beam_width}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"language model weight must be in [0, 1]: {alpha}")
    logp = dist.log_probs.data
    blank = dist.blank_index

    beams: dict[tuple[int, ...], tuple[float, float]] = {(): (0.0, NEG_INF)}
    for t in range(dist.num_frames):
        candidates = _expand_step(beams, logp[t], blank)
        scored = _score_candidates(candidates, lm, alpha, alphabet)
        scored.sort(key=lambda item: (-item[0], item[1]))
        kept = scored[:beam_width]
        beams = {prefix: (pb, pnb) for _, prefix, pb, pnb in kept}

    return _finalize(beams, lm, alpha, alphabet)


def _score_candidates(candidates: dict, lm, alpha: float, alphabet) -> list:
    totals = {p: np.logaddexp(v[0], v[1]) for p, v in candidates.items()}
    if lm is None or alpha == 0.0:
        return [(totals[p], p, v[0], v[1]) for p, v in candidates.items()]
    norm = np.logaddexp.reduce(np.array(list(totals.values())))
    out = []
    for prefix, (pb, pnb, extended) in candidates.items():
        s_b = math.exp(totals[prefix] - norm)
        if extended and prefix:
            context = _letters_of(prefix[:-1], alphabet)
            p_lm = lm.cond_prob(_letters_of(prefix[-1:], alphabet), context)
            score = (1.0 - alpha) * s_b + alpha * p_lm
        else:
            score = s_b
        out.append((score, prefix, pb, pnb))
    return out


def _finalize(beams: dict, lm, alpha: float, alphabet) -> list[BeamHypothesis]:
    if not beams:
        return [BeamHypothesis((), 0.0, NEG_INF, 0.0)]
    totals = {p: np.logaddexp(pb, pnb) for p, (pb, pnb) in beams.items()}
    if lm is None or alpha == 0.0:
        items = [(totals[p], p) for p in beams]
    else:
        norm = np.logaddexp.reduce(np.array(list(totals.values())))
        items = []
        for prefix in beams:
            s_b = math.exp(totals[prefix] - norm)
            p_end = lm.cond_prob(EOS, _letters_of(prefix, alphabet))
            items.append(((1.0 - alpha) * s_b + alpha * p_end, prefix))
    items.sort(key=lambda item: (-item[0], item[1]))
    return [
        BeamHypothesis(prefix, beams[prefix][0], beams[prefix][1], score)
        for score, prefix in items
    ]


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


def greedy_beam_disagreement_example() -> tuple[np.ndarray, Alphabet]:
    """A 5-frame distribution where greedy and beam search disagree.

    The per-frame argmax path collapses to "oat" while the full posterior
    over alignments favors "cat" (mass just under 9/16), so beam search
    with a modest width recovers the higher-mass sequence that greedy
    misses. The values sit at the optimum found by
    scripts/derive_decoder_example.py: two near-tied letter/blank frames
    feed a four-way tied frame whose argmax resolves to "o" by the
    lowest-index rule, and 9/16 is the largest posterior any 5-frame
    distribution with this greedy output can give the beam's answer.
    """
    alphabet = Alphabet(("o", "c", "a", "t"))
    o, c, a, t = alphabet.encode("ocat")
    blank = alphabet.blank_index
    probs = np.zeros((5, 5))
    probs[0, c] = 0.4999
    probs[0, blank] = 0.5001
    probs[1, c] = 0.4999
    probs[1, blank] = 0.5001
    probs[2, o] = 0.25
    probs[2, c] = 0.25
    probs[2, a] = 0.25
    probs[2, blank] = 0.25
    probs[3, a] = 1.0
    probs[4, t] = 1.0
    return probs, alphabet
