"""The scalar prefix beam search that ``ctcseq.decoder.beam_search``
replaced, kept unchanged as the oracle for the array version: one Python
loop over beams and letters per frame, candidates merged through a dict in
insertion order, one ``cond_prob`` call per fused candidate. Also the
hand-derived 5-frame distribution on which greedy and beam search disagree.
"""
from __future__ import annotations

import math

import numpy as np

from ctcseq.ctc import Alphabet
from ctcseq.decoder import NEG_INF, BeamHypothesis
from ctcseq.lm import EOS, CharNGramModel


def expand_step(beams: dict, lp: np.ndarray, blank: int) -> dict:
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


def letters_of(prefix: tuple[int, ...], alphabet: Alphabet | None) -> str:
    if alphabet is None:
        raise ValueError("language-model fusion requires the alphabet")
    return alphabet.decode(prefix)


def reference_beam_search(
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
    for t in range(dist.log_probs.shape[0]):
        candidates = expand_step(beams, logp[t], blank)
        scored = score_candidates(candidates, lm, alpha, alphabet)
        scored.sort(key=lambda item: (-item[0], item[1]))
        kept = scored[:beam_width]
        beams = {prefix: (pb, pnb) for _, prefix, pb, pnb in kept}

    return finalize(beams, lm, alpha, alphabet)


def score_candidates(candidates: dict, lm, alpha: float, alphabet) -> list:
    totals = {p: np.logaddexp(v[0], v[1]) for p, v in candidates.items()}
    if lm is None or alpha == 0.0:
        return [(totals[p], p, v[0], v[1]) for p, v in candidates.items()]
    norm = np.logaddexp.reduce(np.array(list(totals.values())))
    out = []
    for prefix, (pb, pnb, extended) in candidates.items():
        s_b = math.exp(totals[prefix] - norm)
        if extended and prefix:
            context = letters_of(prefix[:-1], alphabet)
            p_lm = lm.cond_prob(letters_of(prefix[-1:], alphabet), context)
            score = (1.0 - alpha) * s_b + alpha * p_lm
        else:
            score = s_b
        out.append((score, prefix, pb, pnb))
    return out


def finalize(beams: dict, lm, alpha: float, alphabet) -> list[BeamHypothesis]:
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
            p_end = lm.cond_prob(EOS, letters_of(prefix, alphabet))
            items.append(((1.0 - alpha) * s_b + alpha * p_end, prefix))
    items.sort(key=lambda item: (-item[0], item[1]))
    return [
        BeamHypothesis(prefix, beams[prefix][0], beams[prefix][1], score)
        for score, prefix in items
    ]


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
