"""Brute-force CTC over probability arrays, the oracle for ``ctc.ctc_loss``
and the decoders: every alignment of a T x C' probability array is
enumerated, scored as a product of lookups and collapsed.
"""
import itertools

import numpy as np

from ctcseq.ctc import collapse, validate_target

BRUTE_FORCE_LIMIT = 10**7


def alignment_probability(probs, path) -> float:
    """Probability of one frame-by-frame alignment (product of lookups)
    through a T x C' probability array."""
    probs = np.asarray(probs, dtype=np.float64)
    t, cprime = probs.shape
    path = list(path)
    if len(path) != t:
        raise ValueError(f"path length {len(path)} != frame count {t}")
    if any(not 0 <= p < cprime for p in path):
        raise ValueError("path entries must be valid class indices")
    with np.errstate(divide="ignore"):
        logs = np.log(probs[np.arange(t), path])
    return float(np.exp(logs.sum()))


def sequence_probability_bruteforce(probs, target) -> float:
    """Eq.-by-enumeration oracle: sums every alignment that collapses to
    ``target``. Refuses instances with more than ``BRUTE_FORCE_LIMIT`` paths.
    """
    probs = np.asarray(probs, dtype=np.float64)
    t, cprime = probs.shape
    blank = cprime - 1
    target = validate_target(target, blank)
    if cprime**t > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute-force enumeration refused: {cprime}**{t} paths exceeds {BRUTE_FORCE_LIMIT}")
    want = tuple(target)
    total = 0.0
    for path in itertools.product(range(cprime), repeat=t):
        if tuple(collapse(path, blank)) == want:
            total += alignment_probability(probs, path)
    return total


def collapse_partition(probs) -> dict[tuple[int, ...], float]:
    """Brute-force probability of every label sequence reachable from a
    T x C' probability array."""
    probs = np.asarray(probs, dtype=np.float64)
    t, cprime = probs.shape
    blank = cprime - 1
    if cprime**t > BRUTE_FORCE_LIMIT:
        raise ValueError("instance too large for exhaustive partition")
    table: dict[tuple[int, ...], float] = {}
    for path in itertools.product(range(cprime), repeat=t):
        key = tuple(collapse(path, blank))
        table[key] = table.get(key, 0.0) + alignment_probability(probs, path)
    return table
