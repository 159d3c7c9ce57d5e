#!/usr/bin/env python3
"""Search for the 5-frame distribution where greedy decoding returns "oat"
while "cat" holds the largest collapsed posterior, maximizing that
posterior.

The posterior of a fixed label sequence is multilinear in the per-frame
rows, so coordinate ascent with an exact per-frame linear program (over
the simplex intersected with the argmax constraints that pin the greedy
output) converges to a local maximum; running it from many starts across
every greedy-compatible argmax pattern maps out the global optimum.

Running this shows the ceiling: the best construction reaches posterior
9/16, via two letter/blank frames tied at one half feeding a frame with a
four-way tie whose argmax resolves to the competing first letter by the
lowest-index rule. The frozen example, greedy_beam_disagreement_example
in tests/beam_reference.py, sits just under that optimum (ties that must
break toward blank are backed off by 1e-4).
"""
from __future__ import annotations

import itertools

import numpy as np

from ctcseq.autodiff import Tensor
from ctcseq.ctc import Alphabet, FrameDistributionSeq, collapse
from ctcseq.decoder import beam_decode, greedy_decode

ALPHABET = Alphabet(("o", "c", "a", "t"))
BLANK = ALPHABET.blank_index
TARGET = tuple(ALPHABET.encode("cat"))
GREEDY_WANT = tuple(ALPHABET.encode("oat"))
T = 5
CPRIME = ALPHABET.num_classes


def as_dist(rows: np.ndarray) -> FrameDistributionSeq:
    """The decoders' input for probability rows (zeros become -inf)."""
    with np.errstate(divide="ignore"):
        return FrameDistributionSeq(Tensor(np.log(rows)))


def paths_collapsing_to(target: tuple[int, ...]) -> np.ndarray:
    symbols = sorted(set(target)) + [BLANK]
    keep = [
        p
        for p in itertools.product(symbols, repeat=T)
        if tuple(collapse(p, BLANK)) == target
    ]
    return np.array(keep)


CAT_PATHS = paths_collapsing_to(TARGET)


def posterior(rows: np.ndarray) -> float:
    gathered = rows[np.arange(T)[None, :], CAT_PATHS]
    return float(gathered.prod(axis=1).sum())


def exclusive_coefficients(rows: np.ndarray) -> np.ndarray:
    """coeff[t, k] = d posterior / d rows[t, k] (multilinear gradient)."""
    gathered = rows[np.arange(T)[None, :], CAT_PATHS]
    pre = np.ones_like(gathered)
    suf = np.ones_like(gathered)
    np.cumprod(gathered[:, :-1], axis=1, out=pre[:, 1:])
    np.cumprod(gathered[:, :0:-1], axis=1, out=suf[:, -2::-1])
    excl = pre * suf
    coeff = np.zeros((T, CPRIME))
    for t in range(T):
        np.add.at(coeff[t], CAT_PATHS[:, t], excl[:, t])
    return coeff


def argmax_row_lp(c: np.ndarray, g: int, eps: float = 1e-9) -> np.ndarray:
    """Maximize c . y over the simplex with y[g] the greedy winner.

    The greedy rule picks the lowest class index among maxima, so y[g]
    must strictly exceed lower-indexed classes and only tie higher ones.
    The optimum lies at a breakpoint m = y[g] in {1/5 .. 1}.
    """
    best_val, best_row = -1.0, None
    others = [k for k in range(CPRIME) if k != g]
    order = sorted(others, key=lambda k: -c[k])
    for denom in range(1, CPRIME + 1):
        m = 1.0 / denom
        row = np.zeros(CPRIME)
        row[g] = m
        rest = 1.0 - m
        for k in order:
            cap = m - (eps if k < g else 0.0)
            take = min(cap, rest)
            if take <= 0:
                continue
            row[k] = take
            rest -= take
        if rest > 1e-12:
            continue  # infeasible at this breakpoint
        val = float(c @ row)
        if val > best_val:
            best_val, best_row = val, row
    return best_row


def ascend(pattern: tuple[int, ...], rng: np.random.Generator, sweeps: int = 200) -> tuple[float, np.ndarray]:
    rows = rng.dirichlet(np.ones(CPRIME), size=T)
    for t in range(T):
        fix = argmax_row_lp(np.zeros(CPRIME) + rng.random(CPRIME) * 1e-6, pattern[t])
        rows[t] = fix
    last = -1.0
    for _ in range(sweeps):
        coeff = exclusive_coefficients(rows)
        for t in range(T):
            row = argmax_row_lp(coeff[t], pattern[t])
            if row is not None:
                rows[t] = row
        val = posterior(rows)
        if val - last < 1e-14:
            break
        last = val
    return posterior(rows), rows


def main() -> None:
    patterns = [
        p
        for p in itertools.product(list(GREEDY_WANT) + [BLANK], repeat=T)
        if tuple(collapse(p, BLANK)) == GREEDY_WANT
    ]
    print(f"{len(patterns)} greedy argmax patterns collapse to 'oat'")
    rng = np.random.default_rng(0)
    best = (0.0, None, None)
    for pattern in patterns:
        for _ in range(30):
            val, rows = ascend(pattern, rng)
            if val > best[0]:
                # confirm with the real decoders before accepting
                if tuple(greedy_decode(as_dist(rows))) != GREEDY_WANT:
                    continue
                best = (val, rows, pattern)
    val, rows, pattern = best
    print(f"max P(cat) found: {val:.12f}")
    print("greedy argmax pattern:", "".join(
        (ALPHABET.letters[s] if s != BLANK else "-") for s in pattern))
    np.set_printoptions(precision=6, suppress=True)
    print(rows)
    print("greedy decode:", ALPHABET.decode(greedy_decode(as_dist(rows))))
    print("beam decode  :", ALPHABET.decode(beam_decode(as_dist(rows), 8)))


if __name__ == "__main__":
    main()
