"""Character-level n-gram language model with additive smoothing and
shortest-context backoff, plus its versioned text serialization.

The vocabulary is the set of letters observed in the training corpus plus
an end-of-sequence marker, which keeps the count-table file a complete
description of the model.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

EOS = "</s>"

EMPTY_CONTEXT = "·"  # placeholder for the empty context in files
RESERVED = ("\t", "\n", EMPTY_CONTEXT)  # a file's separators and marker: never a letter


@dataclass
class CharNGramModel:
    order: int
    smoothing_alpha: float
    counts: dict[str, dict[str, int]]
    vocab: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"language model order must be >= 1: {self.order}")
        if not 0 < self.smoothing_alpha < math.inf:
            raise ValueError(f"smoothing alpha must be positive and finite: {self.smoothing_alpha}")
        if any(c < 0 for nexts in self.counts.values() for c in nexts.values()):
            raise ValueError("n-gram counts must be >= 0")
        symbols = set()
        for ctx, nexts in self.counts.items():
            symbols.update(ctx)
            symbols.update(nexts)
        symbols.discard(EOS)
        self.vocab = tuple(sorted(symbols)) + (EOS,)
        self._rows: dict[tuple, np.ndarray] = {}  # cond_probs by (symbols, backed-off context)

    def _backoff_context(self, context: str) -> str:
        ctx = context[-self.order :]
        while ctx and ctx not in self.counts:
            ctx = ctx[1:]
        return ctx

    def cond_prob(self, symbol: str, context: str) -> float:
        """P(symbol | up to ``order`` trailing letters of ``context``).

        Unseen contexts back off one letter at a time down to the marginal
        table. ``symbol`` may be a letter or the end marker.
        """
        return float(self.cond_probs((symbol,), context)[0])

    def cond_probs(self, symbols, context: str) -> np.ndarray:
        """``cond_prob(s, context)`` for each of ``symbols`` as one read-only
        float64 row, computed once per symbol tuple and backed-off context."""
        ctx = self._backoff_context(context)
        key = (tuple(symbols), ctx)
        if key not in self._rows:
            nexts = self.counts.get(ctx, {})
            count = np.array([nexts.get(s, 0) for s in key[0]], dtype=np.float64)
            row = (count + self.smoothing_alpha) / (sum(nexts.values()) + self.smoothing_alpha * len(self.vocab))
            row.flags.writeable = False
            self._rows[key] = row
        return self._rows[key]


def lm_train(corpus: list[str], order: int, smoothing_alpha: float = 1.0) -> CharNGramModel:
    """Count n-grams of every context length 0..order over the corpus.

    Each sequence also contributes an end-of-sequence event, so first-step
    probabilities come from the marginal (empty-context) table and alpha=1
    decoding is well defined on complete sequences.
    """
    if not corpus:
        raise ValueError("language model corpus must be non-empty")
    reserved = sorted(set(RESERVED).intersection("".join(corpus)))
    if reserved:
        raise ValueError(f"language model corpus holds the reserved character {reserved[0]!r}")
    try:  # a CHARLM file is UTF-8 text, which cannot hold a lone surrogate
        "".join(corpus).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"language model corpus is not UTF-8 text: {exc}") from None
    counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for word in corpus:
        events = [(i, word[i]) for i in range(len(word))] + [(len(word), EOS)]
        for pos, nxt in events:
            for ctx_len in range(0, min(order, pos) + 1):
                counts[word[pos - ctx_len : pos]][nxt] += 1
    plain = {ctx: dict(nexts) for ctx, nexts in counts.items()}
    return CharNGramModel(order=order, smoothing_alpha=smoothing_alpha, counts=plain)


def save_lm(model: CharNGramModel, path) -> None:
    lines = [f"CHARLM v1 order={model.order} alpha={model.smoothing_alpha!r}"]
    for ctx in sorted(model.counts):
        shown = ctx if ctx else EMPTY_CONTEXT
        for sym in sorted(model.counts[ctx]):
            lines.append(f"{shown}\t{sym}\t{model.counts[ctx][sym]}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_lm(path) -> CharNGramModel:
    """Read a ``CHARLM v1`` file; malformed content raises a ValueError naming it."""
    try:
        lines = [ln for ln in Path(path).read_bytes().decode("utf-8").split("\n") if ln]
        if not lines:
            raise ValueError("empty file")
        header = lines[0].split()
        if len(header) != 4 or header[0] != "CHARLM" or header[1] != "v1":
            raise ValueError(f"unrecognized header {lines[0]!r}")
        order = int(header[2].removeprefix("order="))
        alpha = float(header[3].removeprefix("alpha="))
        counts: dict[str, dict[str, int]] = defaultdict(dict)
        for ln in lines[1:]:
            ctx, sym, count = ln.split("\t")
            if ctx == EMPTY_CONTEXT:
                ctx = ""
            if len(ctx) > order or len(sym) != 1 and sym != EOS:
                raise ValueError(f"entry {ln!r} is not a context of at most {order} letters and a letter or {EOS}")
            if sym in counts[ctx]:
                raise ValueError(f"entry {ln!r} repeats its context and symbol")
            counts[ctx][sym] = int(count)
        return CharNGramModel(order=order, smoothing_alpha=alpha, counts=dict(counts))
    except ValueError as exc:
        raise ValueError(f"malformed language model file {path}: {exc}") from None
