"""Letter accuracy from the minimum edit alignment, plus aggregate
reporting over a set of decoded clips.
"""
from __future__ import annotations

from dataclasses import dataclass


def edit_alignment(pred, truth) -> tuple[int, int, int]:
    """Unit-cost Levenshtein alignment of ``pred`` against ``truth``.

    Returns (substitutions, deletions, insertions) where deletions are
    reference letters missing from the prediction and insertions are
    extra predicted letters. Cost ties prefer fewer insertions, then
    fewer deletions, so the counts are deterministic.
    """
    # row[j] = (cost, insertions, deletions) for pred[:i] vs truth[:j]
    row = [(j, 0, j) for j in range(len(truth) + 1)]
    for i, p in enumerate(pred, 1):
        prev = row
        row = [(i, i, 0)]
        for j, t in enumerate(truth, 1):
            c, ins, dele = prev[j - 1]
            match = (c if p == t else c + 1, ins, dele)
            c, ins, dele = prev[j]
            insert = (c + 1, ins + 1, dele)
            c, ins, dele = row[j - 1]
            delete = (c + 1, ins, dele + 1)
            row.append(min(match, insert, delete))
    cost, ins, dele = row[-1]
    return cost - ins - dele, dele, ins


def letter_accuracy(pred, truth) -> float:
    """max(0, 1 - (S + D + I) / N) for one clip, as ``evaluate_clips``
    scores it; the clamp keeps accuracy nonnegative."""
    return evaluate_clips([("", pred, truth)]).mean_letter_accuracy


@dataclass
class EvalReport:
    """One (clip id, accuracy, S, D, I, N) row per clip, plus their totals.

    ``mean_letter_accuracy`` is the unweighted per-clip mean (the headline
    number); ``pooled_letter_accuracy`` re-derives accuracy from the summed
    error counts, since sources differ on which aggregation they report.
    """

    per_clip: list[tuple[str, float, int, int, int, int]]
    mean_letter_accuracy: float
    pooled_letter_accuracy: float
    substitutions: int
    deletions: int
    insertions: int
    reference_letters: int

    def to_lines(self) -> str:
        rows = [f"{clip_id}\t{acc:.6f}\t{s}\t{d}\t{i}\t{n}" for clip_id, acc, s, d, i, n in self.per_clip]
        return "\n".join(rows) + "\n"

    def to_table(self) -> str:
        lines = [f"{'clip':<16}{'acc':>8}{'S':>5}{'D':>5}{'I':>5}{'N':>5}"]
        for clip_id, acc, s, d, i, n in self.per_clip:
            lines.append(f"{clip_id:<16}{acc:>8.4f}{s:>5}{d:>5}{i:>5}{n:>5}")
        lines.append(
            f"mean letter accuracy  {self.mean_letter_accuracy:.4f}  "
            f"(pooled {self.pooled_letter_accuracy:.4f}; "
            f"S={self.substitutions} D={self.deletions} I={self.insertions} N={self.reference_letters})"
        )
        return "\n".join(lines) + "\n"


def evaluate_clips(results: list[tuple[str, list, list]]) -> EvalReport:
    """Build an EvalReport from (clip_id, predicted, reference) triples; an
    empty reference, where letter accuracy is undefined, is refused."""
    per_clip = []
    for clip_id, pred, truth in results:
        n = len(truth)
        if not n:
            raise ValueError(f"letter accuracy is undefined for the empty reference of clip {clip_id!r}")
        s, d, i = edit_alignment(pred, truth)
        per_clip.append((clip_id, max(0.0, 1.0 - (s + d + i) / n), s, d, i, n))
    tot_s, tot_d, tot_i, tot_n = (sum(row[k] for row in per_clip) for k in range(2, 6))
    mean_acc = sum(row[1] for row in per_clip) / len(per_clip) if per_clip else 0.0
    pooled = max(0.0, 1.0 - (tot_s + tot_d + tot_i) / tot_n) if tot_n else 0.0
    return EvalReport(
        per_clip=per_clip,
        mean_letter_accuracy=mean_acc,
        pooled_letter_accuracy=pooled,
        substitutions=tot_s,
        deletions=tot_d,
        insertions=tot_i,
        reference_letters=tot_n,
    )
