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
    pred = list(pred)
    truth = list(truth)
    np_, nt = len(pred), len(truth)
    # dp[i][j] = (cost, insertions, deletions) for pred[:i] vs truth[:j]
    dp = [[None] * (nt + 1) for _ in range(np_ + 1)]
    dp[0][0] = (0, 0, 0)
    for i in range(1, np_ + 1):
        dp[i][0] = (i, i, 0)
    for j in range(1, nt + 1):
        dp[0][j] = (j, 0, j)
    for i in range(1, np_ + 1):
        for j in range(1, nt + 1):
            c, ins, dele = dp[i - 1][j - 1]
            if pred[i - 1] != truth[j - 1]:
                c += 1
            best = (c, ins, dele)
            c, ins, dele = dp[i - 1][j]
            cand = (c + 1, ins + 1, dele)
            if cand < best:
                best = cand
            c, ins, dele = dp[i][j - 1]
            cand = (c + 1, ins, dele + 1)
            if cand < best:
                best = cand
            dp[i][j] = best
    cost, ins, dele = dp[np_][nt]
    return cost - ins - dele, dele, ins


def letter_accuracy(pred, truth) -> float:
    """max(0, 1 - (S + D + I) / N) for one clip, as ``evaluate_clips``
    scores it; the clamp keeps accuracy nonnegative."""
    truth = list(truth)
    if not truth:
        raise ValueError("letter accuracy is undefined for an empty reference")
    return evaluate_clips([("", pred, truth)]).mean_letter_accuracy


@dataclass
class EvalReport:
    """Per-clip accuracies plus pooled error counts.

    ``mean_letter_accuracy`` is the unweighted per-clip mean (the headline
    number); ``pooled_letter_accuracy`` re-derives accuracy from the summed
    error counts, since sources differ on which aggregation they report.
    """

    per_clip: list[tuple[str, float]]
    counts_per_clip: list[tuple[int, int, int, int]]
    mean_letter_accuracy: float
    pooled_letter_accuracy: float
    substitutions: int
    deletions: int
    insertions: int
    reference_letters: int

    def to_lines(self) -> str:
        rows = []
        for (clip_id, acc), (s, d, i, n) in zip(self.per_clip, self.counts_per_clip):
            rows.append(f"{clip_id}\t{acc:.6f}\t{s}\t{d}\t{i}\t{n}")
        return "\n".join(rows) + "\n"

    def to_table(self) -> str:
        lines = [f"{'clip':<16}{'acc':>8}{'S':>5}{'D':>5}{'I':>5}{'N':>5}"]
        for (clip_id, acc), (s, d, i, n) in zip(self.per_clip, self.counts_per_clip):
            lines.append(f"{clip_id:<16}{acc:>8.4f}{s:>5}{d:>5}{i:>5}{n:>5}")
        lines.append(
            f"mean letter accuracy  {self.mean_letter_accuracy:.4f}  "
            f"(pooled {self.pooled_letter_accuracy:.4f}; "
            f"S={self.substitutions} D={self.deletions} I={self.insertions} N={self.reference_letters})"
        )
        return "\n".join(lines) + "\n"


def evaluate_clips(results: list[tuple[str, list, list]]) -> EvalReport:
    """Build an EvalReport from (clip_id, predicted, reference) triples."""
    per_clip = []
    counts = []
    tot_s = tot_d = tot_i = tot_n = 0
    for clip_id, pred, truth in results:
        s, d, i = edit_alignment(pred, truth)
        n = len(list(truth))
        acc = max(0.0, 1.0 - (s + d + i) / n) if n else 0.0
        per_clip.append((clip_id, acc))
        counts.append((s, d, i, n))
        tot_s += s
        tot_d += d
        tot_i += i
        tot_n += n
    mean_acc = sum(a for _, a in per_clip) / len(per_clip) if per_clip else 0.0
    pooled = max(0.0, 1.0 - (tot_s + tot_d + tot_i) / tot_n) if tot_n else 0.0
    return EvalReport(
        per_clip=per_clip,
        counts_per_clip=counts,
        mean_letter_accuracy=mean_acc,
        pooled_letter_accuracy=pooled,
        substitutions=tot_s,
        deletions=tot_d,
        insertions=tot_i,
        reference_letters=tot_n,
    )
