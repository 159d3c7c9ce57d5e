import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctcseq.metrics import edit_alignment, evaluate_clips, letter_accuracy

seqs = st.text(alphabet="abc", max_size=8).map(list)
short = st.sampled_from(["ab", "abc"]).flatmap(lambda letters: st.text(alphabet=letters, max_size=5))


def all_alignments(pred, truth):
    """(cost, insertions, deletions) of every alignment of ``pred`` against
    ``truth``, one entry per path of matches, substitutions, insertions
    and deletions."""
    if not pred or not truth:
        return [(len(pred) + len(truth), len(pred), len(truth))]
    out = [(c + (pred[0] != truth[0]), i, d) for c, i, d in all_alignments(pred[1:], truth[1:])]
    out += [(c + 1, i + 1, d) for c, i, d in all_alignments(pred[1:], truth)]
    out += [(c + 1, i, d + 1) for c, i, d in all_alignments(pred, truth[1:])]
    return out


class TestEditAlignment:
    def test_equal_sequences(self):
        assert edit_alignment("cat", "cat") == (0, 0, 0)

    def test_pure_deletions(self):
        assert edit_alignment("", "cat") == (0, 3, 0)

    def test_pure_insertions(self):
        assert edit_alignment("catsss", "cat") == (0, 0, 3)

    def test_kitten_sitting_cost(self):
        s, d, i = edit_alignment("kitten", "sitting")
        assert s + d + i == 3

    @given(seqs, seqs)
    def test_cost_symmetry(self, a, b):
        sa, da, ia = edit_alignment(a, b)
        sb, db, ib = edit_alignment(b, a)
        assert sa + da + ia == sb + db + ib
        # swapping roles swaps insertions and deletions
        assert (da, ia) == (ib, db)

    @given(seqs, seqs, seqs)
    def test_triangle_inequality(self, a, b, c):
        dab = sum(edit_alignment(a, b))
        dbc = sum(edit_alignment(b, c))
        dac = sum(edit_alignment(a, c))
        assert dac <= dab + dbc

    @given(short, short)
    def test_counts_the_least_cost_then_fewest_insertions_then_deletions(self, pred, truth):
        cost, ins, dele = min(all_alignments(pred, truth))
        assert edit_alignment(pred, truth) == (cost - ins - dele, dele, ins)


class TestLetterAccuracy:
    def test_exact_match(self):
        assert letter_accuracy("cat", "cat") == 1.0

    def test_three_insertions(self):
        assert letter_accuracy("catsss", "cat") == 0.0

    def test_clamped_at_zero(self):
        assert letter_accuracy("xyzxyz", "ab") == 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            letter_accuracy("cat", "")
        with pytest.raises(ValueError, match="clip_b"):
            evaluate_clips([("clip_a", list("ab"), list("ab")), ("clip_b", [0], [])])

    @given(seqs, st.text(alphabet="abc", min_size=1, max_size=8).map(list))
    def test_range_and_equality_condition(self, pred, truth):
        acc = letter_accuracy(pred, truth)
        assert 0.0 <= acc <= 1.0
        assert (acc == 1.0) == (pred == truth)

    @given(seqs, st.text(alphabet="abc", min_size=1, max_size=8).map(list))
    def test_is_the_clamped_edit_rate(self, pred, truth):
        assert letter_accuracy(pred, truth) == max(0.0, 1.0 - sum(edit_alignment(pred, truth)) / len(truth))


class TestEvalReport:
    def test_aggregates_and_serialization(self):
        report = evaluate_clips(
            [
                ("clip_a", list("cat"), list("cat")),
                ("clip_b", list(""), list("at")),
                ("clip_c", list("bad"), list("bat")),
            ]
        )
        assert report.mean_letter_accuracy == pytest.approx((1.0 + 0.0 + 2 / 3) / 3)
        assert report.substitutions == 1
        assert report.deletions == 2
        assert report.insertions == 0
        assert report.reference_letters == 8
        assert report.pooled_letter_accuracy == pytest.approx(1 - 3 / 8)
        lines = report.to_lines().splitlines()
        assert lines[0].split("\t") == ["clip_a", "1.000000", "0", "0", "0", "3"]
        assert "mean letter accuracy" in report.to_table()
