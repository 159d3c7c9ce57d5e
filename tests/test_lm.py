import re
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CORRUPTIONS, write_corrupted
from ctcseq.lm import EOS, RESERVED, lm_train, load_lm, save_lm


@pytest.fixture(scope="module")
def lm_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("lm") / "model.charlm"
    save_lm(lm_train(["asl", "lsa", "aal"], order=2), path)
    return path.read_bytes()


class TestTraining:
    def test_hand_counted_conditional(self):
        model = lm_train(["ab", "ab"], order=1, smoothing_alpha=0.5)
        # vocab is {a, b} plus the end marker
        assert model.vocab == ("a", "b", EOS)
        v = 3
        assert model.cond_prob("b", "a") == pytest.approx((2 + 0.5) / (2 + 0.5 * v))

    def test_first_step_uses_marginal_table(self):
        model = lm_train(["ab", "ba", "aa"], order=2)
        counts = model.counts[""]
        assert counts["a"] == 4 and counts["b"] == 2 and counts[EOS] == 3
        total = 9
        assert model.cond_prob("a", "") == pytest.approx((4 + 1) / (total + 1 * 3))

    def test_unseen_context_backs_off_to_marginal(self):
        model = lm_train(["ab"], order=2)
        assert model.cond_prob("a", "zz") == model.cond_prob("a", "")
        # partially seen context backs off one letter at a time
        assert model.cond_prob("b", "xa") == model.cond_prob("b", "a")

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            lm_train([], order=1)

    def test_conditionals_sum_to_one_over_vocab(self):
        model = lm_train(["asl", "lass", "all"], order=3, smoothing_alpha=0.7)
        for ctx in model.counts:
            total = sum(model.cond_prob(sym, ctx) for sym in model.vocab)
            assert abs(total - 1.0) < 1e-12

    def test_end_marker_probability(self):
        model = lm_train(["asl"], order=3)
        assert model.cond_prob(EOS, "asl") > model.cond_prob("a", "asl")

    def test_row_equals_cond_prob_bitwise(self, tmp_path):
        corpus = ["abca", "bcab", "cc", "a"]
        model = lm_train(corpus, order=3, smoothing_alpha=0.3)
        symbols = ("a", "b", "c", "d", EOS)
        contexts = ["".join(p) for n in range(5) for p in product("abcd", repeat=n)]
        for context in contexts:
            ctx = context[-3:]
            while ctx and ctx not in model.counts:
                ctx = ctx[1:]
            nexts = model.counts.get(ctx, {})
            want = [(nexts.get(s, 0) + 0.3) / (sum(nexts.values()) + 0.3 * len(model.vocab)) for s in symbols]
            row = model.cond_probs(symbols, context)
            assert row.dtype == np.float64
            assert row.tolist() == want
            assert [model.cond_prob(s, context) for s in symbols] == want
            # the memoized row: the same bits again, and read-only
            assert model.cond_probs(symbols, context).tolist() == row.tolist()
            with pytest.raises(ValueError):
                row[0] = 0.5
            # another symbol tuple on the same context gets its own row
            assert model.cond_probs(symbols[::-1], context).tolist() == row.tolist()[::-1]
            assert model.cond_probs(symbols[:2], context).tolist() == row.tolist()[:2]
        # the memo is not part of the model: equality and files ignore it
        fresh = lm_train(corpus, order=3, smoothing_alpha=0.3)
        assert model == fresh
        save_lm(model, tmp_path / "used.charlm")
        save_lm(fresh, tmp_path / "fresh.charlm")
        assert (tmp_path / "used.charlm").read_bytes() == (tmp_path / "fresh.charlm").read_bytes()
        assert load_lm(tmp_path / "used.charlm") == model


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        model = lm_train(["asl", "lsa", "aal"], order=2, smoothing_alpha=0.25)
        path = tmp_path / "model.charlm"
        save_lm(model, path)
        loaded = load_lm(path)
        assert loaded.order == model.order
        assert loaded.smoothing_alpha == model.smoothing_alpha
        assert loaded.counts == model.counts
        assert loaded.vocab == model.vocab
        for ctx in model.counts:
            for sym in model.vocab:
                assert loaded.cond_prob(sym, ctx) == model.cond_prob(sym, ctx)

    def test_header_format(self, tmp_path):
        model = lm_train(["ab"], order=1, smoothing_alpha=1.0)
        path = tmp_path / "m.charlm"
        save_lm(model, path)
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first == "CHARLM v1 order=1 alpha=1.0"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.charlm"
        path.write_text("NOTALM v9\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_lm(path)

    @pytest.mark.parametrize("text", [
        "",
        "CHARLM v1 order=1 alpha=nan\n·\ta\t1\n",
        "CHARLM v1 order=1 alpha=inf\n·\ta\t1\n",
        "CHARLM v1 order=1 alpha=1.0\n·\ta\t1\n·\tb\t-9\n",
        "CHARLM v1 order=x alpha=1.0\n",
        "CHARLM v1 order=0 alpha=1.0\n",
        "CHARLM v1 order=1 alpha=1.0\n·\ta\n",
        "CHARLM v1 order=1 alpha=1.0\n·\ta\t1\n·\ta\t99\n",
        "CHARLM v1 order=2 alpha=1.0\n·\ta\t1\nabab\ta\t1\n",
        "CHARLM v1 order=1 alpha=1.0\n·\tab\t1\n",
    ], ids=["empty", "nan-alpha", "inf-alpha", "negative-count", "bad-order", "zero-order", "short-line",
            "repeated-entry", "context-beyond-order", "multi-letter-symbol"])
    def test_malformed_file_rejected_naming_the_file(self, tmp_path, text):
        path = tmp_path / "odd.charlm"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="odd.charlm"):
            load_lm(path)

    @settings(max_examples=300, deadline=None)
    @given(edits=CORRUPTIONS)
    def test_corrupted_bytes_end_in_a_named_error_or_a_distribution(self, lm_bytes, tmp_path_factory, edits):
        path = tmp_path_factory.getbasetemp() / "corrupt.charlm"
        write_corrupted(path, lm_bytes, edits)
        try:
            model = load_lm(path)
        except ValueError as exc:
            assert "corrupt.charlm" in str(exc)
        else:
            for ctx in ("", "a", "sl"):
                probs = model.cond_probs(model.vocab, ctx)
                assert np.all(probs > 0.0) and abs(probs.sum() - 1.0) < 1e-9

    @settings(max_examples=200, deadline=None)
    @given(corpus=st.lists(st.text(st.characters(codec="utf-8", exclude_characters=RESERVED), max_size=6),
                           min_size=1, max_size=5),
           order=st.integers(1, 3), alpha=st.floats(1e-3, 1e3))
    @example(corpus=["a\rb", "\x85", ""], order=2, alpha=1.0)  # line breaks other than "\n" are letters
    def test_save_then_load_is_the_same_model(self, tmp_path_factory, corpus, order, alpha):
        model = lm_train(corpus, order, alpha)
        path = tmp_path_factory.getbasetemp() / "round.charlm"
        save_lm(model, path)
        assert load_lm(path) == model

    def test_reserved_characters_rejected(self):
        """``·`` would load back as the empty context, a tab as a field separator."""
        for char in RESERVED:
            with pytest.raises(ValueError, match=re.escape(f"reserved character {char!r}")):
                lm_train(["ab", f"{char}ab", "ba"], order=2)

    def test_lone_surrogate_rejected(self):
        """A CHARLM file is UTF-8 text, so ``save_lm`` could not write the model."""
        with pytest.raises(ValueError, match="language model corpus is not UTF-8 text: .* surrogates not allowed"):
            lm_train(["ab", "a\ud800b"], order=2)

    def test_empty_context_placeholder(self, tmp_path):
        model = lm_train(["ab"], order=1)
        path = tmp_path / "m.charlm"
        save_lm(model, path)
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        assert any(line.startswith("·\t") for line in lines)
