import math
import string

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctc_reference import collapse_partition, sequence_probability_bruteforce
from ctcseq.ctc import Alphabet
from ctcseq.decoder import (
    beam_decode,
    beam_search,
    decode,
    greedy_decode,
    lm_fused_beam_decode,
)
from ctcseq.lm import lm_train
from beam_reference import greedy_beam_disagreement_example, reference_beam_search
from conftest import dist_of


def random_dist(rng, t, cprime):
    probs = rng.random((t, cprime)) + 1e-3
    return probs / probs.sum(axis=1, keepdims=True)


def one_hot_dist(path, cprime):
    probs = np.zeros((len(path), cprime))
    for t, k in enumerate(path):
        probs[t, k] = 1.0
    return probs


class TestGreedy:
    def test_one_hot_path(self):
        a = Alphabet(("c", "a", "t"))
        path = a.encode("c") + [a.blank_index] + a.encode("at")
        probs = one_hot_dist(path, a.num_classes)
        assert greedy_decode(dist_of(probs)) == a.encode("cat")

    def test_uniform_ties_pick_lowest_index(self):
        probs = np.full((3, 4), 0.25)
        assert greedy_decode(dist_of(probs)) == [0]

    def test_never_emits_blank(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            probs = random_dist(rng, 6, 5)
            assert 4 not in greedy_decode(dist_of(probs))


class TestBeam:
    def test_width_one_on_one_hot_equals_greedy(self):
        a = Alphabet(("c", "a", "t"))
        path = a.encode("ca") + [a.blank_index] + a.encode("t")
        probs = one_hot_dist(path, a.num_classes)
        assert beam_decode(dist_of(probs), 1) == greedy_decode(dist_of(probs))

    @pytest.mark.parametrize("seed", range(30))
    def test_exhaustive_beam_matches_map_oracle(self, seed):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(1, 5))
        probs = random_dist(rng, t, 3)
        table = collapse_partition(probs)
        best = max(table.items(), key=lambda kv: (kv[1], [-x for x in kv[0]]))
        got = beam_decode(dist_of(probs), 4**t + 4)
        assert table[tuple(got)] == pytest.approx(best[1], abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_merged_mass_matches_brute_force(self, seed):
        rng = np.random.default_rng(100 + seed)
        t = int(rng.integers(1, 5))
        probs = random_dist(rng, t, 3)
        hyps = beam_search(dist_of(probs), beam_width=200)
        for h in hyps:
            bf = sequence_probability_bruteforce(probs, list(h.prefix))
            assert math.exp(h.log_total) <= 1.0 + 1e-12
            assert abs(math.exp(h.log_total) - bf) < 1e-9

    @pytest.mark.parametrize("seed", range(12))
    def test_wider_beam_never_hurts_best_score(self, seed):
        # Retaining every candidate dominates any pruned run. The stronger
        # claim (monotone in width step by step) is false for prefix beam
        # search: a wider beam redistributes merged mass and can demote
        # the narrow beam's winner at a later pruning step.
        rng = np.random.default_rng(200 + seed)
        probs = random_dist(rng, 6, 4)
        exhaustive = beam_search(dist_of(probs), 50_000)[0].log_total
        for width in (1, 2, 4, 8, 32):
            assert exhaustive >= beam_search(dist_of(probs), width)[0].log_total - 1e-12

    def test_determinism(self):
        rng = np.random.default_rng(7)
        probs = random_dist(rng, 5, 4)
        assert beam_decode(dist_of(probs), 3) == beam_decode(dist_of(probs), 3)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            beam_decode(dist_of(np.full((1, 2), 0.5)), 0)


class TestDisagreementExample:
    def test_greedy_misses_the_map_sequence(self):
        probs, alphabet = greedy_beam_disagreement_example()
        assert alphabet.decode(greedy_decode(dist_of(probs))) == "oat"
        assert alphabet.decode(beam_decode(dist_of(probs), 5)) == "cat"
        # "cat" carries more posterior mass than the greedy pick
        p_cat = sequence_probability_bruteforce(probs, alphabet.encode("cat"))
        p_oat = sequence_probability_bruteforce(probs, alphabet.encode("oat"))
        assert p_cat > p_oat


class TestLmFusion:
    def test_score_formula_direct_substitution(self):
        # one frame with P(a) = 0 leaves two candidates: () continues with
        # score s_b = x, the blank mass, and "b" is extended now with score
        # (1 - 0.2) * (1 - x) + 0.2 * 0.25, the language model giving the
        # extension 0.25. At x = 0.5 they score 0.5 and 0.45; they tie at x = tie.
        lm = lm_train(["a"], order=1, smoothing_alpha=1.0)
        assert lm.cond_prob("b", "") == pytest.approx(0.25)
        alphabet = Alphabet(("a", "b"))
        tie = ((1 - 0.2) + 0.2 * 0.25) / (2 - 0.2)
        for blank, kept in ((0.5, ()), (tie + 1e-9, ()), (tie - 1e-9, (1,))):
            probs = np.array([[0.0, 1.0 - blank, blank]])
            hyps = beam_search(dist_of(probs), 1, lm=lm, alpha=0.2, alphabet=alphabet)
            assert [h.prefix for h in hyps] == [kept]
            # the lone survivor has s_b = 1; P(end | "" or "b") = 0.5
            assert hyps[0].score == pytest.approx((1 - 0.2) * 1.0 + 0.2 * 0.5, abs=1e-12)
        both = beam_search(dist_of(np.array([[0.0, 0.5, 0.5]])), 2, lm=lm, alpha=0.2, alphabet=alphabet)
        assert [h.prefix for h in both] == [(), (1,)]

    def test_missing_alphabet_fails_before_the_first_frame(self):
        lm = lm_train(["ab"], order=2)
        for t in (0, 3):
            with pytest.raises(ValueError, match="requires the alphabet"):
                beam_search(dist_of(np.full((t, 3), 1 / 3)), 2, lm=lm, alpha=0.2)
        # alpha = 0 never consults the model
        assert beam_search(dist_of(np.full((0, 3), 1 / 3)), 2, lm=lm, alpha=0.0)[0].prefix == ()

    @pytest.mark.parametrize("seed", range(20))
    def test_alpha_zero_identical_to_plain_beam(self, seed):
        rng = np.random.default_rng(300 + seed)
        probs = random_dist(rng, int(rng.integers(2, 7)), 4)
        lm = lm_train(["abc", "cab"], order=2)
        alphabet = Alphabet(("a", "b", "c"))
        width = int(rng.integers(1, 6))
        assert lm_fused_beam_decode(dist_of(probs), width, lm, 0.0, alphabet) == beam_decode(dist_of(probs), width)

    def test_alpha_one_follows_the_model(self):
        alphabet = Alphabet(("a", "s", "l"))
        lm = lm_train(["asl"], order=3, smoothing_alpha=0.1)
        rng = np.random.default_rng(4)
        probs = np.full((3, 4), 0.25) + rng.normal(0, 1e-3, size=(3, 4))
        probs = np.clip(probs, 1e-4, None)
        probs /= probs.sum(axis=1, keepdims=True)
        decoded = alphabet.decode(lm_fused_beam_decode(dist_of(probs), 8, lm, 1.0, alphabet))
        assert "asl".startswith(decoded)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            beam_search(dist_of(np.full((1, 2), 0.5)), 2, lm=lm_train(["a"], 1), alpha=1.5, alphabet=Alphabet(("a",)))

    def test_decode_rejects_lm_letters_outside_the_alphabet(self):
        dist = dist_of(np.full((3, 4), 0.25))
        alphabet = Alphabet(("a", "b", "c"))
        with pytest.raises(ValueError, match="'xz'"):
            decode(dist, "beam-lm", 4, lm_train(["abx", "zc"], order=2), 0.2, alphabet)
        # a model that has seen only some of the letters is fine
        lm = lm_train(["ab"], order=2)
        assert decode(dist, "beam-lm", 4, lm, 0.2, alphabet) == lm_fused_beam_decode(dist, 4, lm, 0.2, alphabet)


def oracle_case(seed, t, letters, kind, order, alpha):
    """A (dist, lm, alpha, alphabet) case for the reference comparison. Rows
    are dense, have zero entries (-inf log-probabilities), are one-hot, or
    hold small integer weights ("ties"), whose exact ties make the pruning
    depend on the last bit of every score. ``alpha`` None means no LM."""
    rng = np.random.default_rng(seed)
    probs = rng.random((t, letters + 1)) ** rng.choice([1, 4, 12])
    if kind == "ties":
        probs = rng.integers(0, int(rng.choice([2, 4, 8])), probs.shape).astype(float)
    if kind == "zeros":
        probs[rng.random(probs.shape) < 0.4] = 0.0
    if kind in ("zeros", "ties"):
        probs[np.arange(t), rng.integers(0, letters + 1, t)] += 1.0
    if kind == "one-hot":
        rows = rng.random(t) < 0.5
        probs[rows] = 0.0
        probs[rows, rng.integers(0, letters + 1, int(rows.sum()))] = 1.0
    dist = dist_of(probs / probs.sum(axis=1, keepdims=True))
    if alpha is None:
        return dist, None, 0.0, None
    alphabet = Alphabet(tuple(string.ascii_lowercase[:letters]))
    words = ["".join(rng.choice(list(alphabet.letters), int(rng.integers(1, 7)))) for _ in range(8)]
    return dist, lm_train(words, order, float(rng.choice([0.1, 1.0]))), alpha, alphabet


class TestArrayBeamMatchesReference:
    """The array beam search against the scalar loop it replaced, compared
    with == on every field of every final hypothesis."""

    @settings(max_examples=300, deadline=None)
    @example(seed=1, t=27, letters=26, width=20, kind="dense", order=3, alpha=0.2)
    @example(seed=2, t=40, letters=26, width=25, kind="zeros", order=2, alpha=None)
    # pruning at exact ties here depends on the normalizer's reduction order
    # and on which cell a merged prefix takes
    @example(seed=3760460079, t=30, letters=16, width=25, kind="ties", order=2, alpha=0.5)
    @example(seed=1501171885, t=20, letters=13, width=20, kind="ties", order=1, alpha=0.7)
    @given(
        seed=st.integers(0, 2**32 - 1),
        t=st.integers(0, 40),
        letters=st.integers(1, 26),
        width=st.integers(1, 25),
        kind=st.sampled_from(["dense", "zeros", "one-hot", "ties"]),
        order=st.integers(1, 3),
        alpha=st.one_of(st.none(), st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
    )
    def test_hypotheses_bitwise_equal(self, seed, t, letters, width, kind, order, alpha):
        dist, lm, alpha, alphabet = oracle_case(seed, t, letters, kind, order, alpha)

        def fields(hyps):
            return [(h.prefix, h.logp_blank, h.logp_nonblank, h.score) for h in hyps]

        got = beam_search(dist, width, lm, alpha, alphabet)
        assert fields(got) == fields(reference_beam_search(dist, width, lm, alpha, alphabet))
