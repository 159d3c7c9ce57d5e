import math

import numpy as np
import pytest

from ctcseq.ctc import Alphabet, collapse_partition, sequence_probability_bruteforce
from ctcseq.decoder import (
    beam_decode,
    beam_search,
    decode,
    greedy_beam_disagreement_example,
    greedy_decode,
    lm_fused_beam_decode,
    _score_candidates,
)
from ctcseq.lm import lm_train
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
        # two candidates with equal mass: each has s_b = 0.5; the language
        # model assigns the extension probability 0.25
        lm = lm_train(["a"], order=1, smoothing_alpha=1.0)
        assert lm.cond_prob("b", "") == pytest.approx(0.25)
        alphabet = Alphabet(("a", "b"))
        half = math.log(0.3)
        candidates = {
            (1,): [half, float("-inf"), True],   # letter "b", extended now
            (0,): [half, float("-inf"), False],  # letter "a", continuation
        }
        scored = {p: s for s, p, _, _ in _score_candidates(candidates, lm, 0.2, alphabet)}
        assert scored[(1,)] == pytest.approx((1 - 0.2) * 0.5 + 0.2 * 0.25, abs=1e-12)
        assert scored[(0,)] == pytest.approx(0.5, abs=1e-12)

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
