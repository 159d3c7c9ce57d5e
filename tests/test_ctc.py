import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autodiff_reference import finite_difference_check
from ctc_reference import alignment_probability, collapse_partition, sequence_probability_bruteforce
from ctcseq.autodiff import Parameter, Tensor, backward, log_softmax
from ctcseq.ctc import (
    Alphabet,
    FrameDistributionSeq,
    _extended_target,
    _lattice,
    collapse,
    ctc_loss,
    min_frames,
)
from ctcseq.losses import combined_loss
from conftest import dist_of, random_dist


class TestAlphabet:
    def test_blank_is_last(self):
        a = Alphabet(("a", "s", "l"))
        assert a.blank_index == 3
        assert a.num_classes == 4

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Alphabet(("a", "a"))


class TestCollapse:
    def test_asl_examples(self):
        a = Alphabet(("a", "s", "l"))
        blank = a.blank_index
        path1 = a.encode("aa") + [blank] + a.encode("ss") + [blank] + a.encode("l")
        path2 = [blank] + a.encode("a") + [blank] + a.encode("sll")
        assert collapse(path1, blank) == a.encode("asl")
        assert collapse(path2, blank) == a.encode("asl")

    def test_egg_example(self):
        a = Alphabet(("e", "g"))
        blank = a.blank_index
        path = a.encode("ee") + [blank] + a.encode("ggg") + [blank] + a.encode("g")
        assert collapse(path, blank) == a.encode("egg")

    def test_all_blank(self):
        assert collapse([4, 4, 4], 4) == []

    @given(st.lists(st.integers(min_value=0, max_value=3), max_size=10))
    def test_idempotent_on_own_output(self, path):
        # Re-embedding cannot preserve adjacent repeats (the map writes
        # them as letter-blank-letter), so the property is scoped to
        # outputs without them.
        blank = 3
        once = collapse(path, blank)
        if any(a == b for a, b in zip(once, once[1:])):
            return
        assert collapse(once, blank) == once


class TestFrameDistributionSeq:
    def test_rejects_non_2d_input(self):
        with pytest.raises(ValueError, match="T x C'"):
            FrameDistributionSeq(Tensor(np.log(np.full(4, 0.25))))

    def test_rejects_positive_log_prob(self):
        # the row's logsumexp is 1e-12, inside the tolerance: only the sign
        # check can catch it
        with pytest.raises(ValueError, match="exceed 0"):
            FrameDistributionSeq(Tensor(np.array([[1e-12, -np.inf]])))

    def test_row_logsumexp_tolerance(self):
        with pytest.raises(ValueError, match="logsumexp"):
            FrameDistributionSeq(Tensor(np.log([[0.5, 0.5], [0.5, 0.5 - 2e-9]])))
        with pytest.raises(ValueError, match="logsumexp"):
            FrameDistributionSeq(Tensor(np.full((1, 3), -np.inf)))
        FrameDistributionSeq(Tensor(np.log([[0.5, 0.5 - 5e-10]])))


class TestAlignmentProbability:
    def test_uniform_product(self):
        probs = np.full((2, 4), 0.25)
        for path in itertools.product(range(4), repeat=2):
            assert alignment_probability(probs, path) == pytest.approx(1 / 16, abs=1e-15)

    def test_zero_entry_absorbs(self):
        probs = np.array([[1.0, 0.0], [0.5, 0.5]])
        assert alignment_probability(probs, [1, 0]) == 0.0

    def test_matches_direct_multiplication(self):
        rng = np.random.default_rng(3)
        probs = random_dist(rng, 3, 4)
        path = (0, 3, 1)
        direct = probs[0, 0] * probs[1, 3] * probs[2, 1]
        assert abs(alignment_probability(probs, path) - direct) < 1e-15

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            alignment_probability(np.full((2, 2), 0.5), [0])


class TestBruteForce:
    def test_single_frame(self):
        probs = np.array([[0.6, 0.3, 0.1]])
        assert sequence_probability_bruteforce(probs, [1]) == pytest.approx(0.3, abs=1e-15)

    def test_two_frames_hand_enumeration(self):
        # C'=2: letter a and blank; paths collapsing to "a": aa, a-, -a
        rng = np.random.default_rng(7)
        probs = random_dist(rng, 2, 2)
        expected = (
            probs[0, 0] * probs[1, 0]
            + probs[0, 0] * probs[1, 1]
            + probs[0, 1] * probs[1, 0]
        )
        assert sequence_probability_bruteforce(probs, [0]) == pytest.approx(expected, abs=1e-15)

    def test_target_longer_than_frames(self):
        probs = np.full((2, 3), 1 / 3)
        assert sequence_probability_bruteforce(probs, [0, 1, 0]) == 0.0

    def test_refuses_large_instances(self):
        probs = np.full((30, 6), 1 / 6)
        with pytest.raises(ValueError):
            sequence_probability_bruteforce(probs, [0])


class TestCtcLoss:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(1, 7))
        c = int(rng.integers(1, 4))
        k = int(rng.integers(0, min(3, t) + 1))
        probs = random_dist(rng, t, c + 1)
        target = [int(x) for x in rng.integers(0, c, size=k)]
        res = ctc_loss(dist_of(probs), target)
        bf = sequence_probability_bruteforce(probs, target)
        got = math.exp(-res.loss.item())
        assert abs(got - bf) < 1e-9

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=40),
           st.lists(st.tuples(st.integers(min_value=0, max_value=25), st.booleans()), max_size=26),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_feasible_exactly_when_min_frames_fit(self, t, letters, seed):
        # each drawn letter is held once, or twice in a row (a forced repeat); at most 26 letters
        target = [l for l, twice in letters for _ in range(1 + twice)][:26]
        probs = random_dist(np.random.default_rng(seed), t, 27)
        assert math.isinf(ctc_loss(dist_of(probs), target).loss.item()) == (t < min_frames(target))

    def test_zero_frames_carry_only_the_empty_target(self):
        dist = dist_of(np.zeros((0, 3)))
        assert ctc_loss(dist, []).loss.item() == 0.0
        assert ctc_loss(dist, [0]).loss.item() == float("inf")

    def test_one_hot_single_frame_zero_loss(self):
        probs = np.array([[1.0, 0.0, 0.0]])
        res = ctc_loss(dist_of(probs), [0])
        assert res.loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_repeat_needs_three_frames(self):
        probs = np.full((2, 2), 0.5)
        res = ctc_loss(dist_of(probs), [0, 0])
        assert res.loss.item() == float("inf")
        assert not math.isnan(res.loss.item())

    def test_zero_probability_letter_gives_inf_without_a_graph(self):
        # the two frames fit min_frames([0, 1]), but letter 1 has probability zero in both
        lp = np.log(np.full((2, 3), 0.5))
        lp[:, 1] = -np.inf
        log_probs = Parameter(lp)
        assert min_frames([0, 1]) == 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss = ctc_loss(FrameDistributionSeq(log_probs), [0, 1]).loss
            report = combined_loss(FrameDistributionSeq(log_probs), [0, 1], 0.5)
        assert loss.item() == float("inf") and loss._vjp is None
        assert report.total == float("inf")

    def test_blank_in_target_rejected(self):
        probs = np.full((2, 3), 1 / 3)
        with pytest.raises(ValueError):
            ctc_loss(dist_of(probs), [2])

    def test_permutation_covariance(self):
        rng = np.random.default_rng(11)
        probs = random_dist(rng, 5, 4)
        target = [0, 2, 1]
        perm = [2, 0, 1]  # relabel letters, blank stays put
        permuted = probs[:, np.argsort(perm + [3])]
        # mapping letters through the same permutation leaves the loss alone
        base = ctc_loss(dist_of(probs), target).loss.item()
        moved = ctc_loss(dist_of(permuted), [perm[l] for l in target]).loss.item()
        assert abs(base - moved) < 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_gradients_pass_finite_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        t = int(rng.integers(2, 6))
        c = int(rng.integers(2, 4))
        logits = Parameter(rng.normal(size=(t, c + 1)))
        target = [int(x) for x in rng.integers(0, c, size=rng.integers(1, 3))]

        def f():
            dist = FrameDistributionSeq(log_softmax(logits, axis=-1))
            return ctc_loss(dist, target).loss

        assert finite_difference_check(f, logits, 1e-5) < 1e-4


def long_instance(seed):
    """T of 4 to 40 frames, up to 26 letters, and a feasible target with an
    adjacent repeated letter: past the reach of the brute-force oracle."""
    rng = np.random.default_rng(seed)
    t = int(rng.integers(4, 41))
    c = int(rng.integers(1, 27))
    n = int(rng.integers(2, t // 2 + 1))
    target = [int(x) for x in rng.integers(0, c, size=n)]
    k = int(rng.integers(1, n))
    target[k] = target[k - 1]
    return random_dist(rng, t, c + 1), target


def loop_lattices(lp, ext):
    """Reference forward and backward variables, one lattice state at a
    time, in the same operation order as the vectorized routine."""
    t_total, s_total = lp.shape[0], len(ext)
    alpha = np.full((t_total, s_total), -np.inf)
    beta = np.full((t_total, s_total), -np.inf)
    alpha[0, :2] = lp[0, ext[:2]]
    beta[-1, -2:] = 0.0
    for t in range(1, t_total):
        for s in range(s_total):
            acc = alpha[t - 1, s]
            if s >= 1:
                acc = np.logaddexp(acc, alpha[t - 1, s - 1])
            if s >= 2 and ext[s] != ext[0] and ext[s] != ext[s - 2]:
                acc = np.logaddexp(acc, alpha[t - 1, s - 2])
            alpha[t, s] = acc + lp[t, ext[s]]
    for t in range(t_total - 2, -1, -1):
        nxt = beta[t + 1] + lp[t + 1, ext]
        for s in range(s_total):
            acc = nxt[s]
            if s + 1 < s_total:
                acc = np.logaddexp(acc, nxt[s + 1])
            if s + 2 < s_total and ext[s] != ext[0] and ext[s] != ext[s + 2]:
                acc = np.logaddexp(acc, nxt[s + 2])
            beta[t, s] = acc
    return alpha, beta


class TestLongSequences:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_lattice_matches_per_state_loop_bitwise(self, seed):
        probs, target = long_instance(seed)
        lp = np.log(probs)
        ext = _extended_target(target, probs.shape[1] - 1)
        alpha, beta = loop_lattices(lp, ext)
        assert np.array_equal(_lattice(lp, ext) + lp[:, ext], alpha)
        assert np.array_equal(_lattice(lp[::-1], ext[::-1])[::-1, ::-1], beta)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_time_reversal_leaves_loss_unchanged(self, seed):
        probs, target = long_instance(seed)
        forward = ctc_loss(dist_of(probs), target).loss.item()
        reverse = ctc_loss(dist_of(probs[::-1].copy()), target[::-1]).loss.item()
        assert abs(forward - reverse) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_log_prob_gradient_rows_sum_to_minus_one(self, seed):
        # each frame sits in exactly one lattice state, so the alignment
        # posterior of every frame sums to one
        probs, target = long_instance(seed)
        log_probs = Parameter(np.log(probs))
        res = ctc_loss(FrameDistributionSeq(log_probs), target)
        backward(res.loss)
        assert np.max(np.abs(log_probs.grad.sum(axis=1) + 1.0)) < 1e-9


class TestPartition:
    @pytest.mark.parametrize("seed", range(5))
    def test_collapse_map_partitions_path_space(self, seed):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(1, 5))
        c = int(rng.integers(1, 3))
        probs = random_dist(rng, t, c + 1)
        table = collapse_partition(probs)
        assert abs(sum(table.values()) - 1.0) < 1e-9
        # and the forward DP agrees with each entry it can reach
        for target, mass in table.items():
            if len(target) == 0:
                continue
            nll = ctc_loss(dist_of(probs), list(target)).loss.item()
            assert abs(math.exp(-nll) - mass) < 1e-9
