import math

import numpy as np
import pytest

from autodiff_reference import finite_difference_check
from ctcseq.autodiff import Parameter, backward, log_softmax
from ctcseq.ctc import FrameDistributionSeq, ctc_loss
from ctcseq.losses import LN2, combined_loss, max_entropy_loss
from conftest import dist_of


class TestMaxEntropyLoss:
    def test_uniform_frames_give_zero(self):
        d = dist_of(np.full((4, 32), 1 / 32))
        assert abs(max_entropy_loss(d).item()) < 1e-12

    def test_one_hot_frames_give_log2_cprime(self):
        probs = np.zeros((3, 8))
        probs[:, 2] = 1.0
        assert max_entropy_loss(dist_of(probs)).item() == pytest.approx(3.0, abs=1e-12)

    def test_hand_computed_half_bit(self):
        d = dist_of([[0.5, 0.5], [1.0, 0.0]])
        assert max_entropy_loss(d).item() == pytest.approx(0.5, abs=1e-12)

    def test_nonnegative_and_positive_off_uniform(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            probs = rng.random((3, 5)) + 1e-3
            probs /= probs.sum(axis=1, keepdims=True)
            assert max_entropy_loss(dist_of(probs)).item() >= 0.0
        nearly = np.full((2, 4), 0.25)
        nearly[0] = [0.25 + 1e-6, 0.25 - 1e-6, 0.25, 0.25]
        nearly[1] = [0.25, 0.25, 0.25, 0.25]
        assert max_entropy_loss(dist_of(nearly)).item() > 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        probs = rng.random((4, 6)) + 1e-3
        probs /= probs.sum(axis=1, keepdims=True)
        shuffled = probs[:, rng.permutation(6)]
        a = max_entropy_loss(dist_of(probs)).item()
        b = max_entropy_loss(dist_of(shuffled)).item()
        assert abs(a - b) < 1e-12

    def test_uniform_is_a_stationary_point(self):
        logits = Parameter(np.zeros((3, 5)))
        lp = log_softmax(logits, axis=-1)
        mel = max_entropy_loss(FrameDistributionSeq(lp))
        backward(mel)
        assert np.abs(logits.grad).max() < 1e-9


class TestCombinedLoss:
    def test_zero_weight_reduces_to_ctc(self):
        rng = np.random.default_rng(2)
        probs = rng.random((4, 4)) + 1e-3
        probs /= probs.sum(axis=1, keepdims=True)
        report = combined_loss(dist_of(probs), [0, 1], 0.0)
        assert report.total == report.ctc

    def test_one_hot_matching_target(self):
        # perfect spike on the target letter: ctc is 0, only mel remains
        probs = np.zeros((1, 4))
        probs[0, 2] = 1.0
        report = combined_loss(dist_of(probs), [2], 0.3)
        assert report.ctc == pytest.approx(0.0, abs=1e-12)
        assert report.total == pytest.approx(0.3 * math.log2(4) * LN2, abs=1e-12)

    def test_total_combines_units(self):
        rng = np.random.default_rng(3)
        probs = rng.random((5, 4)) + 1e-3
        probs /= probs.sum(axis=1, keepdims=True)
        report = combined_loss(dist_of(probs), [1], 0.25)
        assert report.total == pytest.approx(report.ctc + 0.25 * report.mel * LN2, abs=1e-12)
        assert 0.0 <= report.mel <= math.log2(4)

    def test_infeasible_target_flagged(self):
        probs = np.full((2, 3), 1 / 3)
        report = combined_loss(dist_of(probs), [0, 0], 0.1)
        assert not report.feasible
        assert report.total == float("inf")
        assert report.node is None

    def test_invalid_weight_rejected(self):
        with pytest.raises(ValueError):
            combined_loss(dist_of(np.full((1, 2), 0.5)), [0], 1.5)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_passes_finite_differences(self, seed):
        rng = np.random.default_rng(40 + seed)
        logits = Parameter(rng.normal(size=(4, 4)))
        target = [int(x) for x in rng.integers(0, 3, size=2)]

        def f():
            lp = log_softmax(logits, axis=-1)
            d = FrameDistributionSeq(lp)
            return combined_loss(d, target, 0.2).node

        assert finite_difference_check(f, logits, 1e-5) < 1e-4


class TestZeroProbabilityClasses:
    """One-hot frames hold -inf log-probs; every loss must stay finite."""

    @staticmethod
    def one_hot_log_probs():
        one_hot = np.eye(4)[[0, 3, 1, 1]]  # blank is class 3; collapses to [0, 1]
        with np.errstate(divide="ignore"):
            return Parameter(np.log(one_hot))

    @pytest.mark.parametrize("loss", ["ctc", "mel", "combined"])
    def test_finite_value_and_gradient(self, loss):
        lp = self.one_hot_log_probs()
        dist = FrameDistributionSeq(lp)
        node = {
            "ctc": lambda: ctc_loss(dist, [0, 1]).loss,
            "mel": lambda: max_entropy_loss(dist),
            "combined": lambda: combined_loss(dist, [0, 1], 0.3).node,
        }[loss]()
        assert np.isfinite(node.item())
        backward(node)
        assert np.all(np.isfinite(lp.grad))

    def test_one_hot_values(self):
        dist = FrameDistributionSeq(self.one_hot_log_probs())
        assert max_entropy_loss(dist).item() == pytest.approx(math.log2(4), abs=1e-12)
        assert ctc_loss(dist, [0, 1]).value() == pytest.approx(0.0, abs=1e-12)
