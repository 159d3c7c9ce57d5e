import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from autodiff_reference import finite_difference_check
from conv_reference import direct_conv2d, direct_conv2d_vjp
from ctcseq import autodiff as ad
from ctcseq.autodiff import (
    Parameter,
    Tensor,
    backward,
    softmax,
)
from ctcseq.model import Linear


class TestSoftmax:
    def test_symmetry(self):
        out = softmax(np.array([0.0, 0.0]), axis=-1)
        assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_shift_invariance_no_overflow(self):
        out = softmax(np.array([1000.0, 1000.0, 1000.0]), axis=-1)
        assert np.all(np.isfinite(out.data))
        assert np.allclose(out.data, 1.0 / 3.0, atol=1e-15)

    def test_hand_evaluation(self):
        out = softmax(np.array([math.log(1.0), math.log(3.0)]), axis=-1)
        assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            softmax(np.zeros((2, 3)), axis=5)

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=8))
    def test_rows_sum_to_one_and_positive(self, logits):
        out = softmax(np.array(logits), axis=-1).data
        assert abs(out.sum() - 1.0) < 1e-12
        assert np.all(out > 0.0)


class TestLinear:
    @staticmethod
    def layer(weight, bias):
        lin = Linear(*weight.shape, np.random.default_rng(0))
        lin.weight.data, lin.bias.data = weight, bias
        return lin

    def test_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        out = self.layer(np.eye(3), np.zeros(3))(x)
        assert np.array_equal(out.data, x.data)

    def test_zero_weight_gives_bias(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 3)))
        b = np.array([1.5, -2.0])
        out = self.layer(np.zeros((3, 2)), b)(x)
        assert np.allclose(out.data, np.broadcast_to(b, (4, 2)))

    def test_matches_naive_triple_loop(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(3, 4)))
        w, b = rng.normal(size=(4, 2)), rng.normal(size=2)
        out = self.layer(w, b)(x)
        ref = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                ref[i, j] = b[j]
                for k in range(4):
                    ref[i, j] += x.data[i, k] * w[k, j]
        assert np.abs(out.data - ref).max() < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


class TestBackward:
    def test_sum_gives_ones(self):
        w = Parameter(np.random.default_rng(0).normal(size=(3, 2)))
        backward(w.sum())
        assert np.array_equal(w.grad, np.ones((3, 2)))

    def test_quadratic_gives_two_w(self):
        w = Parameter(np.random.default_rng(1).normal(size=5))
        backward((w * w).sum())
        assert np.allclose(w.grad, 2.0 * w.data, atol=1e-15)

    def test_accumulation_doubles_exactly(self):
        w = Parameter(np.random.default_rng(2).normal(size=4))
        backward((w * w * w).sum())
        once = w.grad.copy()
        backward((w * w * w).sum())
        assert np.array_equal(w.grad, 2.0 * once)

    def test_gradient_buffer_exists_only_after_a_backward(self):
        w = Parameter(np.ones(3))
        unused = Parameter(np.ones(2))
        assert w.grad is None
        backward((w * 2.0).sum())
        assert np.array_equal(w.grad, np.full(3, 2.0)) and unused.grad is None
        w.zero_grad()
        assert w.grad is None

    def test_loss_without_a_graph_changes_no_gradient(self):
        w = Parameter(np.ones(3))
        backward((w * 2.0).sum())
        with ad.no_grad():
            out = (w * w).sum()
        backward(out)
        assert np.array_equal(w.grad, np.full(3, 2.0))

    def test_non_scalar_rejected(self):
        w = Parameter(np.zeros(3))
        with pytest.raises(ValueError):
            backward(w * 2.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_composed_ops_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        w = Parameter(rng.normal(size=(3, 4)) * 0.5)
        x = Tensor(rng.normal(size=(2, 3)))

        def f():
            h = ad.clamp_min(ad.matmul(x, w), 0.0)
            s = ad.softmax(h + 0.1, axis=-1)
            return (ad.exp(s * 0.3) * ad.sigmoid(w.sum())).sum() + ad.logsumexp(w, axis=0).sum()

        assert finite_difference_check(f, w, 1e-5) < 1e-4


class TestFiniteDifferenceCheck:
    def test_quadratic_is_nearly_exact(self):
        w = Parameter(np.array([1.0, -2.0, 3.0]))
        err = finite_difference_check(lambda: (w * w).sum(), w, 1e-5)
        assert err < 1e-9

    def test_constant_function(self):
        w = Parameter(np.array([1.0, 2.0]))
        err = finite_difference_check(lambda: Tensor(4.2) + 0.0 * w.sum(), w, 1e-5)
        assert err < 1e-10
        assert np.allclose(w.grad, 0.0)


class TestConv2dOracle:
    """conv2d, a relu-fused convolution, against relu of the nested-loop direct
    convolution, forward and vjp; conv2d is channel-major, the oracle NCHW."""

    CASES = [
        # n, cin, cout, h, w, stride
        (1, 1, 2, 7, 5, 1),
        (3, 3, 4, 7, 5, 1),
        (1, 3, 2, 7, 5, 2),
        (3, 1, 4, 7, 5, 2),
        (3, 3, 4, 6, 6, 2),
        (1, 1, 3, 5, 7, 1),
        (3, 3, 2, 8, 9, 2),
    ]

    @staticmethod
    def operands(n, cin, cout, h, w, seed):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(n, cin, h, w)), rng.normal(size=(cout, cin, 3, 3)), rng.normal(size=cout)

    @pytest.mark.parametrize("case", CASES)
    def test_forward_matches_direct_convolution(self, case):
        n, cin, cout, h, w, stride = case
        x, wt, b = self.operands(n, cin, cout, h, w, seed=sum(case))
        out = ad.conv2d(x.transpose(1, 0, 2, 3), wt, b, stride=stride, padding=1)
        want = np.maximum(direct_conv2d(x, wt, b, stride, 1), 0.0)
        assert out.shape == (cout, n) + want.shape[2:]
        assert np.allclose(out.data.transpose(1, 0, 2, 3), want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("case", CASES)
    def test_vjp_matches_direct_convolution(self, case):
        n, cin, cout, h, w, stride = case
        x, wt, b = self.operands(n, cin, cout, h, w, seed=sum(case) + 1)
        xp, wp, bp = Parameter(x.transpose(1, 0, 2, 3)), Parameter(wt), Parameter(b)
        out = ad.conv2d(xp, wp, bp, stride=stride, padding=1)
        g = np.random.default_rng(sum(case)).normal(size=out.shape)
        backward(out, grad=g)
        g = g.transpose(1, 0, 2, 3) * (direct_conv2d(x, wt, b, stride, 1) > 0.0)  # through the relu
        gx, gw, gb = direct_conv2d_vjp(x, wt, g, stride, 1)
        assert np.allclose(xp.grad.transpose(1, 0, 2, 3), gx, rtol=0.0, atol=1e-12)
        assert np.allclose(wp.grad, gw, rtol=0.0, atol=1e-12)
        assert np.allclose(bp.grad, gb, rtol=0.0, atol=1e-12)

    def test_unpadded_and_rejected_shapes(self):
        x, wt, b = self.operands(2, 3, 2, 7, 5, seed=0)
        out = ad.conv2d(x.transpose(1, 0, 2, 3), wt, b, stride=1, padding=0)
        want = np.maximum(direct_conv2d(x, wt, b, 1, 0), 0.0)
        assert np.allclose(out.data.transpose(1, 0, 2, 3), want, rtol=0.0, atol=1e-12)
        with pytest.raises(ValueError, match="channel mismatch"):
            ad.conv2d(x.transpose(1, 0, 2, 3), wt[:, :2], b)
        with pytest.raises(ValueError, match="too small"):
            ad.conv2d(np.zeros((3, 1, 2, 2)), wt, b)

    def test_a_graph_is_walked_once(self):
        # the vjp frees its columns, so a second backward through the node cannot run
        x, wt, b = self.operands(2, 3, 2, 7, 5, seed=0)
        out = ad.conv2d(Parameter(x.transpose(1, 0, 2, 3)), Parameter(wt), Parameter(b), stride=1, padding=1)
        loss = out.sum()
        backward(loss)
        with pytest.raises(ValueError, match="conv2d's vjp already ran: backward walks a graph once"):
            backward(loss)


class TestOpGradients:
    @pytest.mark.parametrize("seed", range(6))
    def test_conv2d(self, seed):
        rng = np.random.default_rng(seed)
        x = Parameter(rng.normal(size=(2, 3, 6, 5)))  # channel-major: (Cin, N, H, W)
        w = Parameter(rng.normal(size=(3, 2, 3, 3)) * 0.4)
        b = Parameter(rng.normal(size=3) * 0.1)
        stride = 1 + seed % 2
        f = lambda: (ad.conv2d(x, w, b, stride=stride, padding=1) ** 2).sum()
        assert finite_difference_check(f, x, 1e-5) < 1e-4
        assert finite_difference_check(f, w, 1e-5) < 1e-4
        assert finite_difference_check(f, b, 1e-5) < 1e-4

    def test_dropout_mask_consistency(self):
        x = Parameter(np.ones(1000))
        out = ad.dropout(x, 0.4, np.random.default_rng(0))
        backward(out.sum())
        # gradient equals the applied mask, so zeros line up exactly
        assert np.array_equal(x.grad == 0.0, out.data == 0.0)
        # without an rng it is the identity: the input itself comes back and no node is built
        assert ad.dropout(x, 0.4, None) is x

    def test_no_grad_blocks_graph(self):
        w = Parameter(np.ones(3))
        with ad.no_grad():
            out = (w * w).sum()
        assert out._vjp is None
