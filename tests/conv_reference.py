"""Direct convolution by nested loops, the oracle for ``autodiff.conv2d``.

Both functions work in NCHW layout, one output cell and one kernel tap at a
time, with no im2col, no layout change and no shifted buffers.
"""
import numpy as np


def direct_conv2d(x, weight, bias, stride: int, padding: int) -> np.ndarray:
    """x (N, Cin, H, W), weight (Cout, Cin, kh, kw), bias (Cout,) ->
    (N, Cout, OH, OW) cross-correlation with zero padding."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = weight.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, cout, oh, ow))
    for b in range(n):
        for o in range(cout):
            for y in range(oh):
                for z in range(ow):
                    acc = bias[o]
                    for c in range(cin):
                        for i in range(kh):
                            for j in range(kw):
                                r, s = y * stride + i - padding, z * stride + j - padding
                                if 0 <= r < h and 0 <= s < w:
                                    acc += weight[o, c, i, j] * x[b, c, r, s]
                    out[b, o, y, z] = acc
    return out


def direct_conv2d_vjp(x, weight, g, stride: int, padding: int):
    """(gx, gw, gb) of ``sum(g * direct_conv2d(x, weight, bias))``, each
    output cell's gradient spread back over the inputs it read."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = weight.shape
    gx, gw = np.zeros_like(x), np.zeros_like(weight)
    for b in range(n):
        for o in range(cout):
            for y in range(g.shape[2]):
                for z in range(g.shape[3]):
                    for c in range(cin):
                        for i in range(kh):
                            for j in range(kw):
                                r, s = y * stride + i - padding, z * stride + j - padding
                                if 0 <= r < h and 0 <= s < w:
                                    gx[b, c, r, s] += weight[o, c, i, j] * g[b, o, y, z]
                                    gw[o, c, i, j] += x[b, c, r, s] * g[b, o, y, z]
    return gx, gw, g.sum(axis=(0, 2, 3))
