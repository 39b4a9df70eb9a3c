"""Array plumbing shared by the layers: im2col / col2im.

Convolutions are evaluated as matrix products over unfolded patches —
the same dataflow the accelerator's DSP array uses, which keeps the
float training path and the quantized inference path structurally
aligned.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["conv_output_size", "im2col", "col2im"]


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution along one axis."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out < 1:
        # A pure-numpy geometry helper that predates the ReproError
        # contract: its callers, the layer constructors, rely on the
        # stdlib ValueError.
        raise ValueError(  # lint: ignore[REPRO-EXC002]
            f"convolution output collapsed: size={size} kernel={kernel} "
            f"stride={stride} pad={pad}"
        )
    return out


def im2col(x: np.ndarray, kernel: int, stride: int = 1,
           pad: int = 0) -> Tuple[np.ndarray, int, int]:
    """Unfold NCHW input into patch columns.

    Returns ``(cols, out_h, out_w)`` with ``cols`` of shape
    ``(N * out_h * out_w, C * kernel * kernel)``.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, pad)
    out_w = conv_output_size(w, kernel, stride, pad)
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant")
    cols = np.empty((n, c, kernel, kernel, out_h, out_w), dtype=x.dtype)
    for ky in range(kernel):
        y_end = ky + stride * out_h
        for kx in range(kernel):
            x_end = kx + stride * out_w
            cols[:, :, ky, kx, :, :] = x[:, :, ky:y_end:stride, kx:x_end:stride]
    cols = cols.transpose(0, 4, 5, 1, 2, 3).reshape(
        n * out_h * out_w, c * kernel * kernel
    )
    return cols, out_h, out_w


def col2im(cols: np.ndarray, x_shape: Tuple[int, int, int, int], kernel: int,
           stride: int = 1, pad: int = 0) -> np.ndarray:
    """Fold patch-column gradients back onto the input (im2col adjoint)."""
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kernel, stride, pad)
    out_w = conv_output_size(w, kernel, stride, pad)
    cols = cols.reshape(n, out_h, out_w, c, kernel, kernel).transpose(
        0, 3, 4, 5, 1, 2
    )
    x = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for ky in range(kernel):
        y_end = ky + stride * out_h
        for kx in range(kernel):
            x_end = kx + stride * out_w
            x[:, :, ky:y_end:stride, kx:x_end:stride] += cols[:, :, ky, kx, :, :]
    if pad > 0:
        return x[:, :, pad:-pad, pad:-pad]
    return x
