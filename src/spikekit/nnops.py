"""Small dense building blocks shared by the forward-path modules.

Everything here is plain numpy in float64 with deterministic evaluation
order, so desk-scale forwards stay fast without any framework dependency.

``conv2d`` is the one convolution kernel. It writes the input into a
zeroed padded buffer, takes one strided view ``[C_in, kh, kw, H', W']``
of it and runs one GEMM, in one of two orientations:

* output maps of at least ``TAP_MAJOR_MIN_PIXELS`` pixels (16x16) copy
  the view to tap-major columns ``[C_in*kh*kw, H'*W']`` and compute
  ``kernel2d @ cols``. Each copied row is a contiguous run of ``W'``
  values, and the product already has the ``[C_out, H', W']`` layout.
* smaller maps copy it to pixel-major columns ``[H'*W', C_in*kh*kw]`` and
  compute ``cols @ kernel2d.T``.

On large maps both orientations give the same bits, and tap-major skips
a copy that strides ``kw`` values at a time. On small maps the BLAS picks
other kernels for the two layouts, and several backbone shapes round
1-2 ulp apart. The few-shot fine-tune is chaotic, and the benchmark
checks its top-1 values for exact equality, so one ulp in an embedding
moves results. The small-map branch keeps those bits until that check
tolerates embedding drift.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError

# Output maps with at least this many pixels use tap-major columns.
TAP_MAJOR_MIN_PIXELS = 256


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=axis, keepdims=True)


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise affine map: x @ w + b. Shapes [..., d_in] x [d_in, d_out]."""
    if x.shape[-1] != w.shape[0]:
        raise PreconditionError(
            f"linear: input dim {x.shape[-1]} does not match weight {w.shape}")
    return x @ w + b


def conv2d(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray | None = None,
           stride: int = 1, padding: int = 1) -> np.ndarray:
    """2-D convolution (cross-correlation) of [C_in, H, W] with
    [C_out, C_in, kh, kw], zero padding."""
    if x.ndim != 3:
        raise PreconditionError(f"conv2d input must be 3-D, got {x.shape}")
    if kernel.ndim != 4 or kernel.shape[1] != x.shape[0]:
        raise PreconditionError(
            f"conv2d kernel {kernel.shape} does not match input {x.shape}")
    c_out, c_in, kh, kw = kernel.shape
    _, h, w = x.shape
    xp = np.zeros((c_in, h + 2 * padding, w + 2 * padding))
    if xp.shape[1] < kh or xp.shape[2] < kw:
        raise PreconditionError("conv2d input smaller than kernel")
    xp[:, padding:padding + h, padding:padding + w] = x
    h_out = (xp.shape[1] - kh) // stride + 1
    w_out = (xp.shape[2] - kw) // stride + 1
    s_c, s_h, s_w = xp.strides
    taps = np.lib.stride_tricks.as_strided(
        xp, (c_in, kh, kw, h_out, w_out),
        (s_c, s_h, s_w, s_h * stride, s_w * stride), writeable=False)
    kernel2d = kernel.reshape(c_out, -1)
    if h_out * w_out >= TAP_MAJOR_MIN_PIXELS:
        out = kernel2d @ taps.reshape(kernel2d.shape[1], h_out * w_out)
        if bias is not None:
            out += bias[:, None]
        return out.reshape(c_out, h_out, w_out)
    cols = taps.transpose(3, 4, 0, 1, 2).reshape(h_out * w_out, -1)
    out = cols @ kernel2d.T                           # [H'*W', C_out]
    if bias is not None:
        out = out + bias
    return out.T.reshape(c_out, h_out, w_out)


def moving_average_same(x: np.ndarray, width: int) -> np.ndarray:
    """Centered moving average along axis 0 with same-length output.

    Edge windows shrink to the valid range and are normalized by the
    actual tap count, keeping the map linear in x.
    """
    if width < 1:
        raise PreconditionError("averaging width must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    if width == 1:
        return x.copy()
    t = x.shape[0]
    half_lo = (width - 1) // 2
    half_hi = width // 2
    out = np.empty_like(x)
    for i in range(t):
        lo = max(0, i - half_lo)
        hi = min(t, i + half_hi + 1)
        out[i] = x[lo:hi].sum(axis=0) / (hi - lo)
    return out


def he_init(rng: np.random.Generator, shape: tuple[int, ...],
            fan_in: int) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
