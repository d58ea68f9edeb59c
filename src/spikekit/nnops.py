"""Small dense building blocks shared by the forward-path modules.

Everything here is plain numpy in float64 with deterministic evaluation
order, so desk-scale forwards stay fast without any framework dependency.

``conv2d`` is the one convolution kernel. It reads the input from a
zero-padded buffer, takes a strided view ``[C_in, kh, kw, H', cols]`` of
it and multiplies by the kernel in one of two orientations:

* smaller maps copy the view to pixel-major columns
  ``[H'*W', C_in*kh*kw]`` and compute one ``cols @ kernel2d.T``.
* output maps of at least ``TAP_MAJOR_MIN_PIXELS`` pixels (16x16) copy
  it to tap-major columns ``[C_in*kh*kw, n]`` and compute
  ``kernel2d @ cols``, whose product already has the ``[C_out, H', .]``
  layout. At stride 1 the padded buffer is one flat run with ``kw - 1``
  spare zeros at its end, and an output row spans a whole padded row of
  ``Wp = W + 2p`` columns: tap ``(c, dy, dx)`` is the contiguous slice
  ``flat[c*plane + dy*Wp + dx:][:n]`` with ``n = H'*Wp``, so each column
  row is copied as one run. The last ``kw - 1`` columns of each row wrap
  into the next padded row and are cropped. Other strides copy rows of
  ``W'`` strided values.

This module alone knows that layout. ``padded_zeros`` makes it, and an
input that already sits in such a buffer is read in place: a float64
input that is the interior of a C-ordered ``[C_in, H + 2p, W + 2p]``
block of the array that owns its memory, when that block's border and
the spare zeros after it hold +0.0 in every bit. A C-contiguous float64
input with no border or spare zeros to hold is its own buffer. Any other
input is copied once into a new ``padded_zeros`` buffer, so memory that
is not zero is never read as padding. Either way the columns are copies
of the same values, so the product has the same bits. ``out`` takes the
``[C_out, H', W']`` result in the caller's float64 array instead of a
new one; it changes no value.

The tap-major GEMM runs in bands of whole output rows, about
``BAND_BYTES`` of columns each, so only one band of columns is alive at
a time. K keeps the ``(c, dy, dx)`` order, and every output element is
the same dot product in the same order, so a band gives the bits of the
whole-map GEMM as long as it takes the same BLAS kernel. Measured with
OpenBLAS 0.3.31 at one thread, two things switch kernels:

* a GEMM of at most ``SMALL_GEMM_MACS`` (1e6) multiply-adds takes the
  small-matrix kernel: a ``3x432`` kernel (spatial attention) gave other
  bits at N <= 768 columns, and a ``16x549`` kernel (HSFE branch 0) at
  N <= 112.
* a band that is not a multiple of 8 columns ends in tail kernels: a
  42-row band (2772 columns) of the ``21->16`` branch conv at 64 px
  changed bytes.

So a band is a multiple of 8 columns above ``SMALL_GEMM_MACS``: the band
of about ``BAND_BYTES`` (1 MiB), rounded up to the smallest such band
where it falls short. The last band takes the leftover rows, and only a
map with no room for two bands runs as one.

This rule holds for the GEMM kernels OpenBLAS 0.3.31 calls ``SkylakeX``
and ``Sandybridge`` (``OPENBLAS_CORETYPE``). It does not hold for its
``Haswell`` and ``Katmai`` kernels: there the spatial-attention conv's
bands at 128 and 256 px give bits other than the whole-map GEMM's, at
most 8.4e-16 relative apart.

On large maps both orientations give the same bits. On small maps the
BLAS picks other kernels for the two layouts, and several backbone
shapes round 1-2 ulp apart. The few-shot fine-tune is chaotic, and the
benchmark checks its top-1 values for exact equality, so one ulp in an
embedding moves results. The small-map branch keeps those bits until
that check tolerates embedding drift.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PreconditionError

# Output maps with at least this many pixels use tap-major columns.
TAP_MAJOR_MIN_PIXELS = 256
# Tap-major GEMMs run in bands of whole output rows, each holding about
# this many bytes of columns.
BAND_BYTES = 1 << 20
# OpenBLAS computes a GEMM of at most this many multiply-adds with its
# small-matrix kernel, whose bits differ from the blocked kernel's.
SMALL_GEMM_MACS = 1_000_000


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """``1 / (1 + e)`` where ``x >= 0`` and ``e / (1 + e)`` elsewhere, with
    ``e = exp(-|x|)``, so no ``exp`` overflows. ``minimum(x, -x)`` keeps a
    NaN's sign bit, and in place at most three arrays of x's size live."""
    e = np.exp(np.minimum(x, -x))
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
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


def _held_padding(x: np.ndarray, padding: int,
                  spare: int) -> np.ndarray | None:
    """The zero-padded buffer that ``x`` already sits in, or None: the
    ``[C, H + 2p, W + 2p]`` block of the array owning ``x``'s memory whose
    interior ``x`` is, when that block and ``spare`` elements after it
    are in the owner, all float64, and the border and the spare elements
    are +0.0 in every bit."""
    base = x.base
    c, h, w = x.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    if not (isinstance(base, np.ndarray) and base.dtype == np.float64
            and base.flags.c_contiguous and x.dtype == np.float64
            and x.strides == (8 * hp * wp, 8 * wp, 8)):
        return None
    offset, rest = divmod(x.ctypes.data - base.ctypes.data, 8)
    start = offset - padding * (wp + 1)
    size = c * hp * wp
    if rest or start < 0 or start + size + spare > base.size:
        return None
    flat = base.reshape(-1)[start:start + size + spare]
    bits = flat.view(np.uint64)
    grid, p = bits[:size].reshape(c, hp, wp), padding
    if (bits[size:].any() or grid[:, :p].any() or grid[:, hp - p:].any()
            or grid[:, :, :p].any() or grid[:, :, wp - p:].any()):
        return None
    return flat[:size].reshape(c, hp, wp)


def padded_zeros(c: int, h: int, w: int, padding: int = 1,
                 spare: int = 2) -> np.ndarray:
    """Zero [c, h, w] maps inside the buffer :func:`conv2d` reads in place:
    one flat run of the C-ordered ``[c, h + 2p, w + 2p]`` maps, each
    bordered by ``padding`` zeros, then the ``spare`` (``kw - 1``) zeros
    that stride-1 columns run into; the defaults are a 3x3 conv's. The
    first k maps are such maps too: map k's top border is their spare."""
    hp, wp = h + 2 * padding, w + 2 * padding
    maps = np.zeros(c * hp * wp + spare)[:c * hp * wp].reshape(c, hp, wp)
    return maps[:, padding:padding + h, padding:padding + w]


def _padded(x: np.ndarray, padding: int, spare: int) -> np.ndarray:
    """``x`` zero-padded by ``padding`` on each spatial side: a C-ordered
    ``[C, H + 2p, W + 2p]`` view of a flat buffer that holds ``spare``
    more zeros after it. The buffer ``x`` sits in (:func:`_held_padding`)
    is read in place, and an unpadded C-contiguous float64 ``x`` with no
    spare is its own buffer. Any other ``x`` is copied once into
    :func:`padded_zeros`."""
    if padding == 0 and spare == 0:
        return np.ascontiguousarray(x, dtype=np.float64)
    held = _held_padding(x, padding, spare)
    if held is not None:
        return held
    c, h, w = x.shape
    maps = padded_zeros(c, h, w, padding, spare)
    maps[...] = x
    return maps.base[:maps.base.size - spare].reshape(
        c, h + 2 * padding, w + 2 * padding)


def _taps(xp: np.ndarray, kh: int, kw: int, rows: int, row_cols: int,
          stride: int) -> np.ndarray:
    """Read-only view ``[C, kh, kw, rows, row_cols]`` of ``xp``: tap
    ``(c, dy, dx)`` at output pixel ``(y, x)`` is
    ``xp[c, y*stride + dy, x*stride + dx]``."""
    s_c, s_h, s_w = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp, (xp.shape[0], kh, kw, rows, row_cols),
        (s_c, s_h, s_w, s_h * stride, s_w * stride), writeable=False)


def _band_rows(k: int, c_out: int, h_out: int, row_cols: int) -> int:
    """Output rows per tap-major band: about ``BAND_BYTES`` of columns, or
    the fewest rows above ``SMALL_GEMM_MACS`` per GEMM where that is more,
    in multiples of 8 columns; one band of all ``h_out`` rows when no such
    band fits twice."""
    step = 8 // math.gcd(row_cols, 8)
    steps = max(BAND_BYTES // (8 * k * row_cols * step),
                SMALL_GEMM_MACS // (c_out * k * row_cols * step) + 1)
    return h_out if 2 * step * steps > h_out else step * steps


def conv2d(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray | None = None,
           stride: int = 1, padding: int = 1,
           out: np.ndarray | None = None) -> np.ndarray:
    """2-D convolution (cross-correlation) of [C_in, H, W] with
    [C_out, C_in, kh, kw], zero padding. The [C_out, H', W'] result is
    written into ``out`` when it is given, a float64 array that shares no
    memory with ``x``, and returned."""
    if x.ndim != 3:
        raise PreconditionError(f"conv2d input must be 3-D, got {x.shape}")
    if kernel.ndim != 4 or kernel.shape[1] != x.shape[0]:
        raise PreconditionError(
            f"conv2d kernel {kernel.shape} does not match input {x.shape}")
    c_out, c_in, kh, kw = kernel.shape
    _, h, w = x.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    if hp < kh or wp < kw:
        raise PreconditionError("conv2d input smaller than kernel")
    h_out = (hp - kh) // stride + 1
    w_out = (wp - kw) // stride + 1
    if out is not None and (out.shape != (c_out, h_out, w_out)
                            or out.dtype != np.float64
                            or np.may_share_memory(out, x)):
        raise PreconditionError(
            f"conv2d out must be a float64 {(c_out, h_out, w_out)} array "
            f"apart from the input, got {out.dtype} {out.shape}")
    kernel2d = kernel.reshape(c_out, -1)
    if h_out * w_out < TAP_MAJOR_MIN_PIXELS:
        taps = _taps(_padded(x, padding, 0), kh, kw, h_out, w_out, stride)
        cols = taps.transpose(3, 4, 0, 1, 2).reshape(h_out * w_out, -1)
        y = cols @ kernel2d.T                         # [H'*W', C_out]
        if bias is not None:
            y = y + bias
        if out is None:
            return y.T.reshape(c_out, h_out, w_out)
        out[...] = y.T.reshape(c_out, h_out, w_out)
        return out
    # At stride 1 an output row spans a whole padded row, so each tap row
    # is one contiguous run; its last kw - 1 columns wrap and are cropped.
    row_cols = wp if stride == 1 else w_out
    taps = _taps(_padded(x, padding, kw - 1 if stride == 1 else 0),
                 kh, kw, h_out, row_cols, stride)
    rows = _band_rows(kernel2d.shape[1], c_out, h_out, row_cols)
    n_bands = h_out // rows
    if out is None:
        out = np.empty((c_out, h_out, w_out))
    for i in range(n_bands):
        lo = i * rows
        hi = h_out if i == n_bands - 1 else lo + rows
        band = kernel2d @ taps[:, :, :, lo:hi].reshape(kernel2d.shape[1], -1)
        if bias is not None:
            band += bias[:, None]
        out[:, lo:hi] = band.reshape(c_out, hi - lo, row_cols)[:, :, :w_out]
    return out


def he_init(rng: np.random.Generator, shape: tuple[int, ...],
            fan_in: int) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
