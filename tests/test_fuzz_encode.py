"""Fuzzing of what `spikekit encode` reads: whatever the `.npy` array
(dtype, shape, values) or the PGM header and body bytes, the command
returns 0, 2 or 3, with an `error:` line when it fails, and never raises.

Derandomized, so every run draws the same examples."""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import run_cli

FUZZ = settings(derandomize=True, max_examples=100, deadline=None,
                database=None)

_SHAPES = hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4)

# Videos of at least one pixel, [T, H, W] or RGB [T, H, W, 3].
_VIDEO_SHAPES = st.tuples(st.integers(1, 3), st.integers(1, 4),
                          st.integers(1, 4)) \
    | st.tuples(st.integers(1, 2), st.integers(1, 3), st.integers(1, 3),
                st.just(3))

NPY_ARRAYS = st.one_of(
    hnp.arrays(st.one_of(hnp.scalar_dtypes(), hnp.byte_string_dtypes(),
                         hnp.unicode_string_dtypes()), _SHAPES),
    # Mostly in range, so the fuzz also reaches the encoder.
    hnp.arrays(st.sampled_from([np.float64, np.float32]), _VIDEO_SHAPES,
               elements=st.floats(0.0, 1.0, width=32) | st.sampled_from(
                   [np.nan, np.inf, 1.5])),
    hnp.arrays(st.sampled_from([np.uint8, np.int64, np.bool_]),
               _VIDEO_SHAPES, elements=st.integers(0, 1)),
)


@st.composite
def pgm_files(draw):
    """A valid 8-bit PGM/PPM frame, one with one fuzzed header field, or
    raw bytes."""
    kind = draw(st.sampled_from(["valid", "fuzzed", "raw"]))
    if kind == "raw":
        return draw(st.binary(max_size=64))
    magic = draw(st.sampled_from([b"P5", b"P6"]))
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    fields = [magic, b"%d" % width, b"%d" % height, b"255"]
    size = width * height * (3 if magic == b"P6" else 1)
    body = st.binary(min_size=size, max_size=size + 2)
    if kind == "fuzzed":
        fields[draw(st.integers(0, 3))] = draw(st.sampled_from(
            [b"P2", b"-8", b"0", b"x", b"+2", b"0x2", b"1_0", b"", b"65535"]))
        body = st.binary(max_size=size + 2)
    sep = draw(st.sampled_from([b" ", b"\n", b"\t", b"\n# note\n"]))
    return sep.join(fields) + b"\n" + draw(body)


def _encode(write_input) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        src = write_input(tmp)
        code, err = run_cli(["encode", src, os.path.join(tmp, "v.dat")])
    assert code in (0, 2, 3)
    if code:
        assert err.startswith(("error: ", "i/o error: "))


@FUZZ
@given(NPY_ARRAYS)
def test_encode_of_any_npy_exits_0_2_or_3(arr):
    def write(tmp):
        path = os.path.join(tmp, "v.npy")
        np.save(path, arr)
        return path
    _encode(write)


@FUZZ
@given(st.lists(pgm_files(), min_size=1, max_size=2))
def test_encode_of_any_pgm_frames_exits_0_2_or_3(frames):
    def write(tmp):
        clip = os.path.join(tmp, "clip")
        os.mkdir(clip)
        for t, data in enumerate(frames):
            with open(os.path.join(clip, f"frame_{t:05d}.pgm"), "wb") as fh:
                fh.write(data)
        return clip
    _encode(write)
