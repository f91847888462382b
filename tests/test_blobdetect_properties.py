"""Property tests: the blob detector's symmetries on default-sized frames.

Each frame is 32 x 416 pixels with 1-4 spots of amplitude 1000 and
sigma = 3 px on a Poisson background of 0.05 counts, rendered by
`render_frame` as a build-up frame would be, and searched with the default
ladder and the `auto` threshold.  Mirroring a frame mirrors its blobs, an
interior shift shifts them, and scaling by a power of two changes no
position bit.  The mirror and shift checks allow 1e-9 px: the mirrored or
shifted frame is filtered in a different summation order.

Every voxel of the response stack depends only on the columns within 23 px
of it at the default ladder (the widest Gaussian kernel reaches
int(4 sqrt(t_max) + 0.5) = 21 columns, and the Laplacian one more), so a
column crop of the frame gives the same stack, bit for bit, more than
23 px inside the crop.  A region-of-interest detector can rely on that.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleslit.blobdetect import detect_blobs, geometric_scales, scale_space_response
from doubleslit.sampler import DetectionEvent, pixel_offsets, render_frame

PROPERTY = settings(max_examples=50)

HEIGHT, WIDTH, PITCH = 32, 416, 12e-6
LADDER = geometric_scales(2.0, 30.0, 1.3)
REACH = 23
SHIFT = 8
# A blob this far from both borders of both shifted frames sees the same
# pixels in each and cannot be suppressed by a border blob.
INTERIOR = REACH + 17
SEEDS = st.integers(0, 2**32 - 1)


def frame_with_spots(spots, seed, width=WIDTH):
    events = [
        DetectionEvent(
            t=0.5,
            x=pixel_offsets(col, width) * PITCH,
            y=pixel_offsets(row, HEIGHT) * PITCH,
        )
        for col, row in spots
    ]
    return render_frame(
        events, (0.0, 1.0), 3.0, 0.05, seed,
        width=width, height=HEIGHT, pitch=PITCH, amplitude=1000.0,
    ).counts


def spots_in(col_lo, col_hi, row_margin=0.0):
    return st.lists(
        st.tuples(st.floats(col_lo, col_hi), st.floats(row_margin, HEIGHT - 1 - row_margin)),
        min_size=1,
        max_size=4,
    )


def positions(blobs):
    return sorted((b.y, b.x) for b in blobs)


def assert_same_positions(found, expected, tol):
    assert len(found) == len(expected)
    assert np.abs(np.array(found) - np.array(expected)).max(initial=0.0) <= tol


@PROPERTY
@given(spots=spots_in(0.0, WIDTH - 1), seed=SEEDS)
def test_mirror_in_x_mirrors_the_blobs(spots, seed):
    frame = frame_with_spots(spots, seed)
    mirrored = [(y, WIDTH - 1 - x) for y, x in positions(detect_blobs(frame, LADDER))]
    found = positions(detect_blobs(frame[:, ::-1], LADDER))
    assert_same_positions(found, sorted(mirrored), 1e-9)


@PROPERTY
@given(spots=spots_in(0.0, WIDTH - 1), seed=SEEDS)
def test_mirror_in_y_mirrors_the_blobs(spots, seed):
    frame = frame_with_spots(spots, seed)
    mirrored = [(HEIGHT - 1 - y, x) for y, x in positions(detect_blobs(frame, LADDER))]
    found = positions(detect_blobs(frame[::-1, :], LADDER))
    assert_same_positions(found, sorted(mirrored), 1e-9)


@PROPERTY
@given(spots=spots_in(SHIFT + INTERIOR + 1, WIDTH - 2 - INTERIOR, row_margin=8.0), seed=SEEDS)
def test_interior_shift_shifts_the_blobs(spots, seed):
    # Two default-sized views of one wider exposure, SHIFT columns apart.
    # The spots lie a pixel inside both interiors, so both frames have the
    # same brightest response and hence the same `auto` threshold; they keep
    # 8 rows from the top and bottom, outside the 2 sqrt(t) = 6 px border
    # margin of a sigma = 3 spot, so each frame has an interior blob.
    wide = frame_with_spots(spots, seed, width=WIDTH + SHIFT)
    left, right = wide[:, :WIDTH], wide[:, SHIFT:]

    def interior(blobs, offset):
        return [
            (y, x + offset)
            for y, x in positions(blobs)
            if INTERIOR <= x + offset - SHIFT and x + offset <= WIDTH - 1 - INTERIOR
        ]

    expected = interior(detect_blobs(left, LADDER), 0)
    assert len(expected) >= 1
    assert_same_positions(interior(detect_blobs(right, LADDER), SHIFT), expected, 1e-9)


@PROPERTY
@given(spots=spots_in(0.0, WIDTH - 1), seed=SEEDS)
def test_scaling_by_four_keeps_every_position_bit(spots, seed):
    frame = frame_with_spots(spots, seed)
    blobs = detect_blobs(frame, LADDER)
    scaled = detect_blobs(4 * frame.astype(np.float64), LADDER)
    assert [(b.x, b.y, b.scale_t) for b in scaled] == [(b.x, b.y, b.scale_t) for b in blobs]
    assert [b.response for b in scaled] == [4 * b.response for b in blobs]


@PROPERTY
@given(
    spots=spots_in(0.0, WIDTH - 1),
    seed=SEEDS,
    start=st.integers(0, WIDTH - 2 * REACH - 2),
    length=st.integers(2 * REACH + 1, WIDTH),
)
def test_column_crop_keeps_the_stack_inside_its_reach(spots, seed, start, length):
    frame = frame_with_spots(spots, seed)
    stop = min(start + length, WIDTH)
    full = scale_space_response(frame, LADDER)
    crop = scale_space_response(frame[:, start:stop], LADDER)
    # Columns within REACH of a crop edge that is also a frame edge see the
    # same mirror padding in both stacks; only the cut edges lose columns.
    lo = 0 if start == 0 else REACH
    hi = stop - start if stop == WIDTH else stop - start - REACH
    assert np.array_equal(crop[:, :, lo:hi], full[:, :, start + lo : start + hi])
