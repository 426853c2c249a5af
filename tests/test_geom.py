import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from beamloc.geom import points_in_rect, segment_rect_crossing, wrap_deg


def test_wrap_deg_scalar():
    assert wrap_deg(190.0) == -170.0
    assert wrap_deg(-190.0) == 170.0
    assert wrap_deg(180.0) == 180.0
    assert wrap_deg(-180.0) == 180.0
    assert wrap_deg(360.0) == 0.0
    assert wrap_deg(0.0) == 0.0


def test_wrap_deg_array_range():
    rng = np.random.default_rng(0)
    angles = rng.uniform(-1000, 1000, size=500)
    wrapped = wrap_deg(angles)
    assert np.all(wrapped > -180.0) and np.all(wrapped <= 180.0)
    # wrapping changes the angle by an exact multiple of 360
    assert np.allclose((angles - wrapped) % 360.0, 0.0, atol=1e-9)


def test_points_in_rect_closed_boundary():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5], [1.0001, 0.5], [-0.0001, 0.5]])
    inside = points_in_rect(pts, (0.0, 0.0), (1.0, 1.0))
    assert inside.tolist() == [True, True, True, False, False]


def test_segment_crossing_through_interior():
    hit, t_enter, t_exit = segment_rect_crossing((-1.0, 0.5), np.array([[2.0, 0.5]]), (0.0, 0.0), (1.0, 1.0))
    assert hit[0]
    assert t_enter[0] < t_exit[0]
    # entry/exit at x = 0 and x = 1
    assert np.isclose(-1.0 + 3.0 * t_enter[0], 0.0)
    assert np.isclose(-1.0 + 3.0 * t_exit[0], 1.0)


def test_segment_crossing_miss():
    hit, _, _ = segment_rect_crossing((-1.0, 2.0), np.array([[2.0, 2.0]]), (0.0, 0.0), (1.0, 1.0))
    assert not hit[0]


def test_segment_along_edge_does_not_hit():
    # collinear with the y = 1 edge: grazes the boundary, open interior missed
    hit, _, _ = segment_rect_crossing((-1.0, 1.0), np.array([[2.0, 1.0]]), (0.0, 0.0), (1.0, 1.0))
    assert not hit[0]


def test_segment_through_corner_does_not_hit():
    # diagonal passing exactly through the (1, 1) corner
    hit, _, _ = segment_rect_crossing((0.0, 2.0), np.array([[2.0, 0.0]]), (0.0, 0.0), (1.0, 1.0))
    assert not hit[0]


def test_segment_fully_inside():
    hit, t_enter, t_exit = segment_rect_crossing((0.2, 0.2), np.array([[0.8, 0.8]]), (0.0, 0.0), (1.0, 1.0))
    assert hit[0]
    assert t_enter[0] == 0.0 and t_exit[0] == 1.0


def test_segment_stops_short_of_rect():
    hit, _, _ = segment_rect_crossing((-2.0, 0.5), np.array([[-1.0, 0.5]]), (0.0, 0.0), (1.0, 1.0))
    assert not hit[0]


def test_segment_whose_slab_division_overflows_misses_without_a_warning():
    # (20 - 0) / 5e-324 overflows to inf; clipped to [0, 1], the segment ends before the slab
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hit, _, _ = segment_rect_crossing((0.0, 0.0), [[5e-324, 50.0]], (20.0, 10.0), (30.0, 100.0))
    assert hit.tolist() == [False]


def test_segment_batch_shapes():
    targets = np.array([[2.0, 0.5], [2.0, 2.0], [0.5, 0.5]])
    hit, t_enter, t_exit = segment_rect_crossing((-1.0, 0.5), targets, (0.0, 0.0), (1.0, 1.0))
    assert hit.shape == (3,) and t_enter.shape == (3,) and t_exit.shape == (3,)
    assert hit.tolist() == [True, False, True]


def test_segment_crossing_of_b_rectangles_is_b_single_rectangle_calls():
    # rows that hit, miss, graze an edge or a corner, run parallel to a slab,
    # and overflow the slab division, against rectangles sharing those edges
    rng = np.random.default_rng(5)
    p0 = (0.0, 0.0)
    targets = np.vstack([
        rng.uniform(-40.0, 40.0, size=(40, 2)).round(),
        [[5e-324, 50.0], [30.0, 0.0], [0.0, 30.0], [20.0, 20.0], [30.0, 10.0]],
    ])
    corners = rng.uniform(-30.0, 30.0, size=(6, 2, 2)).round()
    mins = np.vstack([corners.min(axis=1), [[20.0, 10.0], [10.0, -5.0], [-5.0, 10.0]]])
    maxs = np.vstack([corners.max(axis=1) + 1.0, [[30.0, 100.0], [20.0, 5.0], [5.0, 20.0]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = segment_rect_crossing(p0, targets, mins[:, None, :], maxs[:, None, :])
        singles = [segment_rect_crossing(p0, targets, tuple(lo), tuple(hi)) for lo, hi in zip(mins, maxs)]
    for got, want in zip(batch, zip(*singles)):
        assert np.array_equal(got, np.stack(want))
    assert batch[0].any() and not batch[0].all()


def test_segments_from_several_start_points_graze_and_cross_like_single_start_calls():
    starts = np.array([[-1.0, 1.0], [0.0, 2.0], [-1.0, 0.5], [0.2, 0.2], [0.5, -1.0]])
    targets = np.array([[2.0, 1.0], [2.0, 0.0], [2.0, 0.5], [0.8, 0.8], [0.5, 3.0], [1.0, 1.0]])
    hit, t_enter, t_exit = segment_rect_crossing(starts[:, None, :], targets, (0.0, 0.0), (1.0, 1.0))
    assert hit.shape == t_enter.shape == t_exit.shape == (5, 6)
    for row, start in enumerate(starts):
        for got, want in zip((hit, t_enter, t_exit), segment_rect_crossing(start, targets, (0.0, 0.0), (1.0, 1.0))):
            assert got[row].tobytes() == want.tobytes()
    # along the y = 1 edge, through the (1, 1) corner, across the middle, inside
    assert not hit[0, 0] and not hit[1, 1] and hit[2, 2] and hit[3, 3]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_segment_crossing_from_s_start_points_is_s_single_start_calls(data):
    # small integer coordinates, so that many segments graze an edge, pass
    # through a corner, run parallel to an axis or start inside a rectangle
    point = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
    starts = np.array(data.draw(st.lists(point, min_size=1, max_size=4)), dtype=float)
    targets = np.array(data.draw(st.lists(point, min_size=1, max_size=8)), dtype=float)
    corners = np.array(data.draw(st.lists(st.tuples(point, point), min_size=1, max_size=3)), dtype=float)
    mins, maxs = corners.min(axis=1), corners.max(axis=1) + 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = segment_rect_crossing(starts[:, None, :], targets, mins[:, None, None, :], maxs[:, None, None, :])
        singles = [segment_rect_crossing(start, targets, mins[:, None, :], maxs[:, None, :]) for start in starts]
    for got, want in zip(batch, zip(*singles)):
        assert got.shape == (len(mins), len(starts), len(targets))
        assert got.tobytes() == np.stack(want, axis=1).tobytes()


@settings(max_examples=500, deadline=None)
@given(angle=st.floats(-1e6, 1e6))
def test_wrap_deg_returns_its_outputs_unchanged(angle):
    # rsrp_grid wraps each azimuth offset once where the per-beam pattern
    # wrapped it twice; that is bit-identical only because of this
    wrapped = wrap_deg(np.array([angle]))
    assert wrap_deg(wrapped).tobytes() == wrapped.tobytes()


def _remainder_wrap(angle):
    # the wrap as np.remainder computes it, folded at 180
    r = np.remainder(np.asarray(angle, dtype=float), 360.0)
    return np.where(r > 180.0, r - 360.0, r)


@settings(max_examples=500, deadline=None)
@given(values=st.lists(st.floats() | st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(float))),
                       max_size=20))
def test_wrap_deg_is_the_remainder_fold_bit_for_bit(values):
    # any float, also drawn as a bit pattern: signed zeros, subnormals, huge
    # magnitudes and NaN payloads; NaN and +-inf make both sides warn "invalid"
    angles = np.array(values, dtype=float)
    with np.errstate(invalid="ignore"):
        expected = _remainder_wrap(angles)
        assert wrap_deg(angles).tobytes() == expected.tobytes()
        for angle, want in zip(values, expected):
            assert np.float64(wrap_deg(angle)).tobytes() == want.tobytes()
