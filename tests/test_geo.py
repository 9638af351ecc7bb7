import math
import random

from randgen import midpoint
from vpdgate import geo


def test_haversine_known_distance():
    # London <-> Paris is about 344 km
    d = geo.haversine_km((51.5074, -0.1278), (48.8566, 2.3522))
    assert 340 < d < 350


def test_haversine_zero_on_same_point():
    assert geo.haversine_km((10.0, 20.0), (10.0, 20.0)) == 0.0


def test_segment_distance_endpoint_and_interior():
    a, b = (0.0, 0.0), (0.0, 10.0)
    assert geo.segment_distance_km((0.0, 0.0), a, b) < 1e-9
    # A point due north of the midpoint: cross-track distance ~= haversine to equator
    p = (1.0, 5.0)
    d = geo.segment_distance_km(p, a, b)
    assert abs(d - geo.haversine_km(p, (0.0, 5.0))) < 0.5


def test_segment_distance_beyond_endpoints_uses_endpoint():
    a, b = (0.0, 0.0), (0.0, 10.0)
    p = (0.0, -5.0)
    assert abs(geo.segment_distance_km(p, a, b) - geo.haversine_km(p, a)) < 1e-6


def test_polyline_distance_picks_nearest_segment():
    line = [(0.0, 0.0), (0.0, 10.0), (10.0, 10.0)]
    p = (9.0, 10.0)
    assert geo.polyline_distance_km(p, line) < geo.haversine_km(p, (0.0, 10.0))


def test_midpoint_lies_on_great_circle():
    rng = random.Random(3)
    for _ in range(50):
        a = (rng.uniform(-80, 80), rng.uniform(-179, 179))
        b = (rng.uniform(-80, 80), rng.uniform(-179, 179))
        if geo.haversine_km(a, b) < 1.0:
            continue
        m = midpoint(a, b)
        assert geo.segment_distance_km(m, a, b) < 1e-6
        assert abs(geo.haversine_km(a, m) - geo.haversine_km(m, b)) < 1e-6


def test_segment_distance_never_negative_or_nan():
    rng = random.Random(4)
    for _ in range(300):
        p = (rng.uniform(-90, 90), rng.uniform(-180, 180))
        a = (rng.uniform(-90, 90), rng.uniform(-180, 180))
        b = (rng.uniform(-90, 90), rng.uniform(-180, 180))
        d = geo.segment_distance_km(p, a, b)
        assert d >= 0.0 and not math.isnan(d)
        assert d <= geo.haversine_km(p, a) + 1e-9 or d <= geo.haversine_km(p, b) + 1e-9
