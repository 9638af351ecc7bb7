"""Spherical-earth geometry for route corridors.

All distances are great-circle kilometres on a sphere of radius
6371.0088 km (IUGG mean earth radius). Inputs are (lat, lon) pairs in
decimal degrees.
"""

from __future__ import annotations

import math

EARTH_RADIUS_KM = 6371.0088

Point = tuple[float, float]


def as_point(location) -> Point:
    """A reported (lat, lon) as floats; ValueError unless both are numbers in range."""
    lat, lon = map(float, location)
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        raise ValueError(f"location ({lat}, {lon}) outside valid range")
    return (lat, lon)


def haversine_km(a: Point, b: Point) -> float:
    """Great-circle distance between two points in kilometres."""
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def _to_vec(p: Point) -> tuple[float, float, float]:
    lat, lon = math.radians(p[0]), math.radians(p[1])
    return (math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat))


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _norm(u):
    return math.sqrt(_dot(u, u))


def _angle(u, v) -> float:
    # atan2 form is stable for near-parallel and near-antipodal vectors
    return math.atan2(_norm(_cross(u, v)), _dot(u, v))


def segment_distance_km(p: Point, a: Point, b: Point) -> float:
    """Distance from p to the great-circle arc between a and b.

    Uses the cross-track distance when the perpendicular foot falls
    within the arc, otherwise the nearer endpoint distance.
    """
    if a == b:
        return haversine_km(p, a)
    vp, va, vb = _to_vec(p), _to_vec(a), _to_vec(b)
    normal = _cross(va, vb)
    nlen = _norm(normal)
    if nlen < 1e-15:  # degenerate: a and b coincide or are antipodal
        return min(haversine_km(p, a), haversine_km(p, b))
    # Project p onto the great-circle plane to find the foot point.
    scale = _dot(vp, normal) / (nlen * nlen)
    foot = (vp[0] - scale * normal[0], vp[1] - scale * normal[1], vp[2] - scale * normal[2])
    flen = _norm(foot)
    if flen < 1e-15:  # p is a pole of the great circle
        return min(haversine_km(p, a), haversine_km(p, b))
    foot = (foot[0] / flen, foot[1] / flen, foot[2] / flen)
    arc = _angle(va, vb)
    if _angle(va, foot) <= arc and _angle(foot, vb) <= arc:
        return _angle(vp, foot) * EARTH_RADIUS_KM
    return min(haversine_km(p, a), haversine_km(p, b))


def polyline_distance_km(p: Point, polyline: tuple[Point, ...] | list[Point]) -> float:
    """Minimum distance from p to any segment of the polyline."""
    if not polyline:
        raise ValueError("empty polyline")
    if len(polyline) == 1:
        return haversine_km(p, polyline[0])
    return min(segment_distance_km(p, polyline[i], polyline[i + 1])
               for i in range(len(polyline) - 1))
