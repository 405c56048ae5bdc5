"""Descriptor codecs shared by the CLI and the JSON schemas: points,
family and geodesic descriptors (decode only), and report JSON-ification.

Every descriptor kind is decoded the same way, by the shared codec of
domains.py: a registry maps its `kind` to a constructor, and the
constructor's annotated parameters name the fields and their codecs.  The
domain and map registries live next to their types (domains.py,
coverings.py); this module holds the family and geodesic registries, the
point codec, and the small glue the CLI needs.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .domains import _CODEC_BY_ANNOTATION, ConvexBase, DomainError, PuncturedDisc, _kind_decoder
from .geodesics import (AntipodalPair, GeodesicCurve, GeodesicFamily, Segment, _need_members,
                        annulus_radial_geodesic, antipodal_family, antipodal_geodesic,
                        ball_geodesic_segment, ball_landing_family, ball_landing_ray,
                        ball_segment_family, disc_radial_geodesic, radial_family,
                        strip_crossing_family, strip_crossing_geodesic, strip_vertical_line)


def parse_point(raw) -> np.ndarray:
    """Accept '0.5+0.2j', a number, or a JSON-style list of [re, im] pairs;
    anything else, an integer too large for a float included, raises
    DomainError (JSON syntax errors pass unchanged)."""
    try:
        if isinstance(raw, str):
            text = raw.strip()
            if text.startswith("["):
                return parse_point(json.loads(text))
            return np.array([complex(text.replace(" ", ""))])
        if isinstance(raw, (int, float, complex)):
            return np.array([complex(raw)])
        if isinstance(raw, (list, tuple)):
            coords = []
            for item in raw:
                if isinstance(item, (list, tuple)):
                    if len(item) != 2:
                        raise DomainError("coordinate pairs must be [re, im]")
                    coords.append(complex(float(item[0]), float(item[1])))
                elif isinstance(item, str):
                    coords.append(complex(item.replace(" ", "")))
                else:
                    coords.append(complex(item))
            return np.array(coords)
    except (TypeError, ValueError, OverflowError) as exc:
        if type(exc) not in (TypeError, ValueError, OverflowError):
            raise
        raise DomainError(f"cannot parse point from {raw!r}: {exc}") from None
    raise DomainError(f"cannot parse point from {raw!r}")


def point_to_json(z) -> list:
    return [[float(c.real), float(c.imag)] for c in np.atleast_1d(np.asarray(z, dtype=complex))]


def corrupted_radial_family(count: int = 8, wobble: float = 2.0) -> GeodesicFamily:
    """Radial rays with a phase wobble: NOT geodesics of the punctured
    disc.  With a wobble beyond pi/2 the power-map deck shortcut activates
    and the isometry audit must flag the family as violated."""
    _need_members(count)
    members = []
    for k in range(count):
        theta = 2.0 * math.pi * k / count
        omega = complex(math.cos(theta), math.sin(theta))

        def sample(t: float, omega=omega) -> np.ndarray:
            phase = wobble * math.sin(3.0 * math.pi * t)
            return np.array([t * omega * complex(math.cos(phase), math.sin(phase))])

        members.append(GeodesicCurve(PuncturedDisc(), Segment(0.0, 1.0, open_ends=True),
                                     "affine", sample, None, label=f"wobble@{theta:.3f}"))
    return GeodesicFamily(PuncturedDisc(), tuple(members), None, None, label="corrupted-radial")


def _antipodal_geodesic(base: ConvexBase, x: tuple[float, ...],
                        y: tuple[float, ...]) -> GeodesicCurve:
    """The antipodal geodesic line through the boundary points x, y of the base."""
    return antipodal_geodesic(base, AntipodalPair(base, x, y))


# the point fields of family and geodesic descriptors
_CODEC_BY_ANNOTATION.update({
    "Point": (parse_point, None),
    "tuple[Point, ...]": (lambda points: tuple(parse_point(p) for p in points), None)})

# descriptor name -> constructor, for each family kind and each geodesic kind
_FAMILIES = {"radial": radial_family, "strip-crossing": strip_crossing_family,
             "ball-segment": ball_segment_family, "ball-landing": ball_landing_family,
             "antipodal": antipodal_family, "corrupted-radial": corrupted_radial_family}
_GEODESICS = {"ball-segment": ball_geodesic_segment, "ball-ray": ball_landing_ray,
              "strip-crossing": strip_crossing_geodesic, "strip-vertical": strip_vertical_line,
              "radial": disc_radial_geodesic, "annulus-radial": annulus_radial_geodesic,
              "antipodal": _antipodal_geodesic}
family_from_dict = _kind_decoder(_FAMILIES, "family")
geodesic_from_dict = _kind_decoder(_GEODESICS, "geodesic")


def jsonify(obj):
    """Recursively convert report structures to JSON-serializable values."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [jsonify(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(x) for x in obj]
    if hasattr(obj, "to_dict"):
        return jsonify(obj.to_dict())
    return obj
