"""Descriptor codecs shared by the CLI and the JSON schemas: points,
geodesic family descriptors (decode only), and report JSON-ification.

Domain and map codecs live next to their types (domains.py, coverings.py);
this module adds the family descriptors and the small glue the CLI needs.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .domains import DomainError, _decoder, base_from_dict
from .geodesics import (GeodesicCurve, GeodesicFamily, Segment, antipodal_family,
                        ball_landing_family, radial_family, strip_crossing_family)


def parse_point(raw) -> np.ndarray:
    """Accept '0.5+0.2j', a number, or a JSON-style list of [re, im] pairs;
    anything else raises DomainError (JSON syntax errors pass unchanged)."""
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
    except (TypeError, ValueError) as exc:
        if type(exc) not in (TypeError, ValueError):
            raise
        raise DomainError(f"cannot parse point from {raw!r}: {exc}") from None
    raise DomainError(f"cannot parse point from {raw!r}")


def point_to_json(z) -> list:
    return [[float(c.real), float(c.imag)] for c in np.atleast_1d(np.asarray(z, dtype=complex))]


@_decoder
def family_from_dict(data: dict) -> GeodesicFamily:
    kind = data.get("kind")
    if kind == "radial":
        return radial_family(_count(data, 12), bool(data.get("punctured", True)))
    if kind == "strip-crossing":
        heights = tuple(float(h) for h in data.get("heights", ()))
        return strip_crossing_family(float(data["R"]), heights)
    if kind == "ball-landing":
        n = int(data["dim"])
        p = parse_point(data["p"])
        starts = tuple(parse_point(s) for s in data.get("starts", ()))
        return ball_landing_family(n, p, starts)
    if kind == "antipodal":
        return antipodal_family(base_from_dict(data["base"]), _count(data, 20),
                                bool(data.get("with_phases", False)))
    if kind == "corrupted-radial":
        return corrupted_radial_family(_count(data, 8), float(data.get("wobble", 2.0)))
    raise DomainError(f"unknown family kind {kind!r}")


def _count(data: dict, default: int) -> int:
    count = int(data.get("count", default))
    if count < 1:
        raise DomainError(f"a family needs count >= 1, got {count}")
    return count


def corrupted_radial_family(count: int = 8, wobble: float = 2.0) -> GeodesicFamily:
    """Radial rays with a phase wobble: NOT geodesics of the punctured
    disc.  With a wobble beyond pi/2 the power-map deck shortcut activates
    and the isometry audit must flag the family as violated."""
    from .domains import PuncturedDisc

    members = []
    for k in range(count):
        theta = 2.0 * math.pi * k / count
        omega = complex(math.cos(theta), math.sin(theta))

        def make(omega=omega):
            def sample(t: float) -> np.ndarray:
                phase = wobble * math.sin(3.0 * math.pi * t)
                return np.array([t * omega * complex(math.cos(phase), math.sin(phase))])
            return sample

        members.append(GeodesicCurve(PuncturedDisc(), Segment(0.0, 1.0, open_ends=True),
                                     "affine", make(), None, label=f"wobble@{theta:.3f}"))
    return GeodesicFamily(PuncturedDisc(), tuple(members), None, None, label="corrupted-radial")


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
