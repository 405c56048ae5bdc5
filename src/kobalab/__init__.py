"""kobalab: a numerical laboratory for Kobayashi hyperbolic geometry on
model domains.

Distances and infinitesimal metrics for discs, strips, balls, polydiscs,
annuli, punctured discs, convex tubes, and bounded Reinhardt domains;
geodesic constructors (segments, landing rays, complex geodesics,
antipodal lines) and covering lifts; the first-axis scaling method with
convergence probes; monomial proper maps with exact fiber enumeration; and
an audit answering whether a holomorphic map is a Kobayashi isometry along
a family of geodesics.
"""

from .checker import (IsometryReport, audit_isometry, completeness_check,
                      injectivity_probe, properness_probe, reproduce_example)
from .coverings import (HolomorphicMap, IntegerMatrix, antipodal_image_check, apply_map,
                        ball_mobius_map, compose_maps, deck_preimages,
                        exp_strip_cover, exp_tube_cover, identity_map, log_image,
                        map_differential, monomial_apply, monomial_map, monomial_power,
                        monomial_preimages, power_map)
from .domains import (Annulus, BoundaryPoint, Box, EuclideanBall, LeftHalfPlane,
                      LinearImage, Polydisc, Polytope, PuncturedDisc, ReinhardtLog,
                      ScaledEllipsoid, Strip, TubeOverBase, UnitBall, UnitDisc,
                      boundary_point, domain_from_dict, domain_to_dict,
                      ellipsoid_defining_function, log_coordinates, membership)
from .geodesics import (AntipodalPair, GeodesicCurve, GeodesicFamily, antipodal_family,
                        antipodal_geodesic, ball_complex_geodesic, ball_geodesic_segment,
                        ball_landing_family, ball_landing_ray, ball_segment_family,
                        landing_point, lift_geodesic,
                        radial_family, shadowing_bound, strip_crossing_family,
                        strip_crossing_geodesic, strip_vertical_line, to_arc_length)
from .metric import (DeckBoundError, DistanceColumns, DistanceValue, SandwichGapError,
                     deck_infimum, distance, distances, hyperbolic_length,
                     infinitesimal_metric)
from .scaling import (ConvergenceTable, compactly_divergent_probe,
                      geodesic_persistence_probe, inscribed_radius,
                      metric_convergence_probe, scaled_domain_membership,
                      scaling_automorphism, scaling_inverse)
from .tube import caratheodory_lower, lempert_upper, tube_distance_bounds

__version__ = "0.1.0"
