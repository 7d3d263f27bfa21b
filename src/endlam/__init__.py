"""Desk-scale lamination approximations for endperiodic surface maps.

The kernel (:mod:`endlam.hyperbolic`) does exact-formula hyperbolic-plane
geometry; :mod:`endlam.group` adds free-group words, substitutions, and
limit-set sampling; :mod:`endlam.lamination` iterates junctures into
certified limit leaves; :mod:`endlam.markov` carries the symbolic layer
(incidence matrices, subshift counts, entropy, invariant weights); scenes
and SVG output live in :mod:`endlam.scene` and :mod:`endlam.render`.
"""

from .group import (
    FreeAutomorphism,
    FuchsianGroup,
    Word,
    apply_automorphism,
    enumerate_ball,
    evaluate_word,
    free_reduce,
    limit_set_sample,
    verify_automorphism,
)
from .hyperbolic import (
    Geodesic,
    HPoint,
    IdealPoint,
    Isometry,
    apply_isometry,
    axis,
    boundary_action,
    classify_isometry,
    geodesic_intersection,
    geodesic_relation,
    hyperbolic_distance,
    to_disk,
    translation_length,
)
from .lamination import (
    AxiomParams,
    GeodesicFamily,
    JunctureSpec,
    LaminationApprox,
    axiom_report,
    crossing_audit,
    escape_test,
    extract_limit_leaves,
    juncture_orbit,
    transversal_intersections,
)
from .markov import (
    CrossingTable,
    admissible_words,
    build_matrix_A,
    build_matrix_B,
    coding_consistency,
    entropy,
    invariant_measures,
    perron,
    verify_markov,
)
from .render import render_svg
from .scene import Scene, load_scene, parse_scene, scene_path

__version__ = "0.1.0"
