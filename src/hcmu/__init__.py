"""Data-set representation of generic HCMU surfaces.

A surface with an extremal Kahler metric of non-constant curvature is, in
the generic case, faithfully encoded by an embedded bi-colored graph, two
constants (maximum curvature K0, angle ratio R) and two rational functions
(arc weights, saddle levels).  This package implements the encoding and the
constructive procedures around it: existence checks, explicit builders,
balance-equation solving, metric profiles, twist/split deformations, and
moduli dimension counts.
"""

from .angulation import BLACK, WHITE, MixedAngulation
from .balance import (
    SolutionSpace,
    balance_rank,
    solve_balance,
    solve_tree,
)
from .builders import (
    WeightedTree,
    build_coprime_tree,
    build_one_cone,
    build_surface,
    build_tree,
)
from .constraints import (
    AngleVector,
    TypePartition,
    check_existence,
    check_refined,
    enumerate_ratios,
    invariants_m_a,
    one_cone_admissible,
)
from .dataset import (
    DataSet,
    ExtremalCensus,
    census,
    realized_angle_vector,
    realized_prescription,
)
from .deformations import (
    LevelCircle,
    TwistOutcome,
    circles_at_level,
    split,
    twist,
    twist_is_trivial,
)
from .dimension import dimension, dimension_crosscheck, dimension_refined
from .geometry import (
    CurvaturePair,
    LineElementProfile,
    element_length,
    football_area,
    k1_from_ratio,
    level_to_distance,
    solve_profile,
    surface_area,
)
from .serialization import export_dot, export_profile_csv, load, save

__version__ = "0.1.0"
