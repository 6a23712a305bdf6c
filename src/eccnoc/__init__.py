"""Elliptic-curve scalar multiplication with field-op accounting,
task-graph compilation, and 2D-mesh NoC schedule simulation."""

from .curves import (AffinePoint, CurveParams, INFINITY, ProjectivePoint,
                     is_on_curve, point_add_affine, point_add_projective,
                     point_double_affine, point_double_projective,
                     point_neg, to_affine, to_projective)
from .fields import (FieldElement, FieldKind, FieldSpec, OpKind, ff_add,
                     ff_inv, ff_mul, ff_neg, ff_sqr, ff_sub)
from .nocsim import (CoreRole, DEFAULT_ROLE_COUNTS, MeshConfig, Placement,
                     SimReport, centrality, corner_first_placement,
                     default_placement, role_usage, simulate, xy_route)
from .procmodel import (CostModel, Plan, Task, TaskGraph,
                        compile_scalar_mul, critical_path, replay)
from .presets import PRESETS, get_preset
from .scalarmul import (AUDIT_BASELINE, CountReport, OpTrace, Phase,
                        count_report, scalar_mul, scalar_mul_reference)

__version__ = "0.1.0"
