"""Exact-arithmetic workbench for A-infinity structures on the
6-dimensional two-object graded quiver category, its Hochschild
cohomology, minimal-model transfer, gauge classification and the
marked-torus polygon counts behind the surgery triangle."""

from .scalars import FieldSpec, parse_scalar
from .quiver import (AInfStructure, Element, Generator, QuiverCategory,
                     dump, load, preset_A, preset_C)
from .hochschild import (Cochain, coboundary, gerstenhaber, hh_bar,
                         is_coboundary, mu_cochain)
from .skoldberg import skoldberg_dims
from .perturbation import SplittingData, preset_splitting_C, transfer
from .gauge import (DeformationClass, GaugeTransformation, extract_invariants,
                    gauge_apply, kill_orders, m6_certificate, mc_extend,
                    preset_gauge_G, preset_gauge_H)
from .useries import TruncatedUSeries, jacobi_check, partition_series, theta_v
from .polygons import (PolygonScene, PolygonWitness, mu3_series, preset_scene,
                       scene_load)

__version__ = "0.1.0"
