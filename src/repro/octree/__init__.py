"""Octree substrate: cells, builds, center-of-mass, Morton ordering,
costzones partitioning, the vectorized force-traversal engine, and
invariant validation."""

from .build import build_tree, insert, new_root
from .cell import MAX_DEPTH, NSUB, Cell, Leaf
from .cofm import compute_cofm
from .costzones import costzones, zone_costs
from .flat import EMPTY, FlatTree, check_flat_tree, flat_gravity, prepare_bodies
from .morton import bodies_in_order, leaves_in_order, morton_key, morton_keys
from .morton_build import build_flat_tree, octant_keys
from .traverse import TraversalPolicy, gravity_traversal
from .validate import TreeInvariantError, check_tree

__all__ = [
    "Cell",
    "EMPTY",
    "FlatTree",
    "Leaf",
    "MAX_DEPTH",
    "NSUB",
    "build_flat_tree",
    "octant_keys",
    "TraversalPolicy",
    "TreeInvariantError",
    "bodies_in_order",
    "build_tree",
    "check_flat_tree",
    "check_tree",
    "compute_cofm",
    "flat_gravity",
    "costzones",
    "gravity_traversal",
    "insert",
    "leaves_in_order",
    "morton_key",
    "morton_keys",
    "new_root",
    "prepare_bodies",
    "zone_costs",
]
