"""The public API, ``alexdb.__all__``, is a compatibility contract: every
name in it stays, so dropping one shows here."""
from __future__ import annotations

import types

import alexdb

PUBLIC = [
    "AlexdbError", "AttRow", "AttachmentSpec", "AttributeMergeWarning", "BoundedByPair",
    "ChangeSet", "ConflictReport", "ConsistencyConflict", "DanglingPairError", "DelRRow",
    "DelXRow", "DiscontinuousMapError", "DuplicateKeyError", "Element", "ElementId",
    "EmptySpaceError", "ForeignKeyError", "InherentConflict", "IntegrityError", "LodChain",
    "MapReport", "MissingGeometryError", "NotFoundError", "PathQueryTrace", "PointRow",
    "Preorder", "QueryEvalError", "QueryParseError", "RRow", "SizeGuardError", "Space",
    "SpaceMap", "StoreFormatError", "T0ViolationError", "ValidationIssue", "VersionSpace",
    "VersionStore", "XRow", "apply_changeset", "attach_change", "build_space", "canonicalize",
    "chain_from_store", "changeset", "check_map", "classify", "closure", "commit",
    "components_within", "connected_components", "consistency_rule", "disjoint_union",
    "element_dimension", "enumerate_open_sets", "filtered_path_query", "find_cycle",
    "image_space", "interpolate", "is_connected", "is_t0", "krull_dimension", "load",
    "lod_graph", "merge", "monotone_path_query", "new_store", "open_reduction", "path_query",
    "preorder", "prism", "product", "pullback", "quotient", "reconstruct_version",
    "reconstruction_covers", "register_rule", "restrict_map", "save", "select_subspace",
    "simple_space", "space_map", "star", "telescope", "telescope_fiber", "text_space",
    "time_complex", "time_slice", "validate", "validate_chain", "version_closure",
    "version_space", "version_star", "versions_with_path",
]


def test_the_public_names_are_pinned():
    names = [
        name
        for name in alexdb.__all__
        if name != "annotations" and not isinstance(getattr(alexdb, name), types.ModuleType)
    ]
    assert sorted(names) == sorted(PUBLIC)
