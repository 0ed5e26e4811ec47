import types

import mlrook

# Every public name the package exports.  Adding or removing one is a
# deliberate change to the API and must update this set.
EXPORTS = {
    "AmbientSizeError",
    "CancellationClass",
    "CoverReport",
    "FFPoly",
    "FactorizationReport",
    "FerrersBoard",
    "FilePlacement",
    "InvalidBoardError",
    "InvalidPlacementError",
    "NonSingletonBoardError",
    "RootMultiset",
    "Zone",
    "br_roots",
    "canonical_class",
    "census_level_numbers",
    "class_members",
    "enumerate_file_placements",
    "enumerate_m_level_rook_placements",
    "expand_roots",
    "gjw_roots",
    "is_m_level_rook_placement",
    "is_singleton",
    "level_numbers",
    "level_roots",
    "m_level_equivalent",
    "m_level_rook_poly",
    "make_board",
    "nonrook_file_placements",
    "parse_board",
    "reintroduction_sum",
    "rook_number",
    "rook_numbers",
    "verify_cover",
    "verify_factorizations",
    "weight",
    "weighted_file_numbers",
    "weighted_file_poly",
    "zone_roots",
    "zones",
}


def test_exported_names_are_pinned():
    exported = {
        name
        for name, value in vars(mlrook).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == EXPORTS
