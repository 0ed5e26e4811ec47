"""Exact m-level rook theory on Ferrers boards.

Boards, file/rook/m-level rook placements, weighted file numbers, the
falling-factorial polynomial machinery, the product-form factorization
identities, and the cancellation partition that explains why non-rook
weights sum to zero on singleton boards.  Everything is exact integer
arithmetic; all values are immutable and all operations pure.
"""

from .boards import (
    AmbientSizeError,
    FerrersBoard,
    InvalidBoardError,
    Zone,
    is_singleton,
    level_numbers,
    make_board,
    parse_board,
    zones,
)
from .cancellation import (
    CancellationClass,
    CoverReport,
    NonSingletonBoardError,
    canonical_class,
    class_members,
    nonrook_file_placements,
    reintroduction_sum,
    verify_cover,
)
from .ffpoly import FFPoly, expand_roots
from .placements import (
    FilePlacement,
    InvalidPlacementError,
    enumerate_file_placements,
    enumerate_m_level_rook_placements,
    is_m_level_rook_placement,
    rook_number,
    rook_numbers,
)
from .rooktheory import (
    FactorizationReport,
    br_roots,
    census_level_numbers,
    gjw_roots,
    level_roots,
    m_level_equivalent,
    m_level_rook_poly,
    verify_factorizations,
    weight,
    weighted_file_numbers,
    weighted_file_poly,
    zone_roots,
)

__version__ = "0.1.0"
