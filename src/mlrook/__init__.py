"""Exact m-level rook theory on Ferrers boards.

Boards, file/rook/m-level rook placements, weighted file numbers, the
falling-factorial polynomial machinery, the product-form factorization
identities, and the cancellation partition that explains why non-rook
weights sum to zero on singleton boards.  Everything is exact integer
arithmetic; all values are immutable and all operations pure.

The package exports exactly the names in each module's ``__all__``.
"""

from .boards import *
from .cancellation import *
from .ffpoly import *
from .placements import *
from .rooktheory import *

__version__ = "0.1.0"
