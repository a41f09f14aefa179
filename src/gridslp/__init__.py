"""Grammar-compressed two-dimensional strings.

A 2D straight-line program derives one character matrix from binary
horizontal/vertical concatenations; adding one-hole contexts (substitution)
gives grammars whose derivations can be rebalanced to logarithmic depth.
This package builds such grammars (including the classic hard families:
binary-counter matrices, shifted counters, sparse identity-like blocks,
spirals), validates and serializes them, transforms them (rotation, margins,
row linearization, depth rebalancing), and answers random-access queries
two ways: a descent through the derivation, one production per visit (the
same code for grammars with and without contexts), and a K-level unwound
grid index with predecessor lookups.
"""

from .access import access_plain, access_tslp
from .balance import BalanceStats, balance_1d, balance_to_tslp
from .bench import bench_access
from .fastaccess import (
    FastAccessIndex,
    FastParams,
    access_fast,
    build_fast,
)
from .gadgets import (
    SpiralParams,
    build_bin,
    build_cnm,
    build_cnm_sequence,
    build_shiftbin,
    build_spiral,
    cnm_block_exponent,
    random_grammar,
    spiral_params,
)
from .grammar import (
    CONTEXT_KINDS,
    DIM_BOUND,
    PLAIN_KINDS,
    Apply,
    AreaLimitExceeded,
    Compose,
    CtxConcat,
    DimensionMismatch,
    GeometryTable,
    Grammar1D,
    Grammar2D,
    GrammarBuilder,
    GridSlpError,
    HConcat,
    HoleConcat,
    InternalHoleHit,
    NotOneDimensional,
    OutOfBounds,
    ParameterError,
    Terminal,
    Tslp2D,
    VConcat,
    ValidationReport,
    Violation,
    as_tslp,
    compute_geometry,
    validate,
)
from .matrix import expand, matrix_from_text, matrix_to_text, max_cells_default
from .textio import FormatError, emit_grammar, parse_grammar
from .transforms import (
    RebalanceStats,
    linearize_rows,
    margin_slp,
    rebalance_plain_2d,
    rotate_cw,
)

__version__ = "0.1.0"
