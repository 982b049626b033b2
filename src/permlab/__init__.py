"""permlab: an exhaustive desk-scale laboratory for ballot permutations,
odd order permutations, their descent and cyclic-weight statistics, the
neighbor-cell count matrices, and the structure-preserving maps between
counting classes, with a verification harness for every identity."""

from .bijections import (
    AnchorDecomposition,
    ShiftAnchors,
    anchor_decompose,
    contract,
    cycle_flip,
    exchange_letters,
    flank_swap,
    is_anchor_decomposable,
)
from .cycles import (
    canonicalize_cycles,
    cycle_stats,
    cycles_from_one_line,
    format_cycles,
    parse_cycles,
    perm_weight,
)
from .enumeration import (
    CountKey,
    CountMatrix,
    CountTable,
    ballot_count_closed,
    build_matrix,
    count,
    count_word_pair,
    enumerate_ballot,
    enumerate_odd_order,
)
from .errors import BudgetError, DomainError
from .toeplitz import lower_core, shift, shift_inv, upper_core
from .verify import VerificationReport, list_checks, run_check
from .words import (
    ascent_descent,
    format_word,
    height,
    is_ballot,
    parse_word,
    reversal,
)

__version__ = "0.1.0"
