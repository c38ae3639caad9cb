"""Conversions between compressed string representations.

The library moves between run-length encodings, LZ77/LZ78
factorizations and straight-line grammars without materializing the
underlying text. Reference codecs on plain text define what every
conversion must produce; the conversion modules reproduce that output
from the compressed form alone.
"""

from .codecs import (
    RepairTrace,
    compressed_size,
    grammar_to_slp,
    naive_bisection,
    naive_lz77,
    naive_lz78,
    naive_repair,
    ncd,
    ncd_bytes,
    repair_trace,
    rle_encode,
)
from .container import (
    CompressedContainer,
    ValidationReport,
    make_grammar_container,
    make_lz77_container,
    make_lz78_container,
    make_rle_container,
    make_slp_container,
    parse,
    serialize,
    validate,
)
from .errors import (
    BudgetExceededError,
    ContainerFormatError,
    CrxError,
    EmptyInputError,
    InternalError,
    InvalidInputError,
    UnreachableConversionError,
)
from .from_rle import (
    rle_as_slp,
    rle_to_bisection,
    rle_to_lz77,
    rle_to_lz78,
    rle_to_repair,
)
from .from_slp import slp_to_bisection, slp_to_lz77, slp_to_lz78, slp_to_rle
from .model import (
    DEFAULT_LIMIT,
    AdmissibleGrammar,
    Literal,
    Lz77Factorization,
    Lz78Factorization,
    Reference,
    RleString,
    Slp,
    Term,
    Text,
    Var,
    canonical_grammar,
    expand_grammar,
    expand_lz77,
    expand_lz78,
    expand_rle,
    expand_slp,
    grammar_derived_length,
    lz78_factor_lengths,
    slp_from_grammar_rules,
)
from .slp_ops import (
    EdgeRuns,
    OccRepr,
    RunLinkAnnotations,
    annotate_runs,
    char_at,
    first_mismatch,
    occurrences,
    prefix_match,
    slp_equals,
    slp_lce,
    slp_runs,
    substring_slp,
)
from .suffix import (
    LceIndex,
    MetaText,
    lcp_array,
    rank_runs,
    suffix_array,
)

__version__ = "0.1.0"
