"""Dyck words, bicolored Motzkin words, and the bijections between them.

The package turns a classical pair of Catalan identities into running
code: word types with exhaustive enumeration and uniform sampling
(``words``), the invertible maps connecting the families
(``bijections``), exact evaluation of both identities (``counting``),
path drawings (``render``), and a CLI (``cli``).
"""

from .bijections import (
    InvalidDecomposition,
    MotzkinDecomposition,
    TouchardDecomposition,
    catalan_to_g,
    drop_restriction,
    format_motzkin_decomposition,
    format_touchard_decomposition,
    g_to_catalan,
    motzkin_merge,
    motzkin_split,
    pair_decode,
    pair_encode,
    parse_motzkin_decomposition,
    parse_touchard_decomposition,
    raise_restriction,
    touchard_merge,
    touchard_split,
)
from .counting import IdentityReport, catalan, motzkin_count, motzkin_rhs, touchard_rhs
from .render import PathDrawing, Step, render_ascii, render_svg, to_drawing
from .words import (
    BadAlphabet,
    DyckWord,
    GWord,
    Letter,
    MotzkinWord,
    NegativePrefix,
    NotBalanced,
    RedZeroAtGroundLevel,
    RestrictedGWord,
    SplitMix64,
    Word,
    WordError,
    enumerate_dyck,
    enumerate_g,
    enumerate_g_restricted,
    enumerate_motzkin,
    parse_letters,
    sample_dyck,
    validate_dyck,
    validate_g,
    validate_g_restricted,
    validate_motzkin,
)

__version__ = "0.1.0"
