"""Dyck words, bicolored Motzkin words, and the bijections between them.

The package turns a classical pair of Catalan identities into running
code: word types with exhaustive enumeration and uniform sampling
(``words``), the invertible maps connecting the families
(``bijections``), exact evaluation of both identities (``counting``),
path drawings (``render``), the checks behind ``touchard verify``
(``verify``), and a CLI (``cli``).

Each public name, and each of those modules, loads on first use (PEP 562):
``import touchard`` reads no other module, so a CLI run loads only what
its subcommand needs.  ``touchard.X`` is ``touchard.<module>.X``.
"""

__version__ = "0.1.0"

_PUBLIC = {
    "bijections": (
        "InvalidDecomposition", "MotzkinDecomposition", "TouchardDecomposition", "catalan_to_g",
        "drop_restriction", "format_motzkin_decomposition", "format_touchard_decomposition",
        "g_to_catalan", "motzkin_merge", "motzkin_split", "pair_decode", "pair_encode",
        "parse_motzkin_decomposition", "parse_touchard_decomposition", "raise_restriction",
        "touchard_merge", "touchard_split",
    ),
    "counting": ("IdentityReport", "catalan", "motzkin_count", "motzkin_rhs", "touchard_rhs"),
    "render": ("PathDrawing", "Step", "render_ascii", "render_svg", "to_drawing"),
    "words": (
        "BadAlphabet", "DyckWord", "GWord", "MotzkinWord", "NegativePrefix", "NotBalanced",
        "RedZeroAtGroundLevel", "RestrictedGWord", "SplitMix64", "Word", "WordError",
        "enumerate_dyck", "enumerate_g", "enumerate_g_restricted", "enumerate_motzkin",
        "parse_letters", "sample_dyck", "validate_dyck", "validate_g", "validate_g_restricted",
        "validate_motzkin",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}
_MODULES = (*_PUBLIC, "cli", "verify")
__all__ = [*_MODULE_OF, *_PUBLIC]


def __getattr__(name: str):
    module = name if name in _MODULES else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # ``__import__``, not ``importlib.import_module``: ``-X importtime`` reports only the former's loads.
    # Loading the submodule binds it here.
    __import__(f"{__name__}.{module}")
    if module == name:
        return globals()[name]
    value = globals()[name] = getattr(globals()[module], name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
