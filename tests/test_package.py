"""The package namespace: its names load their modules on first use and are the names it always had."""

import pickle
import re
import sys
import textwrap
import types

import pytest

import touchard
from touchard import DyckWord, GWord, motzkin_split, touchard_split

from cli_support import run_python

# The public names of a fresh ``import touchard`` from before the names loaded
# lazily, when the package imported all four of these modules: every name it
# took from them, and the modules themselves.
PUBLIC = [
    "BadAlphabet", "DyckWord", "GWord", "IdentityReport", "InvalidDecomposition", "MotzkinDecomposition",
    "MotzkinWord", "NegativePrefix", "NotBalanced", "PathDrawing", "RedZeroAtGroundLevel", "RestrictedGWord",
    "SplitMix64", "Step", "TouchardDecomposition", "Word", "WordError", "bijections", "catalan",
    "catalan_to_g", "counting", "drop_restriction", "enumerate_dyck", "enumerate_g", "enumerate_g_restricted",
    "enumerate_motzkin", "format_motzkin_decomposition", "format_touchard_decomposition", "g_to_catalan",
    "motzkin_count", "motzkin_merge", "motzkin_rhs", "motzkin_split", "pair_decode", "pair_encode",
    "parse_letters", "parse_motzkin_decomposition", "parse_touchard_decomposition", "raise_restriction",
    "render", "render_ascii", "render_svg", "sample_dyck", "to_drawing", "touchard_merge", "touchard_rhs",
    "touchard_split", "validate_dyck", "validate_g", "validate_g_restricted", "validate_motzkin", "words",
]


def test_public_names_are_unchanged_and_listing_them_loads_nothing():
    code = textwrap.dedent("""
        import sys
        import touchard

        print(sorted(name for name in dir(touchard) if not name.startswith("_")))
        print(sorted(touchard.__all__))
        print(sorted(name for name in sys.modules if name.startswith("touchard")))
        namespace = {}
        exec("from touchard import *", namespace)
        print(sorted(name for name in namespace if name != "__builtins__"))
    """)
    assert run_python("-S", "-c", code) == (0, f"{PUBLIC}\n{PUBLIC}\n['touchard']\n{PUBLIC}\n", "")


def test_each_public_name_is_its_modules_object():
    for name in PUBLIC + ["cli", "verify"]:
        value = getattr(touchard, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"touchard.{name}"], name
        else:
            assert value.__module__.startswith("touchard."), name
            assert value is getattr(sys.modules[value.__module__], name), name


def test_the_first_use_of_a_name_is_reported_as_its_modules_import():
    # -X importtime lists what import statements and __import__ load, not importlib.import_module.
    status, out, err = run_python("-X", "importtime", "-c", "import touchard; touchard.catalan")
    loaded = re.findall(r"^import time:.*\| +(touchard\S*)$", err, re.MULTILINE)
    assert (status, out, sorted(loaded)) == (0, "", ["touchard", "touchard.counting", "touchard.words"])


def test_an_unknown_name_raises_attribute_error_naming_it():
    for module in (touchard, touchard.cli):
        with pytest.raises(AttributeError, match=f"module '{module.__name__}' has no attribute 'no_such_name'"):
            module.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from touchard import no_such_name", {})


def test_pickles_load_where_only_the_package_was_imported():
    values = [DyckWord("UUDUDD"), touchard_split(GWord("URGD")), motzkin_split(GWord("URGD"))]
    code = textwrap.dedent(f"""
        import pickle, sys
        import touchard

        print(sorted(name for name in sys.modules if name.startswith("touchard")))
        print(repr(pickle.loads({pickle.dumps(values)!r})))
    """)
    assert run_python("-S", "-c", code) == (0, f"['touchard']\n{values!r}\n", "")
