"""Command-line front end.

Subcommands: ``verify`` (identities, round trips, censuses), ``map``
(apply a bijection to word lines), ``enumerate``, ``count``, ``render``,
and ``sample``.  Words travel in the one-letter-per-character encoding
(U/D/G/R/H), one word per line.

Exit codes: 0 success, 1 verification or validation failure, 2 usage
error, 130 interrupted (Ctrl-C) once ``main`` runs; Python itself reports
an interrupt during start-up or this module's import.  This module parses
arguments and reads and writes lines; ``verify``'s checks live in
``touchard.verify``.  It imports no other package module at start-up:
each subcommand names the package functions it runs in a table (which is
also its parser's choices) and reads them from ``touchard`` when it runs,
so the package's own table alone says which module holds each name.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import IO, Callable, Iterable

import touchard

# Each direction's line reader, map and image writer, by their package names;
# without a writer the image's text is written.
_MAPS = {
    "encode": ("validate_dyck", "pair_encode", None),
    "decode": ("validate_g_restricted", "pair_decode", None),
    "drop": ("validate_g_restricted", "drop_restriction", None),
    "raise": ("validate_g", "raise_restriction", None),
    "c2g": ("validate_dyck", "catalan_to_g", None),
    "g2c": ("validate_g", "g_to_catalan", None),
    "tsplit": ("validate_g", "touchard_split", "format_touchard_decomposition"),
    "tmerge": ("parse_touchard_decomposition", "touchard_merge", None),
    "msplit": ("validate_g", "motzkin_split", "format_motzkin_decomposition"),
    "mmerge": ("parse_motzkin_decomposition", "motzkin_merge", None),
}
MAP_DIRECTIONS = tuple(_MAPS)
_FAMILIES = {"dyck": "DyckWord", "g": "GWord", "grestricted": "RestrictedGWord", "motzkin": "MotzkinWord"}
_COUNTS = {"catalan": "catalan", "motzkin": "motzkin_count", "touchard-rhs": "touchard_rhs",
           "motzkin-rhs": "motzkin_rhs"}


def __getattr__(name: str):
    """``VerifyConfig`` and ``cmd_verify`` from ``touchard.verify``, on first use."""
    if name in ("VerifyConfig", "cmd_verify"):
        from . import verify
        value = globals()[name] = getattr(verify, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _line_function(direction: str) -> Callable[[str], str]:
    """``direction``'s line function, bound to the functions the package holds now."""
    read, apply, write = (getattr(touchard, name) if name else None for name in _MAPS[direction])
    if write is None:
        return lambda line: apply(read(line)).text
    return lambda line: write(apply(read(line)))


def cmd_map(direction: str, lines: Iterable[str], out: IO[str], err: IO[str]) -> int:
    """Apply one bijection per input line; failed lines go to ``err``."""
    apply = _line_function(direction)
    status = 0
    for number, line in enumerate(lines, start=1):
        try:
            out.write(apply(line.strip()) + "\n")
        except ValueError as exc:
            err.write(f"line {number}: {exc}\n")
            status = 1
    return status


def cmd_enumerate(kind: str, length: int, count_only: bool, out: IO[str]) -> int:
    """List every word of the family (for dyck, ``length`` is the semilength).

    The lines are ``_texts``' texts, written as they come: no word object is made.
    """
    from .words import _texts

    texts = _texts(getattr(touchard, _FAMILIES[kind]), length)
    if count_only:
        out.write(f"{sum(1 for _ in texts)}\n")
    else:
        for text in texts:
            out.write(text + "\n")
    return 0


def cmd_count(which: str, n: int, out: IO[str]) -> int:
    """Print one exact number or one identity-report line."""
    value = getattr(touchard, _COUNTS[which])(n)
    out.write((str(value) if isinstance(value, int) else value.format_line()) + "\n")
    return 0


def cmd_render(fmt: str, line: str, unit: int, out: IO[str]) -> int:
    """Draw one word as ASCII art or as an SVG document."""
    drawing = touchard.to_drawing(touchard.validate_motzkin(line) if "H" in line else touchard.validate_g(line))
    if fmt == "ascii":
        out.write(touchard.render_ascii(drawing) + "\n")
    else:
        out.write(touchard.render_svg(drawing, unit) + "\n")
    return 0


def cmd_sample(kind: str, length: int, seed: int, out: IO[str]) -> int:
    """Emit one uniform word (for dyck, ``length`` is the semilength).

    G-words are drawn as ``catalan_to_g`` of a uniform Dyck word; the
    map is a bijection, so the result is uniform too.
    """
    if kind == "dyck":
        out.write(f"{touchard.sample_dyck(length, seed)}\n")
    else:
        out.write(f"{touchard.catalan_to_g(touchard.sample_dyck(length + 1, seed))}\n")
    return 0


def _int_in(low: int, high: float, message: str):
    """An argparse type: an int in [low, high), or a usage error that names what was expected."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an int, not {text!r}") from None
        if not low <= value < high:
            raise argparse.ArgumentTypeError(message)
        return value
    return parse


_nonneg = _int_in(0, float("inf"), "must be non-negative")
_positive = _int_in(1, float("inf"), "must be positive")
_seed = _int_in(0, 1 << 64, "seed must fit in 64 unsigned bits")


def _run_verify(a: argparse.Namespace) -> int:
    from .verify import VerifyConfig, cmd_verify

    config = VerifyConfig(a.max_identity_n, a.max_census_n, a.max_roundtrip_len, a.format)
    return cmd_verify(config, sys.stdout, sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="touchard",
        description="Dyck and bicolored Motzkin words, their bijections, and the identities they prove.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check identities, round trips, and censuses")
    p.add_argument("--max-identity-n", type=_nonneg, default=200)
    p.add_argument("--max-census-n", type=_nonneg, default=9)
    p.add_argument("--max-roundtrip-len", type=_nonneg, default=10)
    p.add_argument("--format", choices=("text", "ndjson"), default="text")
    p.set_defaults(run=_run_verify)

    p = sub.add_parser("map", help="apply a bijection to each input line")
    p.add_argument("direction", choices=_MAPS)
    p.add_argument("--word", help="single input line (default: read stdin)")
    p.set_defaults(run=lambda a: cmd_map(
        a.direction, [a.word] if a.word is not None else sys.stdin, sys.stdout, sys.stderr
    ))

    p = sub.add_parser("enumerate", help="list all words of a family")
    p.add_argument("kind", choices=_FAMILIES)
    p.add_argument("--length", type=_nonneg, required=True,
                   help="word length (semilength for dyck)")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(run=lambda a: cmd_enumerate(a.kind, a.length, a.count_only, sys.stdout))

    p = sub.add_parser("count", help="exact counts and identity reports")
    p.add_argument("which", choices=_COUNTS)
    p.add_argument("n", type=_nonneg)
    p.set_defaults(run=lambda a: cmd_count(a.which, a.n, sys.stdout))

    p = sub.add_parser("render", help="draw one word")
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.add_argument("--word", help="word to draw (default: first stdin line)")
    p.add_argument("--unit", type=_positive, default=20, help="pixels per step (svg)")
    p.set_defaults(run=lambda a: cmd_render(
        a.format, (a.word if a.word is not None else sys.stdin.readline()).strip(), a.unit, sys.stdout
    ))

    p = sub.add_parser("sample", help="draw one uniform random word")
    p.add_argument("kind", choices=("dyck", "g"))
    p.add_argument("--length", type=_nonneg, required=True,
                   help="word length (semilength for dyck)")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(run=lambda a: cmd_sample(a.kind, a.length, a.seed, sys.stdout))

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; every failure is one ``error:`` line and exit status 1 (130 if interrupted)."""
    # Exact values print in full, past CPython's int-to-str digit limit (3.10.7 and later).
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        status = args.run(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader went away (``touchard enumerate ... | head``).  Send
        # what is still buffered to /dev/null, so that flushing standard
        # output at interpreter exit does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except KeyboardInterrupt:  # verify's workers are already stopped: cmd_verify closes its checks
        sys.stderr.write("error: interrupted\n")
        return 130
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except Exception as exc:  # the top of the program: report, never a traceback
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        sys.stderr.write(f"error: unexpected {message}\n")
        return 1
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
