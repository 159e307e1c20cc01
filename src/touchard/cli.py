"""Command-line front end.

Subcommands: ``verify`` (identities, round trips, censuses), ``map``
(apply a bijection to word lines), ``enumerate``, ``count``, ``render``,
and ``sample``.  Words travel in the one-letter-per-character encoding
(U/D/G/R/H), one word per line.

Exit codes: 0 success, 1 verification or validation failure, 2 usage
error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from collections import Counter
from contextlib import closing, contextmanager
from dataclasses import dataclass
from itertools import chain
from typing import IO, Callable, Iterable, Iterator, NamedTuple

from .bijections import (
    MotzkinDecomposition,
    TouchardDecomposition,
    _motzkin_fault,
    _touchard_fault,
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
from .counting import catalan, g_census, motzkin_count, motzkin_rhs, touchard_rhs
from .render import render_ascii, render_svg, to_drawing
from .words import (
    DyckWord,
    GWord,
    MotzkinWord,
    RestrictedGWord,
    Word,
    _paths,
    _size,
    sample_dyck,
    validate_dyck,
    validate_g,
    validate_g_restricted,
    validate_motzkin,
)


@dataclass(frozen=True)
class VerifyConfig:
    """Bounds and output mode for the verification sweep."""

    max_identity_n: int = 200
    max_census_n: int = 9
    max_roundtrip_len: int = 10
    output_format: str = "text"

    def __post_init__(self) -> None:
        for bound in ("max_identity_n", "max_census_n", "max_roundtrip_len"):
            _size(getattr(self, bound), bound)
        if self.output_format not in ("text", "ndjson"):
            raise ValueError(f"output_format must be 'text' or 'ndjson', not {self.output_format!r}")


# The most worker processes ``verify`` starts: the count its speed and memory
# were measured at.  Each worker holds one round-trip size's families as
# texts, and its own slice of them as words.
MAX_JOBS = 2


def resolve_jobs() -> int:
    """How many processes ``verify`` uses: one per available CPU, at most ``MAX_JOBS``.

    Workers are forked, so where ``os.fork`` does not exist the answer is 1.
    """
    if not hasattr(os, "fork"):
        return 1
    try:
        available = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        available = os.cpu_count() or 1
    return min(available, MAX_JOBS)


def _family(cls: type, texts: set[str]) -> Callable[[Word], bool]:
    """A test for membership in the family of ``texts``: same class and one of those texts."""
    return lambda word: word.__class__ is cls and word.text in texts


def _first_failure(words: list, forward: Callable, backward: Callable, valid: Callable) -> str | None:
    """The text of the first of ``words`` not sent by ``forward`` to a ``valid`` image that ``backward`` undoes.

    None if every word, from a check's first family, survives its round
    trip.  ``valid`` compares each image with the target family, under
    ``python -O`` too; a map that raises ValueError fails on that word.
    """
    for word in words:
        try:
            image = forward(word)
            if valid(image):
                back = backward(image)
                if back.__class__ is word.__class__ and back.text == word.text:
                    continue
        except ValueError:
            pass
        return word.text
    return None


class Check(NamedTuple):
    """One check: its ``verify`` text line, its ndjson record, and its first failing input word."""

    ok: bool
    line: str
    record: dict
    counterexample: str | None = None


def _roundtrip_shard(n: int, shard: int, jobs: int) -> list[tuple]:
    """The four bijection checks at size n, on the ``shard``-th of ``jobs`` consecutive slices of each first family.

    A check walks its first family only: Dyck_{n+1} for ``pair``,
    restricted_{n+1} for ``restriction``, G_n for the splits.  Each is (name,
    size of the target family, how many words that family lists, how many
    words this shard walked, its first failure's text or None); a split's
    target is its decompositions, which list no word, and a split is valid
    when its structure passes the decomposition's own check and its core is
    one of the enumerated cores.  A first family's first repeated text, if
    any, is every shard's failure.  The families are enumerated as texts,
    and only the shard's own texts become words.  The cyclic garbage
    collector is off while a shard runs: a shard makes no reference cycles,
    and collections would only walk its words again and again.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        dyck = list(_paths(2 * n + 2, DyckWord._alphabet))
        restricted = list(_paths(n + 1, RestrictedGWord._alphabet, ground_red_ok=False))
        grown = list(_paths(n, GWord._alphabet))
        restricted_set, grown_set = set(restricted), set(grown)
        dyck_cores = set(chain.from_iterable(_paths(2 * k, DyckWord._alphabet) for k in range(n // 2 + 1)))
        motzkin_cores = set(chain.from_iterable(_paths(k, MotzkinWord._alphabet) for k in range(n + 1)))

        def touchard_valid(split) -> bool:  # the exact core class first, so the core has a text
            return (split.__class__ is TouchardDecomposition
                    and _touchard_fault(split.positions, split.core, split.colors) is None
                    and split.core.text in dyck_cores)

        def motzkin_valid(split) -> bool:
            return (split.__class__ is MotzkinDecomposition
                    and _motzkin_fault(split.red_positions, split.core) is None
                    and split.core.text in motzkin_cores)

        own_dyck, own_restricted, own_grown = (  # each first family: its first repeated text or None, shard's words
            (None if len(distinct) == len(texts) else next(text for text, count in Counter(texts).items() if count > 1),
             list(map(cls._trusted, texts[len(texts) * shard // jobs:len(texts) * (shard + 1) // jobs])))
            for cls, texts, distinct in (
                (DyckWord, dyck, set(dyck)), (RestrictedGWord, restricted, restricted_set), (GWord, grown, grown_set))
        )
        return [
            (name, size, listed, len(words), _first_failure(words, *maps) if repeat is None else repeat)
            for name, size, listed, (repeat, words), *maps in (
                ("pair", len(restricted), len(restricted), own_dyck, pair_encode, pair_decode,
                 _family(RestrictedGWord, restricted_set)),
                ("restriction", len(grown), len(grown), own_restricted, drop_restriction, raise_restriction,
                 _family(GWord, grown_set)),
                ("touchard_split", touchard_rhs(n).rhs, 0, own_grown, touchard_split, touchard_merge, touchard_valid),
                ("motzkin_split", motzkin_rhs(n).rhs, 0, own_grown, motzkin_split, motzkin_merge, motzkin_valid),
            )
        ]
    finally:
        if collecting:
            gc.enable()


def _roundtrip_checks(n: int, shards: list[list[tuple]]) -> Iterator[Check]:
    """The four bijection checks at size n, merged from the results of its shards, in shard order.

    A check passes when its first family has distinct texts, the target size
    (its shards' walked words summed) and no failed round trip, which makes
    the forward map a bijection (see README).  ``words=`` adds the target's
    listed words; the counterexample is the first failure in shard order.
    """
    for checks in zip(*shards):  # one check, as each shard saw it
        name, target_size, listed, _, _ = checks[0]
        size = sum(walked for *_, walked, _ in checks)
        counterexample = next((text for *_, text in checks if text is not None), None)
        ok = size == target_size and counterexample is None
        words = size + listed
        record = {"check": "roundtrip", "bijection": name, "n": n, "words": words, "ok": ok}
        if counterexample is not None:
            record["counterexample"] = counterexample
        line = f"roundtrip={name} n={n} words={words} ok={'true' if ok else 'false'}"
        yield Check(ok, line, record, counterexample)


def _census_checks(max_n: int) -> list[Check]:
    """Both census checks for each n <= max_n: G_n's words by up-steps and by red zeros, against the identities' terms.

    The counts come from ``g_census``'s tables, not from enumerated words or
    splits: k up-steps put a word under Touchard's term k, r red zeros under
    Motzkin's term n - r.  The split round trips force those to be the core
    sizes (see README).
    """
    checks = []
    for n, ups, reds in zip(range(max_n + 1), g_census(max_n, "U"), g_census(max_n, "R")):
        for which, counts, report in (("touchard", ups, touchard_rhs(n)), ("motzkin", reds[::-1], motzkin_rhs(n))):
            expected = list(report.per_k_terms)
            ok = counts == expected
            line = "census={} n={} counts={} terms={} ok={}".format(
                which, n, ",".join(map(str, counts)), ",".join(map(str, expected)), "true" if ok else "false"
            )
            checks.append(Check(ok, line, {
                "check": "census", "identity": which, "n": n, "counts": counts, "terms": expected, "ok": ok
            }))
    return checks


@contextmanager
def _shard_results(sizes: range, jobs: int) -> Iterator[Iterator[list]]:
    """For each round-trip size in ``sizes``, the results of its ``jobs`` shards, from ``jobs`` worker processes.

    One job runs them in this process.  Worker w runs shard w of each size
    in order and sends each result through its own pipe.  Workers are
    forked, so they run this process's module state as it is, replaced
    functions included.  A shard's exception is raised here; a worker that
    dies (killed, out of memory) raises ChildProcessError.  The workers are
    stopped when the block is left, whether or not every result was read.
    """
    if jobs == 1:
        yield ([_roundtrip_shard(n, 0, 1)] for n in sizes)
        return
    import multiprocessing  # here, not at the top: it adds about 20 ms to start-up
    import signal

    def work(shard: int, sender) -> None:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C reaches this process, which stops the workers
        for n in sizes:
            try:
                sender.send((True, _roundtrip_shard(n, shard, jobs)))
            except BaseException as exc:
                sender.send((False, exc))
                return

    context = multiprocessing.get_context("fork")
    workers, receivers = [], []

    def result(worker, receiver) -> list[tuple]:
        try:
            ok, value = receiver.recv()
        except EOFError:  # the worker's end of the pipe closed without a result
            worker.join()
            raise ChildProcessError(f"a verify worker stopped with exit status {worker.exitcode}") from None
        if not ok:
            raise value
        return value

    try:
        for w in range(jobs):
            receiver, sender = context.Pipe(duplex=False)
            workers.append(context.Process(target=work, args=(w, sender), daemon=True))
            receivers.append(receiver)
            workers[w].start()
            sender.close()  # the worker holds the only write end, so its death ends the pipe
        yield (list(map(result, workers, receivers)) for _ in sizes)
    finally:
        for worker in workers:
            worker.terminate()
            worker.join()


def run_checks(cfg: VerifyConfig) -> Iterator[Check]:
    """Identity checks, exhaustive bijection checks, and stratified censuses, in that order.

    Each round-trip size is split into one shard of consecutive words per
    worker; the shards run in ``resolve_jobs()`` worker processes while
    this process checks the identities and counts the censuses from tables,
    and their results are merged in order (a size's walked counts summed,
    its failures read in shard order), so the checks do not depend on the
    worker count.  Close the generator to stop the workers early.
    """
    roundtrip_sizes = range(cfg.max_roundtrip_len + 1)
    with _shard_results(roundtrip_sizes, resolve_jobs()) as results:
        for n in range(cfg.max_identity_n + 1):
            for which, report in (("touchard", touchard_rhs(n)), ("motzkin", motzkin_rhs(n))):
                yield Check(report.holds, f"identity={which} {report.format_line()}", {
                    "check": "identity", "identity": which, "n": n, "lhs": report.lhs, "rhs": report.rhs,
                    "holds": report.holds, "terms": list(report.per_k_terms), "ok": report.holds,
                })
        censuses = _census_checks(cfg.max_census_n)
        for n, shards in zip(roundtrip_sizes, results):
            yield from _roundtrip_checks(n, shards)
        yield from censuses


def cmd_verify(cfg: VerifyConfig, out: IO[str], err: IO[str]) -> int:
    """Print one line (or ndjson record) per check of ``run_checks``.

    Returns 0 only if every check passes; otherwise names the first
    failure, with its counterexample if it has one, on ``err``.
    """
    first_failure: Check | None = None
    with closing(run_checks(cfg)) as checks:  # an early exit stops the workers at once
        for check in checks:
            out.write((json.dumps(check.record) if cfg.output_format == "ndjson" else check.line) + "\n")
            if not check.ok and first_failure is None:
                first_failure = check
    if first_failure is None:
        return 0
    found = first_failure.counterexample
    suffix = "" if found is None else f" counterexample={found}"
    err.write(f"verify: first failing check: {first_failure.line}{suffix}\n")
    return 1


_MAP_FUNCTIONS = {
    "encode": lambda line: str(pair_encode(validate_dyck(line))),
    "decode": lambda line: str(pair_decode(validate_g_restricted(line))),
    "drop": lambda line: str(drop_restriction(validate_g_restricted(line))),
    "raise": lambda line: str(raise_restriction(validate_g(line))),
    "c2g": lambda line: str(catalan_to_g(validate_dyck(line))),
    "g2c": lambda line: str(g_to_catalan(validate_g(line))),
    "tsplit": lambda line: format_touchard_decomposition(
        touchard_split(validate_g(line))
    ),
    "tmerge": lambda line: str(touchard_merge(parse_touchard_decomposition(line))),
    "msplit": lambda line: format_motzkin_decomposition(
        motzkin_split(validate_g(line))
    ),
    "mmerge": lambda line: str(motzkin_merge(parse_motzkin_decomposition(line))),
}

MAP_DIRECTIONS = tuple(_MAP_FUNCTIONS)


def cmd_map(direction: str, lines: Iterable[str], out: IO[str], err: IO[str]) -> int:
    """Apply one bijection per input line; failed lines go to ``err``."""
    apply = _MAP_FUNCTIONS[direction]
    status = 0
    for number, line in enumerate(lines, start=1):
        try:
            out.write(apply(line.strip()) + "\n")
        except ValueError as exc:
            err.write(f"line {number}: {exc}\n")
            status = 1
    return status


_ENUMERATED = {  # each family's words as texts, for its --length (for dyck, the semilength)
    "dyck": lambda n: _paths(2 * n, DyckWord._alphabet),
    "g": lambda n: _paths(n, GWord._alphabet),
    "grestricted": lambda n: _paths(n, RestrictedGWord._alphabet, ground_red_ok=False) if n else iter(()),
    "motzkin": lambda n: _paths(n, MotzkinWord._alphabet),
}


def cmd_enumerate(kind: str, length: int, count_only: bool, out: IO[str]) -> int:
    """List every word of the family (for dyck, ``length`` is the semilength).

    The lines are the enumerator's texts, written as they come: no word
    object is made, and restricted words of length 0 list nothing.
    """
    _size(length, "semilength" if kind == "dyck" else "length")
    texts = _ENUMERATED[kind](length)
    if count_only:
        out.write(f"{sum(1 for _ in texts)}\n")
    else:
        for text in texts:
            out.write(text + "\n")
    return 0


_COUNTS = {
    "catalan": lambda n: str(catalan(n)),
    "motzkin": lambda n: str(motzkin_count(n)),
    "touchard-rhs": lambda n: touchard_rhs(n).format_line(),
    "motzkin-rhs": lambda n: motzkin_rhs(n).format_line(),
}


def cmd_count(which: str, n: int, out: IO[str]) -> int:
    """Print one exact number or one identity-report line."""
    out.write(_COUNTS[which](n) + "\n")
    return 0


def _parse_any_word(line: str):
    if "H" in line:
        return validate_motzkin(line)
    return validate_g(line)


def cmd_render(fmt: str, line: str, unit: int, out: IO[str]) -> int:
    """Draw one word as ASCII art or as an SVG document."""
    drawing = to_drawing(_parse_any_word(line))
    if fmt == "ascii":
        out.write(render_ascii(drawing) + "\n")
    else:
        out.write(render_svg(drawing, unit) + "\n")
    return 0


def cmd_sample(kind: str, length: int, seed: int, out: IO[str]) -> int:
    """Emit one uniform word (for dyck, ``length`` is the semilength).

    G-words are drawn as ``catalan_to_g`` of a uniform Dyck word; the
    map is a bijection, so the result is uniform too.
    """
    if kind == "dyck":
        out.write(f"{sample_dyck(length, seed)}\n")
    else:
        out.write(f"{catalan_to_g(sample_dyck(length + 1, seed))}\n")
    return 0


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="touchard",
        description="Dyck and bicolored Motzkin words, their bijections, and the identities they prove.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check identities, round trips, and censuses")
    p.add_argument("--max-identity-n", type=_nonneg, default=VerifyConfig.max_identity_n)
    p.add_argument("--max-census-n", type=_nonneg, default=VerifyConfig.max_census_n)
    p.add_argument("--max-roundtrip-len", type=_nonneg, default=VerifyConfig.max_roundtrip_len)
    p.add_argument("--format", choices=("text", "ndjson"), default=VerifyConfig.output_format)
    p.set_defaults(run=lambda a: cmd_verify(
        VerifyConfig(a.max_identity_n, a.max_census_n, a.max_roundtrip_len, a.format), sys.stdout, sys.stderr
    ))

    p = sub.add_parser("map", help="apply a bijection to each input line")
    p.add_argument("direction", choices=MAP_DIRECTIONS)
    p.add_argument("--word", help="single input line (default: read stdin)")
    p.set_defaults(run=lambda a: cmd_map(
        a.direction, [a.word] if a.word is not None else sys.stdin, sys.stdout, sys.stderr
    ))

    p = sub.add_parser("enumerate", help="list all words of a family")
    p.add_argument("kind", choices=tuple(_ENUMERATED))
    p.add_argument("--length", type=_nonneg, required=True,
                   help="word length (semilength for dyck)")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(run=lambda a: cmd_enumerate(a.kind, a.length, a.count_only, sys.stdout))

    p = sub.add_parser("count", help="exact counts and identity reports")
    p.add_argument("which", choices=tuple(_COUNTS))
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
    """Run one subcommand; every failure is one ``error:`` line and exit status 1."""
    args = build_parser().parse_args(argv)
    # Exact values print in full, past CPython's int-to-str digit limit (3.10.7 and later).
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        status = args.run(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader went away (``touchard enumerate ... | head``).  Send
        # what is still buffered to /dev/null, so that flushing standard
        # output at interpreter exit does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
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
