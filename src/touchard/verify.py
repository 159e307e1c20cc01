"""The ``verify`` engine: the identities, exhaustive round trips and censuses as checks.

``run_checks`` yields one ``Check`` per line of ``touchard verify``, in
order; ``cmd_verify`` writes them as text lines or ndjson records.  The
round trips run in shards, in up to ``MAX_JOBS`` forked worker processes,
and each split they walk has its structure checked with the
decompositions' own fault functions.
"""

from __future__ import annotations

import gc
import os
from collections import Counter
from contextlib import closing, contextmanager
from itertools import chain
from typing import IO, Callable, Iterator, NamedTuple

from .bijections import (
    MotzkinDecomposition,
    TouchardDecomposition,
    _motzkin_fault,
    _touchard_fault,
    drop_restriction,
    motzkin_merge,
    motzkin_split,
    pair_decode,
    pair_encode,
    raise_restriction,
    touchard_merge,
    touchard_split,
)
from .counting import g_census, motzkin_rhs, touchard_rhs
from .words import DyckWord, GWord, MotzkinWord, RestrictedGWord, Word, _Frozen, _size, _texts


class VerifyConfig(_Frozen):
    """Bounds and output mode for the verification sweep."""

    _fields = ("max_identity_n", "max_census_n", "max_roundtrip_len", "output_format")
    max_identity_n: int
    max_census_n: int
    max_roundtrip_len: int
    output_format: str

    def __init__(self, max_identity_n: int = 200, max_census_n: int = 9, max_roundtrip_len: int = 10,
                 output_format: str = "text") -> None:
        self.__dict__.update(zip(self._fields, (max_identity_n, max_census_n, max_roundtrip_len, output_format)))
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
        dyck = list(_texts(DyckWord, n + 1))
        restricted = list(_texts(RestrictedGWord, n + 1))
        grown = list(_texts(GWord, n))
        restricted_set, grown_set = set(restricted), set(grown)
        dyck_cores = set(chain.from_iterable(_texts(DyckWord, k) for k in range(n // 2 + 1)))
        motzkin_cores = set(chain.from_iterable(_texts(MotzkinWord, k) for k in range(n + 1)))

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
    """Both census checks for each n <= max_n: G_n's words by each split's kept letters, against the identities' terms.

    The counts come from ``g_census``'s tables, not from enumerated words or
    splits: k up-steps put a word under Touchard's term k, and k letters
    other than red zeros under Motzkin's term k.  The split round trips
    force those to be the core sizes (see README).
    """
    checks = []
    for n, ups, kept in zip(range(max_n + 1), g_census(max_n, "U"), g_census(max_n, "UGD")):
        for which, counts, report in (("touchard", ups, touchard_rhs(n)), ("motzkin", kept, motzkin_rhs(n))):
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
            worker = context.Process(target=work, args=(w, sender), daemon=True)
            worker.start()  # listed once started: only a started worker can be stopped
            workers.append(worker)
            receivers.append(receiver)
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
    failure, with its counterexample if it has one, on ``err``.  From
    ``max_identity_n`` = 7,152 on, this raises ``IdentityReport.format_line``'s
    digit-limit ValueError unless the caller lifts the limit, as ``cli.main`` does.
    """
    if cfg.output_format == "ndjson":
        import json  # here, not at the top, as multiprocessing is: text output never needs it
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
