"""One repetition of one workload, run in a fresh interpreter.

    python [-O] bench/workloads.py --workload NAME --seed N [--trace]

Imports ``touchard`` from the checkout's ``src``, times the workload,
checks every output outside the timed region, and prints one JSON
object: wall time and per-operation latencies in reference seconds
(``bench/speed.py``), peak RSS, operations attempted and failed, and
(with ``--trace``) the per-layer metrics.
``bench/run.py`` starts this process; see ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import platform
import random
import resource
import statistics
import sys
from array import array
from collections.abc import Iterator
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402  (after the path set-up, like the package)
from speed import SpeedProbe  # noqa: E402

WORKLOADS = ("verify-defaults", "cli-stream", "identity-sweep", "long-words")

# The sizes the workloads run at (bench/smoke.py rewrites this line).
SIZE = {"verify": (200, 9, 10), "stream_length": 10, "sweep_n": 800, "semilength": 501, "samples": 1000}
STREAM_CHAIN = ("g2c", "c2g", "tsplit", "tmerge", "msplit", "mmerge")
# Stages whose input has a seeded CORRUPT_SHARE of its lines broken, and
# the ways to break them: the words going into g2c, and the decomposition
# lines going into the merges.
CORRUPTIONS = {
    "g2c": ("alphabet", "balance", "prefix"),
    "tmerge": ("syntax", "core"),
    "mmerge": ("syntax", "core"),
}
CORRUPT_SHARE = 0.01
DEFAULT_SEED = 1
# sha256 of every long-words output at DEFAULT_SEED and SIZE,
# recorded from the seed code: same seed, same words, same drawings.
LONG_WORDS_DIGEST = "c13cbf32e95a613c2af66aefec0206c83810806a4ddf713d22aa272daeb694aa"


RUN = "run"  # the owner of a failure that no single operation owns


def text_out() -> io.TextIOWrapper:
    """An in-memory text stream like standard output: the bytes are kept, the str lines are not."""
    return io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n")


def contents(stream: io.TextIOWrapper) -> bytes:
    stream.flush()
    return stream.buffer.getvalue()


def lines_of(data: bytes) -> Iterator[str]:
    """The lines of ``data``, one at a time, without their newlines."""
    for raw in io.BytesIO(data):
        yield raw.decode().rstrip("\n")


class Outcome:
    """What one repetition measured and which of its operations failed."""

    def __init__(self) -> None:
        # Timed (start, end) clock intervals: the operations that
        # completed, and other timed work (operations that raised).
        self.ops: list[tuple[float, float]] = []
        self.other: list[tuple[float, float]] = []
        self.rss_kb = 0
        self.attempted = 0
        self.failed_ops: set = set()
        self.problems: list[str] = []
        self.roundtrips = [0, 0]  # returned their input, attempted
        self.lines_in = 0
        self.lines_out = 0
        self.bytes_out = 0

    def fail(self, problem: str, *ops) -> None:
        """Record a problem with the operations it fails (none given: the run's)."""
        self.failed_ops.update(ops or (RUN,))
        if len(self.problems) < 5:
            self.problems.append(problem)

    @property
    def failed(self) -> int:
        """Operations that failed; a failure of the whole run counts as one."""
        return min(len(self.failed_ops), self.attempted)

    def take_rss(self) -> None:
        self.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def verify_line_key(line: str) -> tuple[str, ...]:
    """What a ``verify`` line is about, e.g. ("roundtrip=pair", "n=3")."""
    return tuple(line.split(" ", 2)[:2])


def verify_defaults(touchard, size: dict, seed: int, probe: SpeedProbe) -> Outcome:
    """``touchard verify`` at its defaults; the seed is unused (no random input)."""
    cli = touchard.cli
    imax, cmax, rmax = size["verify"]
    cfg = cli.VerifyConfig(max_identity_n=imax, max_census_n=cmax, max_roundtrip_len=rmax)
    result = Outcome()
    out, err = text_out(), text_out()
    probe.start()
    start = probe.clock()
    try:
        status = cli.cmd_verify(cfg, out, err)
        out.flush()
    except Exception as exc:  # the run counts as failed, and is reported
        status = repr(exc)
    result.ops.append((start, probe.clock()))
    probe.stop()
    result.take_rss()

    # Each expected line is one operation: the check ``verify`` reports on it.
    expected = oracles.verify_lines(imax, cmax, rmax, oracles.motzkin_numbers(max(imax, cmax)))
    data = contents(out)
    got = list(lines_of(data))
    result.attempted = len(expected)
    position = {verify_line_key(line): i for i, line in enumerate(expected)}
    seen = set()
    for line in got:
        i = position.get(verify_line_key(line))
        if i is None or i in seen:
            result.fail(f"verify printed an unexpected line {line[:80]!r}")
            continue
        seen.add(i)
        if line != expected[i]:
            result.fail(f"verify line {line[:80]!r}, expected {expected[i][:80]!r}", i)
    for i in sorted(set(range(len(expected))) - seen):
        result.fail(f"verify did not print {expected[i][:80]!r}", i)
    if not result.failed_ops and got != expected:
        result.fail("verify printed its lines in another order")
    errors = contents(err)
    if status != 0 or errors:
        result.fail(f"verify returned {status!r} and wrote {errors[:200]!r} to its error stream")
    for line in got:
        if line.startswith("roundtrip="):
            fields = dict(field.split("=", 1) for field in line.split())
            words = int(fields["words"])
            result.roundtrips[1] += words
            result.roundtrips[0] += words if fields["ok"] == "true" else 0
    result.lines_out = len(got)
    result.bytes_out = len(data)
    return result


def corruption_plan(seed: int, count: int, length: int) -> dict[int, tuple[str, str]]:
    """Input line index -> (the stage whose input breaks it, how).

    A seeded CORRUPT_SHARE of the lines for each stage of CORRUPTIONS,
    disjoint, so that each broken line has one stage that must reject it.
    """
    rng = random.Random(seed)
    share = max(1, round(count * CORRUPT_SHARE))
    chosen = rng.sample(range(count), share * len(CORRUPTIONS))
    plan = {}
    for k, (stage, kinds) in enumerate(CORRUPTIONS.items()):
        for index in chosen[k * share : (k + 1) * share]:
            kind = rng.choice(kinds)
            if kind == "alphabet":
                kind = f"alphabet:{rng.randrange(length)}:{rng.choice('HXg')}"
            plan[index] = (stage, kind)
    return plan


def corrupt(line: str, how: str) -> str:
    """``line`` broken as ``how`` says: a word (g2c's input) or a decomposition line (a merge's)."""
    if how == "balance":
        return line + "U"
    if how == "prefix":
        return "D" + line + "U"
    if how == "syntax":
        return line.replace("core=", "core:")
    if how == "core":
        return line.replace("core=", "core=D")
    _, position, letter = how.split(":")
    position = int(position)
    return line[:position] + letter + line[position + 1 :]


def break_lines(data: bytes, alive: array, plan: dict, stage: str) -> bytes:
    """``data`` with the lines that ``plan`` breaks before ``stage`` broken."""
    broken = io.BytesIO()
    for index, raw in zip(alive, io.BytesIO(data)):
        entry = plan.get(index)
        if entry is not None and entry[0] == stage:
            raw = (corrupt(raw.decode().rstrip("\n"), entry[1]) + "\n").encode()
        broken.write(raw)
    return broken.getvalue()


def pick(data: bytes, indices) -> Iterator[str]:
    """The lines of ``data`` at ``indices`` (increasing), without their newlines."""
    lines = enumerate(lines_of(data))
    for index in indices:
        for i, line in lines:
            if i == index:
                yield line
                break


def cli_stream(touchard, size: dict, seed: int, probe: SpeedProbe) -> Outcome:
    """G-words through ``enumerate g`` then six ``map`` stages, with seeded broken lines.

    Each stage reads the previous one's output as bytes through a text
    stream and writes to another, as in a shell pipe, so that only two
    stages' bytes are alive at a time and the peak RSS is mostly the
    program's.  Each stage is checked as soon as it ends, outside the
    timed region.  One timed operation is one stage; one checked
    operation is one input line.
    """
    cli = touchard.cli
    length = size["stream_length"]
    count = oracles.catalan(length + 1)
    plan = corruption_plan(seed, count, length)
    result = Outcome()
    result.attempted = count

    out = text_out()
    probe.start()
    start = probe.clock()
    try:
        cli.cmd_enumerate("g", length, False, out)
        out.flush()
    except Exception as exc:
        result.fail(f"enumerate raised {exc!r}")
    result.ops.append((start, probe.clock()))
    words = contents(out)
    del out

    # The enumerated lines must be exactly G_length: C_{length+1} distinct
    # valid words in U < G < R < D order.
    previous = None
    lines = 0
    for i, word in enumerate(lines_of(words)):
        key = oracles.g_sort_key(word)
        if len(word) != length or not oracles.is_g(word) or (previous is not None and previous >= key):
            result.fail(f"enumerate g line {i + 1} out of order or invalid: {word!r}", i)
        previous = key
        lines = i + 1
    result.lines_out += lines
    result.bytes_out += len(words)
    if lines != count:
        result.fail(f"enumerate g printed {lines} words, expected {count}", *range(min(lines, count), count))
        probe.stop()
        return result

    # ``alive`` holds the input line each line of the current stream came from.
    alive = array("l", range(count))
    rejected_at: dict[int, str] = {}
    data = words
    for direction in STREAM_CHAIN:
        if direction in CORRUPTIONS:
            data = break_lines(data, alive, plan, direction)
        source, out, err = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), text_out(), text_out()
        del data
        start = probe.clock()
        try:
            status = cli.cmd_map(direction, source, out, err)
            out.flush()
            err.flush()
        except Exception as exc:
            status = repr(exc)
        result.ops.append((start, probe.clock()))
        del source
        if isinstance(status, str):
            result.fail(f"map {direction} raised {status}")
            probe.stop()
            return result
        data = contents(out)
        del out

        result.lines_in += len(alive)
        rejected = set()
        for line in lines_of(contents(err)):
            match = oracles.MAP_ERROR.match(line)
            if match is None or not 1 <= int(match.group(1)) <= len(alive):
                result.fail(f"map {direction} wrote a malformed error line {line!r}")
                continue
            rejected.add(int(match.group(1)) - 1)
            rejected_at[alive[int(match.group(1)) - 1]] = direction
        alive = array("l", (index for position, index in enumerate(alive) if position not in rejected))
        lines = data.count(b"\n")
        result.lines_out += lines
        result.bytes_out += len(data)
        if lines != len(alive):
            result.fail(f"map {direction}: {lines} lines out, expected {len(alive)}")
            probe.stop()
            return result
        if status != (1 if rejected else 0):
            result.fail(f"map {direction} returned {status}")
        if direction == "g2c":
            for index, word, line in zip(alive, pick(words, alive), lines_of(data)):
                if line != oracles.g_to_catalan(word):
                    result.fail(f"g2c of input line {index + 1} gave {line!r}", index)
    probe.stop()
    result.take_rss()

    # Every broken line must have been rejected by its stage, and every
    # other line must have come back byte for byte.
    survivors = zip(alive, lines_of(data))
    survivor = next(survivors, None)
    for i, word in enumerate(lines_of(words)):
        back = None
        if survivor is not None and survivor[0] == i:
            back = survivor[1]
            survivor = next(survivors, None)
        if i in plan:
            stage, how = plan[i]
            if rejected_at.get(i) != stage:
                result.fail(f"input line {i + 1}, broken ({how}) before {stage}, was not rejected by {stage}", i)
        else:
            result.roundtrips[1] += 1
            if back == word:
                result.roundtrips[0] += 1
            else:
                result.fail(f"input line {i + 1} {word!r} came back as {back!r}", i)
    return result


def identity_sweep(touchard, size: dict, seed: int, probe: SpeedProbe) -> Outcome:
    """Both identity reports and their lines for every n; the seed is unused."""
    counting = touchard.counting
    top = size["sweep_n"]
    oracle = oracles.IdentityOracle(top)
    result = Outcome()
    clock = probe.clock
    probe.start()
    for n in range(top + 1):
        for which, evaluate in (("touchard", counting.touchard_rhs), ("motzkin", counting.motzkin_rhs)):
            result.attempted += 1
            start = clock()
            try:
                report = evaluate(n)
                line = report.format_line()
            except Exception as exc:
                result.other.append((start, clock()))
                result.fail(f"{which}_rhs({n}) raised {exc!r}", result.attempted)
                continue
            result.ops.append((start, clock()))
            problem = oracle.check(which, n, report.lhs, report.rhs, report.per_k_terms, report.holds, line)
            if problem is not None:
                result.fail(problem, result.attempted)
    probe.stop()
    result.take_rss()
    return result


def long_words(touchard, size: dict, seed: int, probe: SpeedProbe) -> Outcome:
    """Per seed: sample a long Dyck word, map it both ways, split, format, parse, merge, draw."""
    words, bij, render = touchard.words, touchard.bijections, touchard.render
    semilength = size["semilength"]
    rng = random.Random(seed)
    seeds = [rng.getrandbits(64) for _ in range(size["samples"])]
    digest = hashlib.sha256()
    result = Outcome()
    clock = probe.clock
    probe.start()
    for sample_seed in seeds:
        result.attempted += 1
        start = clock()
        try:
            dyck = words.sample_dyck(semilength, sample_seed)
            g = bij.catalan_to_g(dyck)
            back = bij.g_to_catalan(g)
            tline = bij.format_touchard_decomposition(bij.touchard_split(g))
            tword = bij.touchard_merge(bij.parse_touchard_decomposition(tline))
            mline = bij.format_motzkin_decomposition(bij.motzkin_split(g))
            mword = bij.motzkin_merge(bij.parse_motzkin_decomposition(mline))
            drawing = render.to_drawing(g)
            outputs = (str(dyck), str(g), str(back), tline, str(tword), mline, str(mword),
                       render.render_ascii(drawing), render.render_svg(drawing))
        except Exception as exc:
            result.other.append((start, clock()))
            result.fail(f"seed {sample_seed} raised {exc!r}", result.attempted)
            continue
        result.ops.append((start, clock()))

        digest.update("\n".join(outputs).encode() + b"\n")
        problem = check_long_word(semilength, outputs)
        result.roundtrips[1] += 3
        result.roundtrips[0] += (outputs[2] == outputs[0]) + (outputs[4] == outputs[1]) + (outputs[6] == outputs[1])
        if problem is not None:
            result.fail(f"seed {sample_seed}: {problem}", result.attempted)
    probe.stop()
    result.take_rss()
    if seed == DEFAULT_SEED and digest.hexdigest() != LONG_WORDS_DIGEST:
        result.fail(f"outputs at seed {seed} hash to {digest.hexdigest()}, recorded {LONG_WORDS_DIGEST}")
    return result


def check_long_word(semilength: int, outputs: tuple[str, ...]) -> str | None:
    dyck, g, back, tline, tword, mline, mword, art, svg = outputs
    if len(dyck) != 2 * semilength or not oracles.is_dyck(dyck):
        return "sample is not a Dyck word of the asked semilength"
    if g != oracles.catalan_to_g(dyck):
        return "catalan_to_g differs from the reference map"
    if back != dyck:
        return "g_to_catalan did not return the sample"
    if tline != oracles.touchard_line(g) or tword != g:
        return "Touchard split/format/parse/merge did not round-trip"
    if mline != oracles.motzkin_line(g) or mword != g:
        return "Motzkin split/format/parse/merge did not round-trip"
    rows = art.split("\n")
    glyphs = len(art) - art.count(" ") - art.count("\n")
    if len(rows) != oracles.ascii_rows(g) or any(len(row) != len(g) for row in rows) or glyphs != len(g):
        return "ASCII drawing has the wrong shape"
    if not (svg.startswith("<svg") and svg.endswith("</svg>")) or svg.count('class="step"') != len(g):
        return "SVG drawing has the wrong number of steps"
    return None


RUNNERS = {
    "verify-defaults": verify_defaults,
    "cli-stream": cli_stream,
    "identity-sweep": identity_sweep,
    "long-words": long_words,
}


def environment() -> dict:
    get_digits = getattr(sys, "get_int_max_str_digits", None)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "optimize": sys.flags.optimize,
        "int_max_str_digits": get_digits() if get_digits else None,
    }


def quantile(values: list[float], share: float) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(share * 100) - 1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import touchard
    import touchard.cli

    if Path(touchard.__file__).resolve().parent != ROOT / "src" / "touchard":
        print(f"imported touchard from {touchard.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    probe = SpeedProbe()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(probe.clock)
        tracer.install(touchard)

    result = RUNNERS[args.workload](touchard, SIZE, args.seed, probe)
    op_intervals, other_intervals = result.ops, result.other
    ops = probe.reference(op_intervals)
    record = {
        "factor": probe.factor(),
        "samples": len(probe.samples),
        "raw_wall_s": sum(end - start for start, end in op_intervals + other_intervals),
        "wall_s": sum(ops) + sum(probe.reference(other_intervals)),
        "ops": len(ops),
        "p50_ms": quantile(ops, 0.50) * 1e3,
        "p99_ms": quantile(ops, 0.99) * 1e3,
        "peak_rss_kb": result.rss_kb,
        "attempted": result.attempted,
        "failed": result.failed,
        "problems": result.problems,
        "env": environment(),
    }
    if tracer is not None:
        factor = probe.factor()
        ok, attempted = result.roundtrips
        metrics = tracer.metrics(factor)
        metrics.update({
            "bijections.roundtrips": (attempted, "count"),
            "bijections.roundtrip_ok_ratio": (ok / attempted if attempted else 0.0, "ratio"),
            "cli.lines_in": (result.lines_in, "count"),
            "cli.lines_out": (result.lines_out, "count"),
            "cli.bytes_out": (result.bytes_out, "bytes"),
        })
        record["layer_metrics"] = metrics
        record["edges"] = [[parent, layer, s.calls, s.busy * factor] for (parent, layer), s in tracer.edges.items()]
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
