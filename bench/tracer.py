"""Spans around the public functions of each ``touchard`` layer.

The tracer replaces each public function, in every package module and
module-level dict that refers to it, with a wrapper that records a
span: its layer, its parent span's layer, and its duration.  Spans are
aggregated in memory as they close (calls, self time, typed failures),
because ``verify`` alone opens over a million of them.  A layer's self
time is its spans' duration minus the time covered by their child spans.
No file of the package changes.
"""

from __future__ import annotations

import inspect
from collections import defaultdict

# Layer name -> (module, public functions).  ``counting.format`` is a
# method of IdentityReport and is wrapped on the class.
LAYERS = {
    "words.enumerate": ("words", ("enumerate_dyck", "enumerate_g", "enumerate_g_restricted", "enumerate_motzkin")),
    "words.parse": ("words", ("parse_letters",)),
    "words.validate": ("words", ("validate_dyck", "validate_g", "validate_g_restricted", "validate_motzkin")),
    "words.sample": ("words", ("sample_dyck",)),
    "bijections.pair": ("bijections", ("pair_encode", "pair_decode")),
    "bijections.restriction": ("bijections", ("drop_restriction", "raise_restriction")),
    "bijections.compose": ("bijections", ("catalan_to_g", "g_to_catalan")),
    "bijections.touchard": ("bijections", ("touchard_split", "touchard_merge")),
    "bijections.motzkin": ("bijections", ("motzkin_split", "motzkin_merge")),
    "bijections.lines": ("bijections", (
        "format_touchard_decomposition", "parse_touchard_decomposition",
        "format_motzkin_decomposition", "parse_motzkin_decomposition",
    )),
    "counting.catalan": ("counting", ("catalan",)),
    "counting.motzkin_count": ("counting", ("motzkin_count",)),
    "counting.touchard_rhs": ("counting", ("touchard_rhs",)),
    "counting.motzkin_rhs": ("counting", ("motzkin_rhs",)),
    "render.to_drawing": ("render", ("to_drawing",)),
    "render.ascii": ("render", ("render_ascii",)),
    "render.svg": ("render", ("render_svg",)),
    "cli": ("cli", ("cmd_verify", "cmd_map", "cmd_enumerate", "cmd_count", "cmd_render", "cmd_sample")),
}
FORMAT_LAYER = "counting.format"
# Layers whose functions raise typed errors on bad input.
FAILING_LAYERS = ("words.parse", "words.validate", "bijections.lines")

# Layers whose functions map words to words; their input letters feed
# bijections.letters_per_busy_s.
BIJECTION_MAPS = (
    "bijections.pair", "bijections.restriction", "bijections.compose",
    "bijections.touchard", "bijections.motzkin",
)

_NON_DIGITS = str.maketrans("", "", "0123456789")


class Stat:
    __slots__ = ("calls", "busy", "failed", "letters")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.failed = 0
        self.letters = 0


class Tracer:
    """Aggregated spans, keyed by (parent layer, layer)."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.edges: dict[tuple[str, str], Stat] = defaultdict(Stat)
        self.digits_out = 0
        # One [layer, child_time] frame per open span.
        self._stack: list[list] = [["(benchmark)", 0.0]]

    def _close(self, layer: str, frame: list, start: float, failed: bool, letters: int) -> None:
        duration = self.clock() - start
        self._stack.pop()
        parent = self._stack[-1]
        stat = self.edges[parent[0], layer]
        stat.calls += 1
        stat.busy += duration - frame[1]
        stat.failed += failed
        stat.letters += letters
        parent[1] += duration

    def wrap(self, layer: str, fn):
        stack = self._stack
        close = self._close
        clock = self.clock
        count_letters = layer in BIJECTION_MAPS

        def span(*args, **kwargs):
            letters = 0
            if count_letters:
                arg = args[0]
                letters = len(arg.letters) if hasattr(arg, "letters") else arg.n
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            failed = False
            try:
                return fn(*args, **kwargs)
            except ValueError:
                failed = True
                raise
            finally:
                close(layer, frame, start, failed, letters)

        return span

    def wrap_generator(self, layer: str, fn):
        """A span per ``next()``: the enumerators do their work lazily."""
        stack = self._stack
        close = self._close
        clock = self.clock

        def spans(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame = [layer, 0.0]
                stack.append(frame)
                start = clock()
                failed = False
                try:
                    item = next(inner)
                except StopIteration:
                    return
                except ValueError:
                    failed = True
                    raise
                finally:
                    close(layer, frame, start, failed, 0)
                yield item

        return spans

    def wrap_format(self, fn):
        plain = self.wrap(FORMAT_LAYER, fn)

        def format_line(report):
            line = plain(report)
            self.digits_out += len(line) - len(line.translate(_NON_DIGITS))
            return line

        return format_line

    def install(self, package) -> None:
        """Wrap every layer function wherever the package's modules refer to it."""
        modules = [package] + [getattr(package, name) for name in ("words", "bijections", "counting", "render", "cli")]
        wrappers = {}
        for layer, (module_name, names) in LAYERS.items():
            module = getattr(package, module_name)
            for name in names:
                fn = getattr(module, name)
                if inspect.isgeneratorfunction(fn):
                    wrappers[id(fn)] = self.wrap_generator(layer, fn)
                else:
                    wrappers[id(fn)] = self.wrap(layer, fn)
        for module in modules:
            for name, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, name, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in value.items():
                        if id(item) in wrappers:
                            value[key] = wrappers[id(item)]
        report = package.counting.IdentityReport
        report.format_line = self.wrap_format(report.format_line)

    def metrics(self, factor: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; self times are converted by ``factor`` to reference seconds."""
        totals: dict[str, Stat] = defaultdict(Stat)
        for (_, layer), stat in self.edges.items():
            total = totals[layer]
            total.calls += stat.calls
            total.busy += stat.busy
            total.failed += stat.failed
            total.letters += stat.letters
        metrics = {}
        for layer in (*LAYERS, FORMAT_LAYER):
            prefix = "cli.self" if layer == "cli" else f"{layer}.busy"
            metrics[f"{layer}.calls"] = (totals[layer].calls, "count")
            metrics[f"{prefix}_s"] = (totals[layer].busy * factor, "s")
            if layer in FAILING_LAYERS:
                metrics[f"{layer}.failed"] = (totals[layer].failed, "count")
        busy = factor * sum(totals[layer].busy for layer in BIJECTION_MAPS)
        letters = sum(totals[layer].letters for layer in BIJECTION_MAPS)
        metrics["bijections.letters_per_busy_s"] = (letters / busy if busy else 0.0, "1/s")
        metrics["counting.digits_out"] = (self.digits_out, "count")
        return metrics
