"""ASCII and SVG drawings of path words.

Words become unit-width steps: diagonal for up/down letters, horizontal
for zero letters, with green zeros drawn green and red zeros drawn red.
A restricted word therefore never shows a red horizontal step on the
x-axis, and the SVG renderer draws that axis so the property is visible.

Both renderers are deterministic byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, count
from operator import attrgetter, sub
from typing import NamedTuple

from .words import Word, WordError

NEUTRAL = "neutral"
GREEN = "green"
RED = "red"

GREEN_HEX = "#008000"
RED_HEX = "#C00000"
NEUTRAL_HEX = "#000000"
AXIS_HEX = "#999999"


class Step(NamedTuple):
    """One drawn step, one unit wide."""

    dy: int
    color: str


_STEP_BY_SYMBOL = {
    "U": Step(+1, NEUTRAL),
    "D": Step(-1, NEUTRAL),
    "G": Step(0, GREEN),
    "R": Step(0, RED),
    "H": Step(0, NEUTRAL),
}
_STEPS = frozenset(Step(dy, color) for dy in (-1, 0, 1) for color in (NEUTRAL, GREEN, RED))
_dy = attrgetter("dy")


@dataclass(frozen=True)
class PathDrawing:
    """A path as drawable steps, starting at the origin and ending on the axis.

    ``steps`` is stored as a tuple whatever iterable holds them.  Raises
    ValueError unless ``steps`` is iterable, each step is a ``Step`` that
    rises, falls or stays level by one unit (an ``int``) in a known color (a
    ``str``), and the path never dips below the axis and ends on it, as
    every drawing of a word does.  ``_levels``, the height before each step
    followed by the final height, is the one height walk behind that check,
    ``height`` and both renderers.
    """

    steps: tuple[Step, ...]
    _levels: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            steps = iter(self.steps)
        except TypeError:
            raise ValueError(f"steps must be an iterable of Steps, not a {type(self.steps).__name__}") from None
        steps = tuple(steps)
        for step in steps:  # exact types first: 1.0 and True equal and hash like 1, and a list field does not hash
            if not (type(step) is Step and type(step.dy) is int and type(step.color) is str and step in _STEPS):
                raise ValueError(f"{step!r} is not a unit step in {NEUTRAL}, {GREEN} or {RED}")
        _set_steps(self, steps)

    @property
    def width(self) -> int:
        return len(self.steps)

    @property
    def height(self) -> int:
        """Maximum height the path reaches."""
        return max(self._levels)


def _set_steps(drawing: PathDrawing, steps: tuple[Step, ...]) -> PathDrawing:
    """Give a drawing its steps and ``_levels``; ValueError if they dip below the axis or end above it."""
    levels = tuple(accumulate(map(_dy, steps), initial=0))
    if min(levels) < 0:
        raise ValueError(f"the path falls below the axis at step {levels.index(-1)}")
    if levels[-1] != 0:
        raise ValueError(f"the path ends at height {levels[-1]}, not on the axis")
    drawing.__dict__.update(steps=steps, _levels=levels)  # past the frozen __setattr__
    return drawing


def to_drawing(word: Word) -> PathDrawing:
    """One step per letter of any validated word type; WordError for anything else.

    The steps come from the letters' table, so ``PathDrawing``'s per-step
    type checks, which could not fail, are skipped; its height checks run.
    """
    if not isinstance(word, Word):
        raise WordError(f"expected a Word, not a {type(word).__name__}")
    return _set_steps(object.__new__(PathDrawing), tuple(map(_STEP_BY_SYMBOL.__getitem__, word.text)))


def _levels_of(drawing: PathDrawing) -> tuple[int, ...]:
    """A drawing's ``_levels``; ValueError for anything but a ``PathDrawing``."""
    if not isinstance(drawing, PathDrawing):
        raise ValueError(f"expected a PathDrawing, not a {type(drawing).__name__}")
    return drawing._levels


_GLYPH_BY_STEP = {
    step: ord("/" if step.dy > 0 else "\\" if step.dy < 0 else "=" if step.color == RED else "-") for step in _STEPS
}
_DROP_BY_STEP = {step: int(step.dy < 0) for step in _STEPS}  # a down-step's glyph sits one row below its start


def render_ascii(drawing: PathDrawing) -> str:
    """Character grid: '/' up, '\\' down, '-' green or plain flat, '=' red flat.

    A glyph sits in the row of the lower of its step's two end heights, so '/' and
    '\\' fill the cell between their endpoints, flats sit at their level, and a single
    arch is the one-line ``/\\``.  Rows are padded with spaces to the word's length;
    the grid is at least one row tall.  ValueError unless ``drawing`` is a
    ``PathDrawing``.  The grid is one ``bytearray`` of (top + 1) rows of spaces, each
    ended by a newline, top row first.  A step's row is its start level, less one for
    a down-step, and its glyph, from a table keyed by ``Step``, is written at that
    row's offset plus its column.
    """
    levels = _levels_of(drawing)
    steps = drawing.steps
    rows = list(map(sub, levels, map(_DROP_BY_STEP.__getitem__, steps)))  # stops at the last step
    top = max(rows, default=0)
    width = len(steps)
    stride = width + 1
    grid = bytearray(b" " * width + b"\n") * (top + 1)
    offsets = list(range(top * stride, -1, -stride))  # the offset of each row, bottom row first
    for column, row, glyph in zip(count(), rows, map(_GLYPH_BY_STEP.__getitem__, steps)):
        grid[offsets[row] + column] = glyph
    return grid[:-1].decode()


_STROKE_BY_COLOR = {NEUTRAL: NEUTRAL_HEX, GREEN: GREEN_HEX, RED: RED_HEX}
_STROKE_BY_STEP = {step: _STROKE_BY_COLOR[step.color] for step in _STEPS}


def render_svg(drawing: PathDrawing, unit: int = 20) -> str:
    """Standalone SVG with one line element per step.

    ``drawing`` must be a ``PathDrawing`` and ``unit``, the pixel width of a
    step, a positive int (ValueError otherwise).  The y-axis is flipped so
    height increases upward; all coordinates are integers, keeping the
    output byte-stable.  The x-axis is drawn as a dashed gray line, so a red
    step resting on it would be visible at a glance.  Each level's y and
    each column's x is formatted once, and every step's line reads its two
    ends from those strings.
    """
    if type(unit) is not int or unit <= 0:
        raise ValueError(f"unit must be a positive int, not {unit!r}")
    margin = unit
    levels = _levels_of(drawing)
    top = max(levels)
    width = drawing.width * unit + 2 * margin
    height = top * unit + 2 * margin
    axis_y = margin + top * unit
    level_ys = [str(axis_y - level * unit) for level in range(top + 1)]
    ys = list(map(level_ys.__getitem__, levels))  # the y of each step's start, then of the path's end
    xs = list(map(str, range(margin, width - margin + 1, unit)))  # likewise each column's x
    strokes = map(_STROKE_BY_STEP.__getitem__, drawing.steps)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"'
        f' viewBox="0 0 {width} {height}">',
        f'  <line class="axis" x1="0" y1="{axis_y}" x2="{width}" y2="{axis_y}"'
        f' stroke="{AXIS_HEX}" stroke-dasharray="4 3"/>',
    ]
    parts += [
        f'  <line class="step" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}" stroke-width="2"/>'
        for x1, y1, x2, y2, stroke in zip(xs, ys, xs[1:], ys[1:], strokes)
    ]
    parts.append("</svg>")
    return "\n".join(parts)
