"""ASCII and SVG path rendering."""

import xml.etree.ElementTree as ET

import pytest

from touchard import (
    DyckWord,
    GWord,
    PathDrawing,
    WordError,
    catalan_to_g,
    enumerate_dyck,
    enumerate_g,
    enumerate_g_restricted,
    enumerate_motzkin,
    render_ascii,
    render_svg,
    sample_dyck,
    to_drawing,
    validate_g,
    validate_motzkin,
)
from touchard.render import AXIS_HEX, GREEN, GREEN_HEX, NEUTRAL, NEUTRAL_HEX, RED, RED_HEX, Step

STEP = {"U": 1, "D": -1, "G": 0, "R": 0, "H": 0}  # each letter's step in height, independent of the package
COLOR = {"U": NEUTRAL, "D": NEUTRAL, "G": GREEN, "R": RED, "H": NEUTRAL}


def drawing(text):
    if "H" in text:
        return to_drawing(validate_motzkin(text))
    return to_drawing(validate_g(text))


def svg_lines(svg):
    root = ET.fromstring(svg)
    return [el for el in root.iter() if el.tag.endswith("line")]


def step_lines(svg):
    return [el for el in svg_lines(svg) if el.get("class") == "step"]


def test_to_drawing_examples():
    assert drawing("").steps == ()
    assert drawing("URD").steps == (Step(1, NEUTRAL), Step(0, RED), Step(-1, NEUTRAL))
    assert drawing("G").steps == (Step(0, GREEN),)
    assert drawing("H").steps == (Step(0, NEUTRAL),)
    assert drawing("UUDD").height == 2
    assert drawing("UUDD").width == 4


def test_to_drawing_rejects_what_is_not_a_word():
    with pytest.raises(WordError, match="^expected a Word, not a str$"):
        to_drawing("UD")
    with pytest.raises(WordError, match="^expected a Word, not a NoneType$"):
        to_drawing(None)
    # and the renderers what is not a drawing
    for render in (render_ascii, render_svg):
        with pytest.raises(ValueError, match="^expected a PathDrawing, not a str$"):
            render("UD")


def checked_drawing(text):
    """The drawing of a word's text through ``PathDrawing``'s checking constructor."""
    return PathDrawing([Step(STEP[ch], COLOR[ch]) for ch in text])


def test_to_drawing_is_the_checked_drawing():
    # Every word up to length 8 in all four families, then sampled words of semilength 501.
    words = [word for n in range(9) for family in (enumerate_g, enumerate_g_restricted, enumerate_motzkin)
             for word in family(n)]
    words += [word for n in range(5) for word in enumerate_dyck(n)]
    samples = [sample_dyck(501, seed) for seed in range(8)]
    words += samples + [catalan_to_g(word) for word in samples]
    for word in words:
        drawing, checked = to_drawing(word), checked_drawing(word.text)
        assert drawing == checked and type(drawing) is PathDrawing, word
        assert drawing.steps == checked.steps and type(drawing.steps) is tuple, word
        assert drawing._levels == checked._levels and drawing.height == checked.height, word
        assert render_ascii(drawing) == render_ascii(checked), word
        assert render_svg(drawing) == render_svg(checked), word


def test_to_drawing_checks_the_heights_of_words_built_unchecked():
    for word, message in ((DyckWord._trusted("DU"), "the path falls below the axis at step 1"),
                          (GWord._trusted("U"), "the path ends at height 1, not on the axis")):
        for build in (to_drawing, lambda word: checked_drawing(word.text)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                build(word)


def test_drawings_must_be_paths_of_unit_steps_on_or_above_the_axis():
    up, down = Step(1, NEUTRAL), Step(-1, NEUTRAL)
    for steps, message in (
        ((down, up, up), "below the axis at step 1"),
        ((up, down, down, up), "below the axis at step 3"),
        ((up,), "ends at height 1"),
        ((Step(2, NEUTRAL), Step(-2, NEUTRAL)), "not a unit step"),
        ((Step(0, "blue"),), "not a unit step"),
        (([1, NEUTRAL],), "not a unit step"),  # unhashable
        ((up, Step(0, []), down), "not a unit step"),  # a Step with an unhashable field
        ((Step(1.0, NEUTRAL), down), "not a unit step"),  # equal and hashing like a unit step
        ((Step(True, NEUTRAL), down), "not a unit step"),
        ((up, Step(-1, type("Neutral", (str,), {})(NEUTRAL))), "not a unit step"),  # a str subclass
        (((1, NEUTRAL), (-1, NEUTRAL)), "not a unit step"),  # equal to Steps, but plain tuples
        ((Step(0, "blue"), Step(1.0, NEUTRAL)), r"^Step\(dy=0, color='blue'\) is not a unit step"),  # the first named
        (5, "^steps must be an iterable of Steps, not a int$"),
    ):
        with pytest.raises(ValueError, match=message):
            PathDrawing(steps)
    assert PathDrawing((up, Step(0, RED), down)) == drawing("URD")
    assert PathDrawing(()).width == 0
    listed = PathDrawing([up, down])
    assert listed.steps == (up, down)
    assert hash(listed) == hash(drawing("UD"))


def test_ascii_single_line_words():
    assert render_ascii(drawing("")) == ""
    assert render_ascii(drawing("G")) == "-"
    assert render_ascii(drawing("R")) == "="
    assert render_ascii(drawing("H")) == "-"
    assert render_ascii(drawing("UD")) == "/\\"
    assert render_ascii(drawing("UDUD")) == "/\\/\\"


def test_ascii_multi_line_words():
    assert render_ascii(drawing("URD")) == " = \n/ \\"
    assert render_ascii(drawing("UGD")) == " - \n/ \\"
    assert render_ascii(drawing("UUDD")) == " /\\ \n/  \\"
    assert render_ascii(drawing("UUDDGR")) == " /\\   \n/  \\-="


def test_ascii_grid_shape():
    # Every row is exactly the word's width; row count matches a direct
    # per-letter simulation of the glyph placement.
    for n in range(6):
        for word in enumerate_g(n):
            art = render_ascii(to_drawing(word))
            rows = art.split("\n")
            assert all(len(row) == len(word) for row in rows)
            level = 0
            top = 0
            for ch in word.text:
                if ch == "D":
                    top = max(top, level - 1)
                else:
                    top = max(top, level)
                level += STEP[ch]
            assert len(rows) == top + 1


def test_rendering_is_deterministic():
    word = drawing("UURDGDUD")
    assert render_ascii(word) == render_ascii(word)
    assert render_svg(word, 17) == render_svg(word, 17)


def test_svg_empty_word_is_just_the_axis():
    svg = render_svg(drawing(""), 20)
    lines = svg_lines(svg)
    assert len(lines) == 1
    assert lines[0].get("class") == "axis"
    assert lines[0].get("stroke-dasharray") is not None


def test_svg_urd_segments():
    svg = render_svg(drawing("URD"), 10)
    steps = step_lines(svg)
    assert len(steps) == 3
    axis_y = int(svg_lines(svg)[0].get("y1"))
    red = [el for el in steps if el.get("stroke") == RED_HEX]
    assert len(red) == 1
    # The red flat sits one unit above the axis.
    assert int(red[0].get("y1")) == axis_y - 10
    assert int(red[0].get("y2")) == axis_y - 10


def test_svg_ground_level_reds_across_g2():
    # Across the five length-2 words the drawings contain exactly four
    # red flats resting on the axis, none of them in restricted words.
    ground_reds = 0
    for word in enumerate_g(2):
        svg = render_svg(to_drawing(word), 10)
        axis_y = int(svg_lines(svg)[0].get("y1"))
        for el in step_lines(svg):
            if el.get("stroke") == RED_HEX and int(el.get("y1")) == axis_y:
                ground_reds += 1
    assert ground_reds == 4
    for word in enumerate_g_restricted(2):
        svg = render_svg(to_drawing(word), 10)
        axis_y = int(svg_lines(svg)[0].get("y1"))
        assert not any(
            el.get("stroke") == RED_HEX and int(el.get("y1")) == axis_y
            for el in step_lines(svg)
        )


def test_svg_restricted_words_have_no_ground_red():
    for length in range(1, 7):
        for word in enumerate_g_restricted(length):
            svg = render_svg(to_drawing(word), 8)
            axis_y = int(svg_lines(svg)[0].get("y1"))
            for el in step_lines(svg):
                if el.get("stroke") == RED_HEX:
                    assert int(el.get("y1")) != axis_y


def test_svg_coordinates_scale_with_unit():
    for unit in (1, 5, 32):
        svg = render_svg(drawing("UD"), unit)
        steps = step_lines(svg)
        assert int(steps[0].get("x2")) - int(steps[0].get("x1")) == unit
        assert int(steps[0].get("y1")) - int(steps[0].get("y2")) == unit


def test_svg_step_count_matches_word_length():
    for k in range(5):
        for word in enumerate_motzkin(k):
            svg = render_svg(to_drawing(word), 4)
            assert len(step_lines(svg)) == len(word)


def test_svg_rejects_bad_unit():
    with pytest.raises(ValueError):
        render_svg(drawing("UD"), 0)
    with pytest.raises(ValueError):
        render_svg(drawing("UD"), -3)
    # Only an int keeps every coordinate an integer.
    for unit in (2.5, 20.0, True, "20"):
        with pytest.raises(ValueError, match="positive int"):
            render_svg(drawing("UD"), unit)


# The renderers' earlier bodies, each walking the heights with its own counter: the
# reference the one-walk versions must match byte for byte.
def reference_height(drawing):
    level = 0
    top = 0
    for step in drawing.steps:
        level += step.dy
        top = max(top, level)
    return top


def reference_ascii(drawing):
    placed = []  # (row, column, glyph)
    level = 0
    top = 0
    for column, step in enumerate(drawing.steps):
        if step.dy > 0:
            row, glyph = level, "/"
        elif step.dy < 0:
            row, glyph = level - 1, "\\"
        else:
            row, glyph = level, "=" if step.color == RED else "-"
        placed.append((row, column, glyph))
        top = max(top, row)
        level += step.dy
    grid = [[" "] * len(drawing.steps) for _ in range(top + 1)]
    for row, column, glyph in placed:
        grid[row][column] = glyph
    return "\n".join("".join(line) for line in reversed(grid))


def reference_svg(drawing, unit):
    stroke_by_color = {NEUTRAL: NEUTRAL_HEX, GREEN: GREEN_HEX, RED: RED_HEX}
    margin = unit
    top = reference_height(drawing)
    width = len(drawing.steps) * unit + 2 * margin
    height = top * unit + 2 * margin
    axis_y = margin + top * unit
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"'
        f' viewBox="0 0 {width} {height}">',
        f'  <line class="axis" x1="0" y1="{axis_y}" x2="{width}" y2="{axis_y}"'
        f' stroke="{AXIS_HEX}" stroke-dasharray="4 3"/>',
    ]
    level = 0
    for i, step in enumerate(drawing.steps):
        x1 = margin + i * unit
        y1 = axis_y - level * unit
        level += step.dy
        x2 = x1 + unit
        y2 = axis_y - level * unit
        parts.append(
            f'  <line class="step" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"'
            f' stroke="{stroke_by_color[step.color]}" stroke-width="2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def test_renderers_match_the_reference_walks():
    # Every G-word and Motzkin word up to length 8, then sampled long G-words (semilength
    # 501, as in the long-words benchmark) and long Dyck words.
    words = [word for n in range(9) for word in (*enumerate_g(n), *enumerate_motzkin(n))]
    words += [catalan_to_g(sample_dyck(502, seed)) for seed in range(24)]
    words += [sample_dyck(300, seed) for seed in range(12)]
    drawings = [to_drawing(word) for word in words]
    # A grid taller than 255 rows, whose last two steps sit on its bottom row, and one flat step.
    drawings += [to_drawing(validate_g("U" * 300 + "D" * 300 + "GR")), PathDrawing([Step(0, GREEN)])]
    for word, drawing in zip(words + ["tall", "flat"], drawings):
        assert drawing.height == reference_height(drawing), word
        assert render_ascii(drawing) == reference_ascii(drawing), word
        for unit in (1, 7, 20):
            assert render_svg(drawing, unit) == reference_svg(drawing, unit), (word, unit)
    # Past 100,000 the coordinates gain a digit; the empty drawing has no step line.
    for drawing in (to_drawing(sample_dyck(3000, 24)), PathDrawing(())):
        assert render_svg(drawing, 50) == reference_svg(drawing, 50), drawing.width
