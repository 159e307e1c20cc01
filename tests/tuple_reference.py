"""Reference implementation on tuples of ``Letter`` members.

This is the package's earlier representation: words were tuples of
``Letter`` enums, walked one letter at a time.  The package now works on
text; the tests compare its fast paths with these slow, plain versions
(same outputs, same enumeration order, same errors).  Nothing here calls
the package's validators, enumerators or maps, and ``Letter`` is this
module's own, so the oracle does not lean on the package's letter view.
``successor_paths`` keeps the text enumerator's earlier, successor-only
form, the reference for its table of completions.  The one exception,
``two_sided_roundtrips``, keeps ``verify``'s earlier walk of its bijection
checks from both families: it calls the maps it is given (planted faults
included) on words of the package's classes, built from this module's
enumerations.
"""

import math
import re
from enum import Enum

from touchard import BadAlphabet, DyckWord, GWord, InvalidDecomposition, MotzkinWord, NegativePrefix
from touchard import NotBalanced, RedZeroAtGroundLevel, RestrictedGWord, WordError


class Letter(Enum):
    """A path letter: its symbol in a word's text and its step in height."""

    UP = ("U", +1)
    GREEN_ZERO = ("G", 0)
    RED_ZERO = ("R", 0)
    DOWN = ("D", -1)
    FLAT = ("H", 0)

    def __init__(self, symbol, step):
        self.symbol = symbol
        self.step = step


U, D, G, R, H = Letter.UP, Letter.DOWN, Letter.GREEN_ZERO, Letter.RED_ZERO, Letter.FLAT
DYCK_ALPHABET = (U, D)
G_ALPHABET = (U, G, R, D)
MOTZKIN_ALPHABET = (U, H, D)
_BY_SYMBOL = {letter.symbol: letter for letter in Letter}


def text(letters):
    return "".join(letter.symbol for letter in letters)


def parse_letters(line):
    letters = []
    for ch in line:
        letter = _BY_SYMBOL.get(ch)
        if letter is None:
            raise BadAlphabet(f"unknown letter {ch!r}")
        letters.append(letter)
    return tuple(letters)


def _check_path(letters, allowed, family):
    height = 0
    for i, letter in enumerate(letters):
        if letter not in allowed:
            raise BadAlphabet(f"{family} word may not contain {letter.symbol!r} (position {i + 1})")
        height += letter.step
        if height < 0:
            raise NegativePrefix(f"prefix sum falls below zero at position {i + 1}")
    if height != 0:
        raise NotBalanced(f"letters sum to {height}, not zero")


def check_dyck(letters):
    _check_path(letters, DYCK_ALPHABET, "Dyck")


def check_g(letters):
    _check_path(letters, G_ALPHABET, "bicolored Motzkin")


def check_g_restricted(letters):
    if not letters:
        raise WordError("a restricted word has at least one letter")
    check_g(letters)
    height = 0
    for i, letter in enumerate(letters):
        if letter is R and height == 0:
            raise RedZeroAtGroundLevel(f"red zero at position {i + 1} sits at ground level")
        height += letter.step


def check_motzkin(letters):
    _check_path(letters, MOTZKIN_ALPHABET, "Motzkin")


CHECKS = {"dyck": check_dyck, "g": check_g, "grestricted": check_g_restricted, "motzkin": check_motzkin}


def paths(length, alphabet, ground_red_ok=True):
    """Recursive backtracking, in the lexicographic order of ``alphabet``."""
    word = []

    def extend(height, remaining):
        if remaining == 0:
            yield tuple(word)
            return
        for letter in alphabet:
            new_height = height + letter.step
            if new_height < 0 or new_height > remaining - 1:
                continue
            if not ground_red_ok and letter is R and height == 0:
                continue
            word.append(letter)
            yield from extend(new_height, remaining - 1)
            word.pop()

    return extend(0, length)


def enumerate_family(family, length):
    """Words of a family as letter tuples; ``length`` is the semilength for dyck."""
    if family == "dyck":
        return paths(2 * length, DYCK_ALPHABET)
    if family == "g":
        return paths(length, G_ALPHABET)
    if family == "grestricted":
        return paths(length, G_ALPHABET, ground_red_ok=False) if length else iter(())
    return paths(length, MOTZKIN_ALPHABET)


_STEP = {letter.symbol: letter.step for letter in Letter}


def successor_paths(length, alphabet, ground_red_ok=True):
    """Text words in the lexicographic order of the ``alphabet`` string, each the successor of the last.

    The package's enumerator before its table of completions: change the
    last letter that can grow to a later letter of the alphabet, then append
    the smallest completion.  It walks the whole word for every word.
    """
    later = {ch: alphabet[i + 1 :] for i, ch in enumerate(alphabet)}
    zero = alphabet[1]

    def completion(height, remaining):
        ups, odd = divmod(remaining - height, 2)
        return "U" * ups + zero * odd + "D" * (height + ups)

    def successor(text):
        i = len(text.rstrip("D"))
        height = length - i
        while i:
            i -= 1
            ch = text[i]
            height -= _STEP[ch]
            remaining = length - i - 1
            for bigger in later[ch]:
                new_height = height + _STEP[bigger]
                if 0 <= new_height <= remaining and (ground_red_ok or height or bigger != "R"):
                    return text[:i] + bigger + completion(new_height, remaining)
        return None

    text = completion(0, length)
    while text is not None:
        yield text
        text = successor(text)


_PAIR_TO_LETTER = {(U, U): U, (U, D): G, (D, U): R, (D, D): D}
_LETTER_TO_PAIR = {letter: pair for pair, letter in _PAIR_TO_LETTER.items()}


def pair_encode(letters):
    if not letters:
        raise ValueError("pair encoding needs at least one letter pair")
    return tuple(_PAIR_TO_LETTER[letters[i], letters[i + 1]] for i in range(0, len(letters), 2))


def pair_decode(letters):
    expanded = []
    for letter in letters:
        expanded.extend(_LETTER_TO_PAIR[letter])
    return tuple(expanded)


def drop_restriction(letters):
    if letters[-1] is G:
        return letters[:-1]
    sums = []
    total = 0
    for letter in letters:
        total += letter.step
        sums.append(total)
    cut = 0
    for i in range(len(letters) - 1):
        if sums[i] == 0:
            cut = i + 1
    return letters[:cut] + (R,) + letters[cut + 1 : -1]


def raise_restriction(letters):
    height = 0
    for i, letter in enumerate(letters):
        if letter is R and height == 0:
            return letters[:i] + (U,) + letters[i + 1 :] + (D,)
        height += letter.step
    return letters + (G,)


def touchard_split(letters):
    """(n, positions, core, colors) with positions 1-based."""
    positions, core, colors = [], [], []
    for i, letter in enumerate(letters, start=1):
        if letter.step != 0:
            positions.append(i)
            core.append(letter)
        else:
            colors.append(letter is R)
    return len(letters), tuple(positions), tuple(core), tuple(colors)


def touchard_merge(n, positions, core, colors):
    filled = dict(zip(positions, core))
    color = iter(colors)
    letters = []
    for i in range(1, n + 1):
        letter = filled.get(i)
        if letter is None:
            letter = R if next(color) else G
        letters.append(letter)
    return tuple(letters)


_MOTZKIN_TO_G = {U: U, D: D, H: G}
_G_TO_MOTZKIN = {g: m for m, g in _MOTZKIN_TO_G.items()}


def motzkin_split(letters):
    """(n, red_positions, core) with positions 1-based."""
    reds, core = [], []
    for i, letter in enumerate(letters, start=1):
        if letter is R:
            reds.append(i)
        else:
            core.append(_G_TO_MOTZKIN[letter])
    return len(letters), tuple(reds), tuple(core)


def motzkin_merge(n, reds, core):
    core = iter(core)
    return tuple(R if i in reds else _MOTZKIN_TO_G[next(core)] for i in range(1, n + 1))


def _check_slots(positions, n, name):
    if any(p < 1 or p > n for p in positions):
        raise InvalidDecomposition(f"{name} must lie in 1..{n}")
    if any(a >= b for a, b in zip(positions, positions[1:])):
        raise InvalidDecomposition(f"{name} must be strictly increasing")


_TOUCHARD_LINE = re.compile(r"positions=\[([\d,]*)\];core=(\w*);colors=([01]*)")
_MOTZKIN_LINE = re.compile(r"red=\[([\d,]*)\];core=(\w*)")


def _positions(field):
    return tuple(int(p) for p in field.split(",") if p)


def parse_touchard_line(line):
    match = _TOUCHARD_LINE.fullmatch(line)
    if match is None:
        raise InvalidDecomposition(f"cannot parse decomposition line {line!r}")
    positions = _positions(match.group(1))
    core = parse_letters(match.group(2))
    check_dyck(core)
    colors = tuple(bit == "1" for bit in match.group(3))
    n = len(positions) + len(colors)
    if len(positions) != len(core):
        raise InvalidDecomposition("positions must hold one slot per core letter")
    _check_slots(positions, n, "positions")
    return n, positions, core, colors


def parse_motzkin_line(line):
    match = _MOTZKIN_LINE.fullmatch(line)
    if match is None:
        raise InvalidDecomposition(f"cannot parse decomposition line {line!r}")
    reds = _positions(match.group(1))
    core = parse_letters(match.group(2))
    check_motzkin(core)
    n = len(reds) + len(core)
    _check_slots(reds, n, "red positions")
    return n, reds, core


def format_touchard_line(n, positions, core, colors):
    bits = "".join("1" if c else "0" for c in colors)
    return f"positions=[{','.join(map(str, positions))}];core={text(core)};colors={bits}"


def format_motzkin_line(n, reds, core):
    return f"red=[{','.join(map(str, reds))}];core={text(core)}"


def _word(check, line):
    letters = parse_letters(line)
    check(letters)
    return letters


def map_line(direction, line):
    """What ``touchard map DIRECTION`` prints for one stripped input line."""
    if direction == "encode":
        return text(pair_encode(_word(check_dyck, line)))
    if direction == "decode":
        return text(pair_decode(_word(check_g_restricted, line)))
    if direction == "drop":
        return text(drop_restriction(_word(check_g_restricted, line)))
    if direction == "raise":
        return text(raise_restriction(_word(check_g, line)))
    if direction == "c2g":
        return text(drop_restriction(pair_encode(_word(check_dyck, line))))
    if direction == "g2c":
        return text(pair_decode(raise_restriction(_word(check_g, line))))
    if direction == "tsplit":
        return format_touchard_line(*touchard_split(_word(check_g, line)))
    if direction == "tmerge":
        return text(touchard_merge(*parse_touchard_line(line)))
    if direction == "msplit":
        return format_motzkin_line(*motzkin_split(_word(check_g, line)))
    if direction == "mmerge":
        return text(motzkin_merge(*parse_motzkin_line(line)))
    raise KeyError(direction)


MASK64 = 2**64 - 1


def splitmix64(seed):
    """SplitMix64's outputs from ``seed``, one at a time, as in the reference C version."""
    state = seed & MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


def below(outputs, bound):
    """A uniform integer in [0, bound) from an output stream, rejecting the biased top."""
    limit = 2**64 - 2**64 % bound
    for draw in outputs:
        if draw < limit:
            return draw % bound


def sample_dyck(n, seed):
    """The sampler's text, one draw per Fisher-Yates step: shuffle, then the cycle-lemma rotation."""
    outputs = splitmix64(seed)
    steps = [U] * (n + 1) + [D] * n
    for i in range(2 * n, 0, -1):
        j = below(outputs, i + 1)
        steps[i], steps[j] = steps[j], steps[i]
    height, low, cut = 0, 0, 0
    for i, letter in enumerate(steps, start=1):
        height += letter.step
        if height <= low:
            low, cut = height, i
    return text(steps[cut:] + steps[:cut])[1:]


ROUNDTRIP_MAPS = (
    "pair_encode", "pair_decode", "drop_restriction", "raise_restriction",
    "touchard_split", "touchard_merge", "motzkin_split", "motzkin_merge",
)


def two_sided_roundtrips(n, maps):
    """``verify``'s four bijection checks at size n, each family walked in turn: (line, ok, counterexample) each.

    ``verify`` walks each check from its first family only; this is the walk
    it replaced, from both families where both are enumerated.  ``maps``
    holds the package's eight maps by name.  A word passes when its image is
    in the other family (same class, one of its texts; for a split, the
    core's) and the other map gives the word back; a map that raises
    ValueError fails it.  A check passes when its first family has the
    target size and every word passes; the counterexample is the first
    failing word, first family first.
    """
    family = {
        "dyck": [text(letters) for letters in paths(2 * n + 2, DYCK_ALPHABET)],
        "grestricted": [text(letters) for letters in paths(n + 1, G_ALPHABET, ground_red_ok=False)],
        "g": [text(letters) for letters in paths(n, G_ALPHABET)],
    }
    classes = {"dyck": DyckWord, "grestricted": RestrictedGWord, "g": GWord}

    def member(cls, texts):
        texts = set(texts)
        return lambda word: type(word) is cls and word.text in texts

    in_dyck, in_restricted, in_g = (member(classes[name], family[name]) for name in ("dyck", "grestricted", "g"))
    in_dyck_cores = member(DyckWord, (
        text(letters) for k in range(n // 2 + 1) for letters in paths(2 * k, DYCK_ALPHABET)))
    in_motzkin_cores = member(MotzkinWord, (
        text(letters) for k in range(n + 1) for letters in paths(k, MOTZKIN_ALPHABET)))
    catalan = math.comb(2 * n + 2, n + 1) // (n + 2)  # both identities' right-hand side, C_{n+1}
    checks = (
        ("pair", [("dyck", "pair_encode", "pair_decode", in_restricted),
                  ("grestricted", "pair_decode", "pair_encode", in_dyck)]),
        ("restriction", [("grestricted", "drop_restriction", "raise_restriction", in_g),
                         ("g", "raise_restriction", "drop_restriction", in_restricted)]),
        ("touchard_split", [("g", "touchard_split", "touchard_merge", lambda split: in_dyck_cores(split.core))]),
        ("motzkin_split", [("g", "motzkin_split", "motzkin_merge", lambda split: in_motzkin_cores(split.core))]),
    )
    results = []
    for name, sides in checks:
        walked, counterexample = 0, None
        for source, forward, backward, valid in sides:
            for word_text in family[source]:
                word = classes[source](word_text)
                walked += 1
                try:
                    image = maps[forward](word)
                    passed = valid(image) and maps[backward](image) == word
                except ValueError:
                    passed = False
                if not passed and counterexample is None:
                    counterexample = word_text
        ok = len(family[sides[0][0]]) == catalan and counterexample is None
        results.append((f"roundtrip={name} n={n} words={walked} ok={'true' if ok else 'false'}", ok, counterexample))
    return results
