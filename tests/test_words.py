"""Word types, validation, enumeration, text codec, and sampling."""

import io
import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from touchard import (
    BadAlphabet,
    DyckWord,
    GWord,
    MotzkinWord,
    NegativePrefix,
    NotBalanced,
    RedZeroAtGroundLevel,
    RestrictedGWord,
    SplitMix64,
    Word,
    WordError,
    catalan,
    enumerate_dyck,
    enumerate_g,
    enumerate_g_restricted,
    enumerate_motzkin,
    motzkin_count,
    parse_letters,
    sample_dyck,
    validate_dyck,
    validate_g,
    validate_g_restricted,
    validate_motzkin,
)
from touchard.cli import cmd_enumerate
from touchard.words import _CHUNK, _shuffled_dyck, _texts

import tuple_reference as ref

STEP = {"U": 1, "D": -1, "G": 0, "R": 0, "H": 0}  # each letter's step in height, independent of the package
DYCK_ALPHABET, G_ALPHABET, MOTZKIN_ALPHABET = "UD", "UGRD", "UHD"  # each in enumeration order


def texts(alphabet, length):
    """Every text of ``length`` letters from ``alphabet``."""
    return map("".join, itertools.product(alphabet, repeat=length))


# Independent validity predicate used as the brute-force oracle: it works
# from the letter steps alone and never calls the validators.
def plain_valid(text):
    total = 0
    for ch in text:
        total += STEP[ch]
        if total < 0:
            return False
    return total == 0


def restricted_valid(text):
    if not text:
        return False
    total = 0
    for ch in text:
        if ch == "R" and total == 0:
            return False
        total += STEP[ch]
    return plain_valid(text)


def test_validate_dyck_accepts_arch():
    word = validate_dyck("UD")
    assert isinstance(word, DyckWord)
    assert word.semilength == 1
    assert str(word) == "UD"


def test_validate_dyck_rejections():
    with pytest.raises(NegativePrefix):
        validate_dyck("DU")
    with pytest.raises(NotBalanced):
        validate_dyck("UUD")
    with pytest.raises(BadAlphabet):
        validate_dyck("UGD")
    with pytest.raises(BadAlphabet):
        validate_dyck("UHD")


def test_validate_g_and_restricted():
    assert isinstance(validate_g("GR"), GWord)
    with pytest.raises(RedZeroAtGroundLevel):
        validate_g_restricted("GR")
    word = validate_g_restricted("URD")
    assert isinstance(word, RestrictedGWord)
    assert isinstance(word, GWord)
    with pytest.raises(WordError):
        validate_g_restricted("")
    with pytest.raises(BadAlphabet):
        validate_g("UHD")


def test_validate_motzkin():
    assert isinstance(validate_motzkin("UHD"), MotzkinWord)
    with pytest.raises(BadAlphabet):
        validate_motzkin("G")
    with pytest.raises(NotBalanced):
        validate_motzkin("U")


def test_direct_construction_checks_in_debug():
    with pytest.raises(NegativePrefix):
        GWord("DU")
    with pytest.raises(RedZeroAtGroundLevel):
        RestrictedGWord("R")


def test_the_word_base_class_has_no_family():
    for text in ("UD", "", None):
        with pytest.raises(WordError, match="no family: build a DyckWord, GWord, RestrictedGWord or MotzkinWord"):
            Word(text)


def test_words_are_hashable_and_type_distinct():
    dyck = validate_dyck("UD")
    g = validate_g("UD")
    assert dyck != g
    assert len({dyck, g, validate_dyck("UD")}) == 2
    with pytest.raises(AttributeError):
        dyck.letters = ()
    with pytest.raises(AttributeError):
        dyck.text = "UUDD"
    with pytest.raises(AttributeError):
        del dyck.text
    with pytest.raises(AttributeError):
        setattr(dyck, "extra", 1)
    with pytest.raises(AttributeError):
        del dyck.extra


def test_words_survive_pickle_and_copy():
    import copy
    import pickle

    for word in (validate_dyck("UD"), validate_g_restricted("URD"), validate_motzkin("H")):
        for clone in (pickle.loads(pickle.dumps(word)), copy.copy(word), copy.deepcopy(word)):
            assert type(clone) is type(word) and clone == word


def test_enumerate_dyck_small():
    assert [str(w) for w in enumerate_dyck(0)] == [""]
    assert [str(w) for w in enumerate_dyck(2)] == ["UUDD", "UDUD"]
    assert sum(1 for _ in enumerate_dyck(5)) == 42


def test_enumerate_dyck_counts_match_catalan():
    for n in range(13):
        assert sum(1 for _ in enumerate_dyck(n)) == catalan(n)


def test_enumerate_g_small():
    assert [str(w) for w in enumerate_g(1)] == ["G", "R"]
    assert [str(w) for w in enumerate_g(2)] == ["UD", "GG", "GR", "RG", "RR"]
    for n in range(8):
        assert sum(1 for _ in enumerate_g(n)) == catalan(n + 1)


def test_enumerate_g_restricted_counts():
    assert list(enumerate_g_restricted(0)) == []
    for length in range(1, 10):
        words = list(enumerate_g_restricted(length))
        assert len(words) == catalan(length)
        assert all(isinstance(w, RestrictedGWord) for w in words)
    for length in range(10, 13):
        assert sum(1 for _ in enumerate_g_restricted(length)) == catalan(length)


def test_enumerate_motzkin_matches_brute_force():
    for k in range(9):
        expected = sorted(
            (text for text in texts(MOTZKIN_ALPHABET, k) if plain_valid(text)),
            key=lambda text: [MOTZKIN_ALPHABET.index(ch) for ch in text],
        )
        assert [w.text for w in enumerate_motzkin(k)] == expected
    assert sum(1 for _ in enumerate_motzkin(3)) == 4


def test_enumerate_motzkin_counts():
    for k in range(15):
        assert sum(1 for _ in enumerate_motzkin(k)) == motzkin_count(k)


def test_enumerators_agree_with_validators_up_to_length_8():
    # A sequence is yielded iff the validator accepts it.
    for length in range(9):
        g_set = {w.text for w in enumerate_g(length)}
        res_set = {w.text for w in enumerate_g_restricted(length)}
        for text in texts(G_ALPHABET, length):
            assert (text in g_set) == plain_valid(text)
            assert (text in res_set) == restricted_valid(text)
        dyck_set = (
            {w.text for w in enumerate_dyck(length // 2)} if length % 2 == 0 else set()
        )
        for text in texts(DYCK_ALPHABET, length):
            assert (text in dyck_set) == plain_valid(text)


ENUMERATORS = {  # each class: its enumerator and its kind in touchard enumerate
    DyckWord: (enumerate_dyck, "dyck"),
    GWord: (enumerate_g, "g"),
    RestrictedGWord: (enumerate_g_restricted, "grestricted"),
    MotzkinWord: (enumerate_motzkin, "motzkin"),
}


def test_texts_are_the_enumerators_texts_and_check_the_size_alike():
    for cls, (enumerate_words, kind) in ENUMERATORS.items():
        for size in range(7 if cls is DyckWord else 9):
            assert list(_texts(cls, size)) == [w.text for w in enumerate_words(size)]
        what = "semilength" if cls is DyckWord else "length"
        for size in (-1, True, 1.0):
            words = enumerate_words(size)  # a generator: the size is checked at its first word
            for call in (lambda: next(words), lambda: cmd_enumerate(kind, size, False, io.StringIO())):
                with pytest.raises(ValueError) as exc:
                    call()
                assert str(exc.value) == f"{what} must be a non-negative int, not {size!r}"


def test_enumeration_order_is_lexicographic():
    for n in range(7):
        words = [[G_ALPHABET.index(ch) for ch in w.text] for w in enumerate_g(n)]
        assert words == sorted(words)
    for n in range(7):
        words = [[DYCK_ALPHABET.index(ch) for ch in w.text] for w in enumerate_dyck(n)]
        assert words == sorted(words)


def test_long_enumeration_needs_no_recursion():
    assert str(next(enumerate_g(1500))) == "U" * 750 + "D" * 750


def test_enumeration_streams_are_independent():
    first = enumerate_g(3)
    second = enumerate_g(3)
    interleaved = [next(first), next(second), next(first), next(second)]
    assert interleaved[0] == interleaved[1]
    assert interleaved[2] == interleaved[3]
    assert list(first) == list(second)


def test_prefix_sums_of_valid_words():
    for w in enumerate_g(5):
        sums = list(itertools.accumulate(STEP[ch] for ch in w.text))
        assert all(s >= 0 for s in sums)
        assert not sums or sums[-1] == 0


def test_parse_letters():
    assert parse_letters("UDGRH") == "UDGRH"
    assert parse_letters("") == ""
    with pytest.raises(BadAlphabet):
        parse_letters("UXD")
    with pytest.raises(BadAlphabet):
        parse_letters("u d")


def test_str_parse_roundtrip():
    for w in enumerate_g(4):
        assert validate_g(str(w)) == w
        assert parse_letters(str(w)) == w.letters


def test_splitmix64_reference_vector():
    # First outputs for seed 0, as published for the reference C version.
    rng = SplitMix64(0)
    assert [rng.next_uint64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_below_bounds():
    rng = SplitMix64(12345)
    draws = [rng.below(7) for _ in range(2000)]
    assert set(draws) == set(range(7))
    with pytest.raises(ValueError):
        rng.below(0)
    # Past 2**64 no 64-bit draw could be accepted: refused at once, not an endless loop.
    for bound in (-1, 2**64 + 1, 2**65):
        with pytest.raises(ValueError, match=r"^bound must lie in 1\.\.2\*\*64$"):
            rng.below(bound)
    assert SplitMix64(0).below(2**64) == 0xE220A8397B1DCDAF  # every draw is accepted as it is


# Bound counts that leave the last chunk empty, one bound long, one short of full, full,
# one over, and several chunks with a short tail.
CHUNK_SHAPES = (0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5)


@pytest.mark.parametrize("count", CHUNK_SHAPES)
def test_below_each_is_below_in_turn(count):
    rng = random.Random(count)
    for seed in (0, 2**64 - 1, *(rng.getrandbits(64) for _ in range(4))):
        shapes = (
            range(count + 1, 1, -1),  # the sampler's Fisher-Yates bounds
            [rng.randrange(1, 2**20) for _ in range(count)],
            [rng.choice((1, 2**63, 2**64, rng.randrange(1, 2**64))) for _ in range(count)],  # mostly rejections
        )
        for bounds in shapes:
            batch, single = SplitMix64(seed), SplitMix64(seed)
            assert list(batch.below_each(bounds)) == [single.below(b) for b in bounds]
            assert batch.next_uint64() == single.next_uint64()  # the same state afterwards


def below_in_turn(rng, bounds):
    """The values ``rng.below`` gives for ``bounds`` in turn, and the message of the error that stops them, if any."""
    values = []
    try:
        for bound in bounds:
            values.append(rng.below(bound))
    except ValueError as error:
        return values, str(error)
    return values, None


# Ranges that are empty, reach 0 or a negative bound, pass 2**64, ascend, step by
# other than ±1, or span several chunks with a short last one.
RANGE_BOUNDS = (
    range(0),
    range(5, 1, -1),
    range(5, -1, -1),
    range(_CHUNK + 3, -3, -1),
    range(2**64 - 3, 2**64 + 2),
    range(2**64 + 1, 2**64 - 3, -1),
    range(2**128, 2**128 + 3),  # the largest bound less one would overflow its lane
    range(1, 3 * _CHUNK),
    range(7, 5 * _CHUNK, 5),
    range(10**12, 1, -(10**12 // (2 * _CHUNK + 1))),
    range(3 * _CHUNK + 5, 1, -1),
)


@pytest.mark.parametrize("bounds", RANGE_BOUNDS, ids=repr)
def test_below_each_takes_a_range_as_its_list(bounds):
    # A range is drawn in lanes, by slices whose ends are their extremes; a list through below.
    # Both give what below gives in turn: the same values, error and state afterwards.
    for seed in (0, 2**64 - 1, 0x0123456789ABCDEF):
        single = SplitMix64(seed)
        values, error = below_in_turn(single, bounds)
        after = single.next_uint64()
        for shape in (bounds, list(bounds)):
            batch = SplitMix64(seed)
            draws = batch.below_each(shape)
            assert list(itertools.islice(draws, len(values))) == values
            if error is None:
                assert next(draws, None) is None
            else:
                with pytest.raises(ValueError) as raised:
                    next(draws)
                assert str(raised.value) == error
            assert batch.next_uint64() == after


def test_below_each_is_lazy():
    # The draws before a bad bound come out before its error, for a list and a range alike.
    for bounds in ([5, 0], range(1, -1, -1)):
        draws = SplitMix64(0).below_each(bounds)
        assert next(draws) == SplitMix64(0).below(bounds[0])
        with pytest.raises(ValueError, match=r"^bound must lie in 1\.\.2\*\*64$"):
            next(draws)


def test_below_each_rejects_a_non_iterable_before_drawing():
    rng = SplitMix64(0)
    with pytest.raises(ValueError, match=r"^bounds must be an iterable of ints, not a NoneType$"):
        rng.below_each(None)
    assert rng.next_uint64() == SplitMix64(0).next_uint64()


MIXERS = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))


def unshift(y, shift):
    """The x with x ^ (x >> shift) == y, fixing ``shift`` more top bits a round."""
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def state_of_output(z):
    """SplitMix64's output function run backwards: the state that outputs z."""
    z = unshift(z, 31)
    for shift, multiplier in reversed(MIXERS):
        z = unshift(z * pow(multiplier, -1, 2**64) & (2**64 - 1), shift)
    return z


@pytest.mark.parametrize("k", (0, 5, _CHUNK - 1, _CHUNK))
def test_below_each_redraws_a_rejected_output(k):
    # A seed whose k-th output is 2**64 - 1, which below(3) rejects (2**64 % 3 == 1).
    seed = (state_of_output(2**64 - 1) - (k + 1) * 0x9E3779B97F4A7C15) % 2**64
    assert list(itertools.islice(ref.splitmix64(seed), k, k + 1)) == [2**64 - 1]
    for bounds in ([3] * (k + 1), [3] * (2 * _CHUNK + 1), range(2 * _CHUNK + 2, 1, -1)):
        outputs, batch = ref.splitmix64(seed), SplitMix64(seed)
        assert list(batch.below_each(bounds)) == [ref.below(outputs, b) for b in bounds]
        assert batch.next_uint64() == next(outputs)  # one output past the bounds: the redraw


# A range, its largest bound b, and the smallest output that below(b) rejects. 2**64 % 2050
# is 16, and adding the chunk's other end, 3, to 2**64 - 16 carries into no bit 64;
# 274177 divides 2**64 + 1, so d + b is 2**64 + 1, one past the carry test's edge.
REJECTED_BY_THE_LARGEST_BOUND = (
    (range(2050, 2, -1), 2050, 2**64 - 16),
    (range(3, 2051), 2050, 2**64 - 16),
    (range(274177, 274172, -1), 274177, 2**64 - 274176),
)


@pytest.mark.parametrize("bounds, bound, output", REJECTED_BY_THE_LARGEST_BOUND)
def test_below_each_tests_a_range_chunk_against_its_largest_bound(bounds, bound, output):
    k = bounds.index(bound)
    seed = (state_of_output(output) - (k + 1) * 0x9E3779B97F4A7C15) % 2**64
    outputs, batch = ref.splitmix64(seed), SplitMix64(seed)
    assert list(batch.below_each(bounds)) == [ref.below(outputs, b) for b in bounds]
    assert batch.next_uint64() == next(outputs)  # one output past the bounds: the redraw


def test_sample_dyck_matches_the_one_draw_at_a_time_sampler():
    cases = [(n, seed) for n in range(61) for seed in range(50)]
    cases += [(n, seed) for n in (1023, 1024, 1025, 5000) for seed in (0, 7, 2**64 - 1)]
    for n, seed in cases:
        assert sample_dyck(n, seed).text == ref.sample_dyck(n, seed), (n, seed)


def test_sample_dyck_trivial_and_deterministic():
    assert str(sample_dyck(0, 99)) == ""
    for seed in range(20):
        assert str(sample_dyck(1, seed)) == "UD"
    assert sample_dyck(9, 424242) == sample_dyck(9, 424242)


def test_sample_dyck_covers_c4():
    seen = {str(sample_dyck(4, seed)) for seed in range(2000)}
    assert seen == {str(w) for w in enumerate_dyck(4)}


def test_sample_dyck_spread_over_c6():
    # Deterministic sweep: all 132 words appear and no word is wildly
    # over- or under-drawn.  (Measured extremes for this fixed generator:
    # max 100, min 52.  A perfectly uniform sampler cannot promise a much
    # tighter max/min ratio at 10000 draws over 132 cells.)
    counts = Counter(str(sample_dyck(6, seed)) for seed in range(10000))
    assert len(counts) == 132
    assert max(counts.values()) / min(counts.values()) < 2.0


def test_shuffle_to_word_step_is_exact():
    # Every Fisher-Yates index sequence (j <= i for i = 2n down to 1) through
    # the cycle-lemma step: each Dyck word arises exactly (2n+1)!/C_n times, so
    # a uniform shuffle gives an exactly uniform word.  The statistical tests
    # above are then left to test SplitMix64's draws.
    for n in range(4):
        sequences = itertools.product(*(range(i + 1) for i in range(2 * n, 0, -1)))
        counts = Counter(_shuffled_dyck(n, indices) for indices in sequences)
        assert sorted(counts) == sorted(str(word) for word in enumerate_dyck(n))
        assert set(counts.values()) == {math.factorial(2 * n + 1) * (n + 1) // math.comb(2 * n, n)}


@given(n=st.integers(0, 10), seed=st.integers(0, 2**64 - 1))
def test_sample_dyck_is_valid_and_reproducible(n, seed):
    word = sample_dyck(n, seed)
    assert word.semilength == n
    assert validate_dyck(word.text) == word
    assert sample_dyck(n, seed) == word


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        list(enumerate_dyck(-1))
    with pytest.raises(ValueError):
        list(enumerate_g(-1))
    with pytest.raises(ValueError):
        list(enumerate_g_restricted(-1))
    with pytest.raises(ValueError):
        list(enumerate_motzkin(-1))
    with pytest.raises(ValueError):
        sample_dyck(-1, 0)
