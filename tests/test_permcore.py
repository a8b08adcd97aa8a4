import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permscan.permcore import (
    NIBBLE,
    WIDE,
    PackedPerm,
    PartialInverse,
    PermCapacityError,
    PermLayout,
    complement_perm,
    delete_down,
    delete_down_next,
    deletion_chain,
    format_perm,
    full_inverse,
    get_letter,
    insert_up,
    inverse_perm,
    kill_pos,
    layout_for,
    max_insertion_inverses,
    parse_perm,
    reverse_perm,
    standardize,
    unpack,
    upfix,
    upfix_standardize_scan,
    update_inverse,
)
from conftest import all_perms, perms_upto

perm_strategy = st.integers(1, 8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))))


def test_standardize_golden():
    assert str(standardize([5, 3, 9, 7])) == "2143"
    assert str(standardize([1, 2, 3])) == "123"
    assert str(standardize([9, 7, 5, 3])) == "4321"


def test_standardize_rejects_duplicates_and_overflow():
    with pytest.raises(ValueError):
        standardize([1, 1, 2])
    with pytest.raises(PermCapacityError):
        standardize(range(100, 120))


@given(perm_strategy)
def test_standardize_fixes_permutations(letters):
    p = PackedPerm.from_letters(letters)
    assert standardize(letters) == p


@given(st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=12, unique=True))
def test_standardize_order_isomorphic(letters):
    p = standardize(letters)
    out = p.letters()
    for i in range(len(letters)):
        for j in range(len(letters)):
            assert (letters[i] < letters[j]) == (out[i] < out[j])


def test_insert_delete_golden():
    p = parse_perm("13524")
    assert str(insert_up(p, 2)) == "163524"
    assert str(delete_down(p, 2)) == "1342"
    assert str(insert_up(parse_perm("1"), 1)) == "21"
    assert str(insert_up(parse_perm("1"), 2)) == "12"
    assert str(delete_down(parse_perm("123"), 1)) == "12"


def test_insert_up_bounds():
    p = parse_perm("21")
    with pytest.raises(IndexError):
        insert_up(p, 4)
    with pytest.raises(IndexError):
        delete_down(p, 3)
    full = PackedPerm.identity(15)
    with pytest.raises(PermCapacityError):
        insert_up(full, 1)


@given(perm_strategy, st.integers(1, 9))
def test_round_trip_insert_then_delete(letters, i):
    p = PackedPerm.from_letters(letters)
    if i > p.length + 1:
        i = (i - 1) % (p.length + 1) + 1
    assert delete_down(insert_up(p, i), 1) == p


def test_kill_pos_matches_block_splice():
    rng = random.Random(0xBEEF)
    b, mask = NIBBLE.bits, NIBBLE.mask
    for _ in range(100_000):
        n = rng.randint(1, 15)
        word = rng.getrandbits(b * n)
        i = rng.randint(1, n)
        blocks = [(word >> (b * t)) & mask for t in range(n)]
        del blocks[i - 1]
        expected = 0
        for t, v in enumerate(blocks):
            expected |= v << (b * t)
        assert kill_pos(word, i, NIBBLE) == expected


def test_kill_pos_golden():
    p = parse_perm("13524")
    # killing the block of letter 5 keeps the remaining letters raw
    assert unpack(kill_pos(p.word, 3, NIBBLE), 4, NIBBLE) == (1, 3, 2, 4)
    assert kill_pos(parse_perm("1").word, 1, NIBBLE) == 0
    assert unpack(kill_pos(parse_perm("21").word, 2, NIBBLE), 1, NIBBLE) == (2,)


def test_delete_down_next_chain_exhaustive():
    for n in range(2, 8):
        for p in all_perms(n):
            inv = PartialInverse.from_perm(p)
            prev = delete_down(p, 1)
            for i in range(1, n):
                nxt = delete_down_next(p, prev, inv, i)
                assert nxt == delete_down(p, i + 1), (str(p), i)
                prev = nxt


def test_delete_down_next_requires_depth():
    p = parse_perm("4321")
    inv = PartialInverse.from_perm(p, depth=1)
    with pytest.raises(ValueError):
        delete_down_next(p, delete_down(p, 1), inv, 1)
    with pytest.raises(IndexError):
        delete_down_next(parse_perm("21"), delete_down(parse_perm("21"), 1),
                         PartialInverse.from_perm(parse_perm("21")), 2)


def test_partial_inverse_agrees_with_full():
    # maintained along the insertion tree at several validity depths
    for depth in (3, 5, None):
        level = [(PackedPerm.from_letters([1]), PartialInverse.from_perm(
            PackedPerm.from_letters([1]), depth))]
        for m in range(1, 8):
            nxt = []
            for p, inv in level:
                for i in range(1, m + 2):
                    child = insert_up(p, i)
                    cinv = update_inverse(inv, p, i, keep=depth)
                    want = full_inverse(child)
                    for v in range(child.length - cinv.valid_count + 1,
                                   child.length + 1):
                        assert cinv.position_of(v, child.layout) == \
                            want.letter(v), (str(child), depth, v)
                    if m + 1 < 8:
                        nxt.append((child, cinv))
            level = nxt


def test_update_inverse_golden():
    p = parse_perm("12")
    inv = PartialInverse.from_perm(p)
    out = update_inverse(inv, p, 2)
    assert unpack(out.word, 3, NIBBLE) == (1, 3, 2)  # inverse of 132
    p = parse_perm("312")
    out = update_inverse(PartialInverse.from_perm(p), p, 4)
    assert unpack(out.word, 4, NIBBLE) == (2, 3, 1, 4)  # inverse of 3124


def test_upfix_golden():
    assert str(upfix(parse_perm("15234"), 3)) == "312"
    assert str(upfix(parse_perm("13524"), 2)) == "21"
    assert upfix(parse_perm("321"), 0).length == 0


def test_upfix_scan_matches_brute_force():
    for n in range(1, 8):
        for p in all_perms(n):
            inv = PartialInverse.from_perm(p)
            seen = {}
            upfix_standardize_scan(
                p, inv, n,
                lambda i, w: seen.__setitem__(i, w) or True)
            for i in range(1, n + 1):
                assert seen[i] == upfix(p, i).word, (str(p), i)


def test_upfix_scan_stops_at_first_failure():
    p = parse_perm("15234")
    inv = PartialInverse.from_perm(p)
    table = {upfix(parse_perm("312"), i).word for i in range(1, 4)}
    got = upfix_standardize_scan(p, inv, 3, lambda i, w: w in table)
    assert got == 3
    p = parse_perm("21")
    inv = PartialInverse.from_perm(p)
    table12 = {upfix(parse_perm("12"), i).word for i in range(1, 3)}
    assert upfix_standardize_scan(p, inv, 2, lambda i, w: w in table12) == 1


def test_packed_words_canonical():
    # word equality is permutation equality across all of S_<=8
    words = [p.word for p in perms_upto(8)]
    assert len(set(words)) == len(words)


def test_parse_and_format():
    assert str(parse_perm("13524")) == "13524"
    assert parse_perm("1 3 5 2 4") == parse_perm("13524")
    assert parse_perm("1,3,5,2,4") == parse_perm("13524")
    long = parse_perm("10 9 8 7 6 5 4 3 2 1 11")
    assert format_perm(long) == "10 9 8 7 6 5 4 3 2 1 11"
    assert parse_perm(format_perm(long)) == long
    for bad in ("", "0", "11", "1 2 2", "x", "1.5"):
        with pytest.raises(ValueError):
            parse_perm(bad)


def test_layouts():
    assert layout_for(15) is NIBBLE
    assert layout_for(16) is WIDE
    with pytest.raises(PermCapacityError):
        layout_for(26)
    with pytest.raises(ValueError):
        PermLayout(bits=4, capacity=16)
    p = PackedPerm.identity(16, WIDE)
    assert p.letter(16) == 16
    assert parse_perm(format_perm(p), WIDE) == p
    with pytest.raises(PermCapacityError):
        PackedPerm.identity(16, NIBBLE)


def test_empty_perm_is_valid():
    e = PackedPerm.empty()
    assert e.word == 0 and e.length == 0
    assert insert_up(e, 1) == parse_perm("1")


def test_symmetry_transforms():
    p = parse_perm("13524")
    assert str(reverse_perm(p)) == "42531"
    assert str(complement_perm(p)) == "53142"
    assert str(inverse_perm(p)) == "14253"
    for q in perms_upto(5):
        assert inverse_perm(inverse_perm(q)) == q
        assert reverse_perm(reverse_perm(q)) == q
        assert complement_perm(complement_perm(q)) == q
        assert reverse_perm(complement_perm(q)) == complement_perm(reverse_perm(q))


@settings(max_examples=200)
@given(perm_strategy)
def test_full_inverse(letters):
    p = PackedPerm.from_letters(letters)
    inv = full_inverse(p)
    for i, v in enumerate(letters, start=1):
        assert inv.letter(v) == i


def test_upfix_bitmap_type():
    from permscan.permcore import UpfixBitmap

    b = UpfixBitmap()
    assert b.size() == 0
    b = b.mark(3).mark(1)
    assert b.size() == 2
    assert b.marked(1) and b.marked(3) and not b.marked(2)
    assert b.rank_below(3) == 1 and b.rank_below(1) == 0 and b.rank_below(5) == 2


# ---------------------------------------------------------------------------
# the raw-word chain and inverse step against the letter-scan references

def _stale(inv_word, n, depth, layout, rng):
    """inv_word with random positions in the blocks below its top depth
    values, which the raw-word helpers must neither read nor need."""
    for v in range(1, n - depth + 1):
        inv_word |= rng.randint(1, n) << (layout.bits * (v - 1))
    return inv_word


def _check_chain(p, depth, inv_word, want):
    n, layout = p.length, p.layout
    chain = deletion_chain(p.word, n, inv_word, depth, layout)
    assert chain == want[:depth + 1], (str(p), depth)
    assert all(d >> (layout.bits * max(n - 1, 0)) == 0 for d in chain[1:]), (str(p), depth)


def _chain_reference(p):
    return [p.word] + [delete_down(p, r).word for r in range(1, p.length + 1)]


@pytest.mark.parametrize("layout", [NIBBLE, WIDE], ids=["nibble", "wide"])
def test_deletion_chain_matches_delete_down_exhaustive(layout):
    for n in range(0, 8):
        for p in all_perms(n, layout):
            want = _chain_reference(p)
            for depth in range(n + 1):
                _check_chain(p, depth, PartialInverse.from_perm(p, depth).word, want)
            inv_word = PartialInverse.from_perm(p).word
            for start in range(n + 1):
                assert deletion_chain(want[start], n, inv_word, n, layout, start) == \
                    want[start:], (str(p), start)


@pytest.mark.parametrize("layout", [NIBBLE, WIDE], ids=["nibble", "wide"])
def test_deletion_chain_at_capacity(layout):
    rng = random.Random(layout.capacity)
    n = layout.capacity
    for _ in range(40):
        letters = list(range(1, n + 1))
        rng.shuffle(letters)
        p = PackedPerm.from_letters(letters, layout)
        want = _chain_reference(p)
        for depth in range(n + 1):
            inv_word = _stale(PartialInverse.from_perm(p, depth).word, n, depth, layout, rng)
            _check_chain(p, depth, inv_word, want)


def _check_children(p, depth, inv_word):
    """Each child's inverse agrees with full_inverse in its top
    min(depth, n+1) values and has no block above its length."""
    n, layout = p.length, p.layout
    out = max_insertion_inverses(inv_word, n, depth, layout)
    assert len(out) == n + 1
    for i, child_inv in enumerate(out, start=1):
        want = full_inverse(insert_up(p, i))
        for v in range(n + 2 - min(depth, n + 1), n + 2):
            assert get_letter(child_inv, v, layout) == want.letter(v), (str(p), depth, i, v)
        assert child_inv >> (layout.bits * (n + 1)) == 0, (str(p), depth, i)


@pytest.mark.parametrize("layout", [NIBBLE, WIDE], ids=["nibble", "wide"])
def test_max_insertion_inverses_match_full_inverse_exhaustive(layout):
    for n in range(0, 7):
        for p in all_perms(n, layout):
            for depth in range(n + 3):
                _check_children(p, depth, PartialInverse.from_perm(p, max(depth - 1, 0)).word)


@pytest.mark.parametrize("layout", [NIBBLE, WIDE], ids=["nibble", "wide"])
def test_max_insertion_inverses_at_capacity(layout):
    rng = random.Random(layout.capacity)
    n = layout.capacity - 1  # the children fill the layout
    for _ in range(40):
        letters = list(range(1, n + 1))
        rng.shuffle(letters)
        p = PackedPerm.from_letters(letters, layout)
        for depth in range(n + 2):
            valid = max(depth - 1, 0)
            inv_word = _stale(PartialInverse.from_perm(p, valid).word, n, valid, layout, rng)
            _check_children(p, depth, inv_word)
