"""The dense counting engines' base levels and their top levels.

``counting._membership_vector`` sets each length-m pattern's entry from its
insertion code; here it is compared with the vector built from all m! words
of the level.  The engines are then run with k in {n-1, n}, where level n or
n-1 is a membership level, against ``count_downset`` over the max-insertion
stream."""

import random
from math import factorial

import numpy as np
import pytest

from permscan.avoiders import PatternSet
from permscan.counting import _membership_vector, count_all, count_all_lowmem, count_downset
from permscan.permcore import NIBBLE, WIDE, PackedPerm, format_perm, insert_pos
from permscan.vincular import CovincularPattern, covincular_count_all, covincular_count_downset
from conftest import max_insertion_stream


def word_built_vector(pat, m):
    """[word in Pi] over level m: every word built by inserting each new
    maximum t at positions 1..t in turn, which is insertion-code order."""
    words = [0]
    for t in range(1, m + 1):
        words = [insert_pos(w, i, t, pat.layout) for w in words for i in range(1, t + 1)]
    return np.array([w in pat.words for w in words], dtype=np.int32)


def random_pattern_text(rng, length):
    return format_perm(PackedPerm.from_letters(rng.sample(range(1, length + 1), length)))


def membership_sets():
    rng = random.Random(20)
    single = [random_pattern_text(rng, length) for length in range(1, 9) for _ in range(3)]
    mixed = [" ".join(random_pattern_text(rng, rng.randint(1, 8)) for _ in range(size))
             for size in (2, 3, 4) for _ in range(4)]
    return single + mixed + ["1 21", "12 1234567", "21 123 4321 87654321"]


@pytest.mark.parametrize("layout", [NIBBLE, WIDE], ids=["nibble", "wide"])
@pytest.mark.parametrize("text", membership_sets())
def test_membership_vector_matches_word_built(text, layout):
    pat = PatternSet.parse(text, layout)
    for m in range(1, pat.k + 1):
        got = _membership_vector(pat, m)
        assert got.dtype == np.int32 and got.shape == (factorial(m),)
        assert np.array_equal(got, word_built_vector(pat, m)), (text, m)


@pytest.fixture(scope="module")
def streams():
    return {layout: [(p, None) for p in max_insertion_stream(8, layout)]
            for layout in (NIBBLE, WIDE)}


def stream_upto(stream, n):
    return [host for host in stream if host[0].length <= n]


@pytest.mark.parametrize("layout", [NIBBLE, WIDE], ids=["nibble", "wide"])
@pytest.mark.parametrize("text", ["12 1234567", "21 2413 7654321", "1 3142 1243675",
                                  "132 12345678", "21 85274163"])
def test_counting_engines_at_k_near_n(text, layout, streams):
    pat = PatternSet.parse(text, layout)
    for n in (pat.k - 1, pat.k):
        want = count_downset(stream_upto(streams[layout], n), pat).by_length
        assert count_all(pat, n).by_length == want, (n, "count_all")
        assert count_all_lowmem(pat, n).by_length == want, (n, "count_all_lowmem")


@pytest.mark.parametrize("layout", [NIBBLE, WIDE], ids=["nibble", "wide"])
@pytest.mark.parametrize("text,adjacencies", [
    ("1234567", ()), ("3517246", (0,)), ("3517246", (2, 7)), ("1234567", (0, 3, 6)),
    ("52814736", ()), ("52814736", (1, 8)),
])
def test_covincular_count_all_at_k_near_n(text, adjacencies, layout, streams):
    pattern = PackedPerm.from_letters(map(int, text), layout)
    cov = CovincularPattern(pattern, frozenset(adjacencies))
    for n in (cov.k - 1, cov.k):
        hosts = stream_upto(streams[layout], n)
        want = covincular_count_downset(hosts, cov).by_length
        if not adjacencies:
            assert count_downset(hosts, PatternSet.build([pattern])).by_length == want
        assert covincular_count_all(cov, n).by_length == want, n
