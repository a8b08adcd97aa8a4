import random
from itertools import permutations

import pytest

from permscan.permcore import NIBBLE, PackedPerm, insert_up


def all_perms(m, layout=NIBBLE):
    return [PackedPerm.from_letters(t, layout) for t in permutations(range(1, m + 1))]


def perms_upto(n, layout=NIBBLE):
    out = []
    for m in range(1, n + 1):
        out.extend(all_perms(m, layout))
    return out


def max_insertion_stream(n, layout=NIBBLE):
    """Every permutation of lengths 1..n, level by level; each level inserts
    the new maximum into every position of each member of the level below."""
    out, level = [], [PackedPerm.empty(layout)]
    for _ in range(n):
        level = [insert_up(p, i) for p in level for i in range(1, p.length + 2)]
        out.extend(level)
    return out


@pytest.fixture(scope="session")
def s4_patterns():
    return all_perms(4)


@pytest.fixture(scope="session")
def s3_patterns():
    return all_perms(3)


def random_pattern_sets(pool, count, seed, max_size=8):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        size = rng.randint(1, max_size)
        out.append(tuple(rng.sample(pool, size)))
    return out
