"""Seeded synthetic OEIS 'stripped' file.

The real dump is not in the repository, so the sweep workload looks up its
sequences in a synthetic one written in the real line format::

    # header lines
    A000045 ,0,1,1,2,3,5,8,13,21,34,55,89,144,233,377,610,987,

Entries hold 10 to 40 terms.  ``ENTRIES`` is about a tenth of the real
dump's entry count, so a lookup that misses costs about a second with the
linear-scan matcher.  Known avoidance sequences are planted at seeded
A-numbers and shifts 0..14, so hits, shifted hits and misses all occur.
Random entries are drawn so that a chance match with an avoidance sequence
is vanishingly unlikely; the checks do not rely on that, they match every
query against the whole file with an independent index
(``checks.ReferenceMatcher``).
"""

from __future__ import annotations

import random

ENTRIES = 37_000
ANUM_SPACE = 370_000   # A-numbers are drawn from 1..ANUM_SPACE, as in the real dump
KNOWN_ANUM_LIMIT = 10_000
MAX_SHIFT = 14
MIN_TERMS, MAX_TERMS = 10, 40
FIRST_N = 5            # planted sequences start at the value for n = 5


def _catalan(n: int) -> int:
    c = 1
    for i in range(n):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c


def _fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _large_schroeder(n: int) -> int:
    r = [1, 2]
    while len(r) <= n:
        m = len(r)
        r.append((3 * (2 * m - 1) * r[m - 1] - (m - 2) * r[m - 2]) // (m + 1))
    return r[n]


# |Av_n| for n >= 1 of classes whose sequences are in the real OEIS:
# Av(123), Av(123, 132), Av(123, 132, 213) and Av(2413, 3142).
KNOWN = {
    "catalan": lambda n: _catalan(n),
    "powers_of_2": lambda n: 2 ** (n - 1),
    "fibonacci": lambda n: _fibonacci(n + 1),
    "large_schroeder": lambda n: _large_schroeder(n - 1),
}


def _random_terms(rng: random.Random, count: int) -> list[int]:
    kind = rng.random()
    if kind < 0.4:      # noisy exponential growth
        a = rng.randint(0, 30)
        r = rng.uniform(1.1, 5.0)
        out = []
        for _ in range(count):
            out.append(a)
            a = int(a * r) + rng.randint(1, 97)
        return out
    if kind < 0.6:      # digit-like small values
        return [rng.randint(0, 9) for _ in range(count)]
    if kind < 0.75:     # signed random walk
        a = rng.randint(-50, 50)
        out = []
        for _ in range(count):
            out.append(a)
            a += rng.randint(-1000, 1000)
        return out
    if kind < 0.9:      # polynomial with large coefficients
        c = [rng.randint(100, 10_000) for _ in range(3)]
        start = rng.randint(0, 5)
        return [c[0] + c[1] * i + c[2] * i * i for i in range(start, start + count)]
    return [rng.randint(0, 10**12) for _ in range(count)]


def write_stripped(path: str, seed: int) -> list[dict]:
    """Write the synthetic file; return one record per planted entry,
    ``{"name", "anum", "shift", "terms"}``.

    The known sequences go to seeded A-numbers below A010000, where the
    real dump has them (A000045, A000079, A000108, A006318), so a lookup
    that finds one stops early in the scan, as it would on the real dump.
    """
    rng = random.Random(f"oeis-{seed}")
    anums = sorted(rng.sample(range(1, ANUM_SPACE + 1), ENTRIES))
    early = [slot for slot, anum in enumerate(anums) if anum < KNOWN_ANUM_LIMIT]
    planted = {}
    for (name, f), slot in zip(KNOWN.items(), rng.sample(early, len(KNOWN))):
        shift = rng.randint(0, MAX_SHIFT)
        filler = [rng.randint(0, 9) for _ in range(shift)]
        values = [f(n) for n in range(FIRST_N, FIRST_N + MAX_TERMS - shift)]
        planted[slot] = {"name": name, "anum": anums[slot], "shift": shift,
                         "terms": filler + values}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# OEIS Sequence Data (synthetic, seed {seed})\n")
        fh.write("# Same line format as the OEIS 'stripped' file; not real OEIS data.\n")
        fh.write(f"# {ENTRIES} entries\n")
        for slot, anum in enumerate(anums):
            if slot in planted:
                terms = planted[slot]["terms"]
            else:
                terms = _random_terms(rng, rng.randint(MIN_TERMS, MAX_TERMS))
            fh.write(f"A{anum:06d} ," + ",".join(map(str, terms)) + ",\n")
    return [planted[s] for s in sorted(planted)]
