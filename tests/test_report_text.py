"""``sequences.write_report`` serves each pattern's text from a small cache;
the reports must stay byte-identical to joining ``format_perm`` of every
pattern, on both layouts and on both sides of the length-9 switch from
concatenated letters to spaced ones."""

import io
import random

import pytest

from permscan import sequences
from permscan.permcore import NIBBLE, WIDE, PackedPerm, format_perm
from permscan.sequences import MineRow, write_report


def _rows(layout, seed, count=300):
    rng = random.Random(seed)
    lengths = list(range(1, 10)) + list(range(10, layout.capacity + 1))
    pool = []
    for n in rng.sample(lengths, 12) + [9, 10]:
        letters = list(range(1, n + 1))
        rng.shuffle(letters)
        pool.append(PackedPerm.from_letters(letters, layout))
    rows = []
    for _ in range(count):
        degree = rng.choice([None, 0, 2, 3])
        anum = rng.choice([None, rng.randrange(1, 400_000)])
        rows.append(MineRow(
            patterns=tuple(rng.sample(pool, rng.randint(1, 5))),
            terms=tuple(rng.randrange(10 ** 6) for _ in range(rng.randint(0, 6))),
            degree=degree, degree_checked=rng.random() < 0.5, filtered=degree is not None,
            anum=anum, shift=None if anum is None else rng.randrange(15)))
    return rows


def _report(rows):
    buf = io.StringIO()
    write_report(rows, buf)
    return buf.getvalue()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_report_matches_format_perm(monkeypatch, seed):
    rows = _rows(NIBBLE, seed) + _rows(WIDE, seed)
    cached = _report(rows)
    assert _report(rows) == cached  # a warm cache writes the same bytes
    for row, line in zip(rows, cached.splitlines()[1:]):
        assert line.split(",")[0] == " ".join(format_perm(p) for p in row.patterns)
    monkeypatch.setattr(sequences, "_pattern_text", format_perm)
    assert _report(rows) == cached

