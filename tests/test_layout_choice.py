"""The word layout follows n and the longest pattern: a pattern longer than
15 letters is read on WIDE even when n alone would fit NIBBLE."""

import pytest

from permscan import cli
from permscan.permcore import WIDE, PackedPerm
from permscan.sequences import avoidance_record

DESC16 = "[" + " ".join(map(str, range(16, 0, -1))) + "]"
ASC16 = "[" + " ".join(map(str, range(1, 17))) + "]"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["avoid", "--patterns", DESC16, "--max-n", "5"],
    ["avoid", "--patterns", f"231 {ASC16}", "--max-n", "6", "--enumerate"],
    ["avoid", "--patterns", DESC16, "--max-n", "6", "--engine", "basic"],
    ["avoid", "--patterns", DESC16, "--max-n", "6", "--engine", "lowmem"],
    ["count", "--patterns", DESC16, "--max-n", "5"],
    ["count", "--patterns", f"12 {DESC16}", "--max-n", "7", "--engine", "lowmem"],
    ["count", "--patterns", DESC16, "--max-n", "6", "--oracle-check"],
    ["vincular-count", "--pattern", DESC16[1:-1], "--adjacencies", "0", "--max-n", "5"],
])
def test_long_pattern_prints_what_wide_prints(capsys, argv):
    wide = run_cli(capsys, *argv, "--wide")
    assert wide[0] == 0 and wide[2] == ""
    assert run_cli(capsys, *argv) == wide


def test_long_pattern_avoid_counts_every_permutation(capsys):
    code, out, err = run_cli(capsys, "avoid", "--patterns", DESC16, "--max-n", "5")
    assert (code, err) == (0, "")
    assert out == "1,1\n2,2\n3,6\n4,24\n5,120\n"


def test_long_pattern_bench_rows(capsys):
    code, out, _ = run_cli(capsys, "bench", "--algos", "fast,basic,lowmem,oracle",
                           "--patterns", DESC16, "--max-n", "5")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(algo, n, last) for algo, n, _, _, last in rows] == [
        ("fast", "5", "120"), ("basic", "5", "120"), ("lowmem", "5", "120"),
        ("oracle", "5", "120")]


def test_pattern_beyond_wide_still_refused(capsys):
    too_long = "[" + " ".join(map(str, range(1, 27))) + "]"
    code, out, err = run_cli(capsys, "avoid", "--patterns", too_long, "--max-n", "5")
    assert (code, out) == (1, "") and "exceeds capacity 25" in err


def test_avoidance_record_of_long_pattern():
    rec = avoidance_record([PackedPerm.from_letters(range(16, 0, -1), WIDE)], 6)
    assert rec.terms == (120, 720)
