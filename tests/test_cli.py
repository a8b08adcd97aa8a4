import gzip
import io
import time

import pytest

from permscan import cli
from permscan.avoiders import PatternSet, build_avoiders_basic
from permscan.permcore import format_perm
from permscan.sequences import OeisDb, mine, write_report


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_avoid_catalan(capsys):
    code, out, err = run_cli(capsys, "avoid", "--patterns", "231", "--max-n", "8")
    assert code == 0 and err == ""
    assert out == "1,1\n2,2\n3,5\n4,14\n5,42\n6,132\n7,429\n8,1430\n"


def test_avoid_engines_agree(capsys):
    outs = []
    for engine in ("basic", "fast", "lowmem"):
        code, out, _ = run_cli(capsys, "avoid", "--patterns", "123 321",
                               "--max-n", "6", "--engine", engine)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    assert outs[0].endswith("5,0\n6,0\n")


def test_avoid_single_letter(capsys):
    code, out, _ = run_cli(capsys, "avoid", "--patterns", "1", "--max-n", "3")
    assert code == 0
    assert out == "1,0\n2,0\n3,0\n"


def test_avoid_enumerate_sorted_and_deterministic(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "avoid", "--patterns", "132", "--max-n", "4",
                           "--enumerate")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1,1" and lines[1] == "1,1"
    level3 = [l for l in lines if l.startswith("3,") and len(l) == 5]
    assert level3 == sorted(level3)
    code2, out2, _ = run_cli(capsys, "avoid", "--patterns", "132", "--max-n", "4",
                             "--enumerate")
    assert out2 == out
    target = tmp_path / "avoid.txt"
    code3, out3, _ = run_cli(capsys, "avoid", "--patterns", "132", "--max-n", "4",
                             "--enumerate", "--out", str(target))
    assert code3 == 0 and out3 == ""
    assert target.read_text() == out


# Listing differential matrix: lengths 1 and 2, mixed lengths, the
# Erdos-Szekeres dead levels, and classes whose levels cross the pointer
# step's switch; n = 9 and 10 straddle the digit/space text switch.
LISTING_SETS = ("1", "12", "1 12", "21 123", "123 321", "132 4321", "123 132")


@pytest.mark.parametrize("text", LISTING_SETS)
def test_avoid_enumerate_matches_reference_text(capsys, text):
    """`avoid --enumerate` prints, for both engines and both layouts, the
    basic engine's levels sorted by letters and written with format_perm."""
    k = PatternSet.parse(text).k
    for n in sorted({k - 1, k, k + 1, 9, 10, 11} - {0}):
        levels = build_avoiders_basic(PatternSet.parse(text), n)
        want = "".join(
            f"{m},{len(levels[m])}\n" + "".join(
                f"{m},{format_perm(p)}\n" for p in sorted(levels[m], key=lambda p: p.letters()))
            for m in range(1, n + 1))
        for engine in ("fast", "basic"):
            for wide in ((), ("--wide",)):
                code, out, err = run_cli(capsys, "avoid", "--patterns", text,
                                         "--max-n", str(n), "--enumerate",
                                         "--engine", engine, *wide)
                assert code == 0 and err == ""
                assert out == want, (engine, wide, n)


def test_listing_matrix_crosses_the_switch():
    from permscan.avoiders import _VECTOR_MIN_LEVEL, count_avoiders_fast

    assert max(count_avoiders_fast(PatternSet.parse("123 132"), 11)) >= _VECTOR_MIN_LEVEL
    assert max(count_avoiders_fast(PatternSet.parse("132 4321"), 11)) >= _VECTOR_MIN_LEVEL


def test_listing_line_blocks_do_not_change_bytes(capsys, monkeypatch):
    """Each level is written _LINE_BLOCK sorted rows at a time: blocks of 1,
    3 and 1000 lines and one block per level print the same bytes.  231 at
    n = 10 has 4,862 rows at m = 9 (digits concatenated) and 16,796 at
    m = 10 (space-separated), so blocks of 1, 3 and 1000 end inside both."""
    outs = []
    for block in (1, 3, 1000, 1 << 30):
        monkeypatch.setattr(cli, "_LINE_BLOCK", block)
        for wide in ((), ("--wide",)):
            code, out, err = run_cli(capsys, "avoid", "--patterns", "231", "--max-n", "10",
                                     "--enumerate", *wide)
            assert code == 0 and err == ""
            outs.append(out)
    # one count line and one line per avoider
    assert outs[0].count("\n9,") == 4862 + 1 and outs[0].count("\n10,") == 16796 + 1
    assert "\n10,10 9 8 7 6 5 4 3 2 1\n" in outs[0]
    assert all(out == outs[0] for out in outs)


def test_avoid_enumerate_lowmem_rejected(capsys):
    code, out, err = run_cli(capsys, "avoid", "--patterns", "231", "--max-n", "5",
                             "--enumerate", "--engine", "lowmem")
    assert code == 1 and "enumerate" in err


def test_avoid_oracle_check(capsys):
    code, _, err = run_cli(capsys, "avoid", "--patterns", "231", "--max-n", "6",
                           "--oracle-check")
    assert code == 0 and err == ""
    code, _, err = run_cli(capsys, "avoid", "--patterns", "231", "--max-n", "9",
                           "--oracle-check")
    assert code == 1 and "max-n" in err


def test_avoid_oracle_check_catches_bad_engine(capsys, monkeypatch):
    monkeypatch.setattr(cli.av, "count_avoiders_fast", lambda pat, n: [1] * n)
    code, _, err = run_cli(capsys, "avoid", "--patterns", "231", "--max-n", "5",
                           "--oracle-check")
    assert code == 2 and "FAILED" in err


def test_avoid_enumerate_oracle_check_catches_bad_listing(capsys, monkeypatch):
    real_rows = cli.av.avoider_rows

    def reversed_rows(pat, n):
        # reversed 231-avoiders avoid 132: right counts, wrong sets
        for letters, maps in real_rows(pat, n):
            yield letters[:, ::-1], maps

    monkeypatch.setattr(cli.av, "avoider_rows", reversed_rows)
    code, _, err = run_cli(capsys, "avoid", "--patterns", "231", "--max-n", "5",
                           "--enumerate", "--oracle-check")
    assert code == 2 and "avoider set at n=3" in err


def test_count_rows(capsys):
    code, out, _ = run_cli(capsys, "count", "--patterns", "12", "--max-n", "2")
    assert code == 0
    assert out == "length,hits,multiplicity\n1,0,1\n2,0,1\n2,1,1\n"


def test_count_histogram_flag_and_sum(capsys):
    code, out, _ = run_cli(capsys, "count", "--patterns", "123", "--max-n", "4",
                           "--histogram")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    level4 = [(int(h), int(c)) for (m, h, c) in rows if m == "4"]
    assert sum(h * c for h, c in level4) == 16


def test_count_engines(capsys):
    outs = []
    for engine in ("standard", "single-fast", "lowmem", "auto"):
        code, out, _ = run_cli(capsys, "count", "--patterns", "2413",
                               "--max-n", "6", "--engine", engine)
        assert code == 0
        outs.append(out)
    assert len(set(outs)) == 1
    code, _, err = run_cli(capsys, "count", "--patterns", "12 21",
                           "--max-n", "4", "--engine", "single-fast")
    assert code == 1 and "single" in err


def test_count_oracle_check(capsys):
    code, _, err = run_cli(capsys, "count", "--patterns", "132 321",
                           "--max-n", "5", "--oracle-check")
    assert code == 0 and err == ""


@pytest.mark.parametrize("argv,engine", [
    (["avoid", "--patterns", "231", "--max-n", "9"], "count_avoiders_fast"),
    (["avoid", "--patterns", "231", "--max-n", "9", "--engine", "lowmem"],
     "count_avoiders_lowmem"),
    (["avoid", "--patterns", "231", "--max-n", "9", "--enumerate"], "avoider_rows"),
    (["count", "--patterns", "1342 2413", "--max-n", "11"], "count_all"),
    (["count", "--patterns", "123", "--max-n", "12"], "count_all_lowmem"),
])
def test_oracle_check_refuses_max_n_before_the_engine(capsys, monkeypatch, argv, engine):
    def engine_ran(*args, **kwargs):
        raise AssertionError("the engine ran before --max-n was checked")

    module = cli.av if argv[0] == "avoid" else cli.ct
    monkeypatch.setattr(module, engine, engine_ran)
    code, out, err = run_cli(capsys, *argv, "--oracle-check")
    assert code == 1 and "max-n" in err and out == ""


def test_vincular_count(capsys):
    code, out, _ = run_cli(capsys, "vincular-count", "--pattern", "123",
                           "--adjacencies", "0,2", "--max-n", "6")
    assert code == 0
    assert out.splitlines()[0] == "length,hits,multiplicity"
    # levels 1..6 all present and multiplicities per level sum to m!
    import math
    sums = {}
    for line in out.splitlines()[1:]:
        m, h, c = map(int, line.split(","))
        sums[m] = sums.get(m, 0) + c
    assert sums == {m: math.factorial(m) for m in range(1, 7)}
    code, _, err = run_cli(capsys, "vincular-count", "--pattern", "123",
                           "--adjacencies", "9", "--max-n", "4")
    assert code == 1
    code, _, err = run_cli(capsys, "vincular-count", "--pattern", "123",
                           "--adjacencies", "x", "--max-n", "4")
    assert code == 1


def test_mine_cli(capsys, tmp_path):
    stripped = tmp_path / "stripped.gz"
    with gzip.open(stripped, "wt") as fh:
        fh.write("A000108 ,1,1,2,5,14,42,132,429,1430,4862,16796,58786,208012,742900,\n")
    code, out, _ = run_cli(capsys, "mine", "--pattern-length", "3",
                           "--min-set-size", "1", "--max-n", "10",
                           "--oeis", str(stripped))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "canonical_patterns,terms,degree,oeis_anum,shift"
    catalan = [l for l in lines if l.startswith("123,")]
    assert catalan and ",A000108,5" in catalan[0]


def test_mine_rejects_degenerate_lookup_args(capsys):
    for flag, value in (("--min-overlap", "0"), ("--min-overlap", "-3"),
                        ("--max-shift", "-1")):
        code, out, err = run_cli(capsys, "mine", "--pattern-length", "3",
                                 "--max-n", "10", flag, value)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and flag[2:].replace("-", "_") in err


def test_mine_progress_leaves_stdout_unchanged(capsys, monkeypatch, tmp_path):
    line = "A000108 ,1,1,2,5,14,42,132,429,1430,4862,16796,58786,208012,742900,\n"
    stripped = tmp_path / "stripped"
    stripped.write_text(line)
    argv = ("mine", "--pattern-length", "3", "--min-set-size", "1",
            "--max-n", "10", "--oeis", str(stripped))
    expected = io.StringIO()
    write_report(mine(3, 1, 10, OeisDb.parse([line])), expected)

    t0 = time.monotonic()
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and out == expected.getvalue()
    if time.monotonic() - t0 < cli.PROGRESS_INTERVAL_S:
        assert err == ""

    monkeypatch.setattr(cli, "PROGRESS_INTERVAL_S", 0.0)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and out == expected.getvalue()
    lines = err.splitlines()
    assert len(lines) == 19  # one per class when every call may report
    assert lines[-1].startswith("mine: 19 classes in ")

def test_mine_final_line_splits_counting_and_lookup(capsys, monkeypatch, tmp_path):
    """A run that lasts a progress interval ends with a stderr line for the
    last class that splits the time into counting and lookup; stdout keeps
    its bytes."""
    import itertools
    import re
    import types

    line = "A000108 ,1,1,2,5,14,42,132,429,1430,4862,16796,58786,208012,742900,\n"
    stripped = tmp_path / "stripped"
    stripped.write_text(line)
    expected = io.StringIO()
    write_report(mine(3, 1, 10, OeisDb.parse([line])), expected)

    # a clock that reads one second later at every call: 19 classes take 20 s
    clock = itertools.count()
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(monotonic=lambda: next(clock)))
    monkeypatch.setattr(cli, "PROGRESS_INTERVAL_S", 5.0)
    code, out, err = run_cli(capsys, "mine", "--pattern-length", "3", "--min-set-size", "1",
                             "--max-n", "10", "--oeis", str(stripped))
    assert code == 0 and out == expected.getvalue()
    lines = err.splitlines()
    assert [ln.split(" classes")[0] for ln in lines] == \
        ["mine: 5", "mine: 10", "mine: 15", "mine: 19"]
    last = re.fullmatch(r"mine: 19 classes in 20\.0s \(0\.9 classes/s; "
                        r"counting (\d+\.\d)s, lookup (\d+\.\d)s\)", lines[-1])
    assert last is not None, lines[-1]



def test_mine_rejects_max_n_below_first_term(capsys, tmp_path):
    """Sequences start at n = 5: a shorter run is refused before anything is
    counted or written, as ``avoidance_record`` refuses it."""
    code, out, err = run_cli(capsys, "mine", "--pattern-length", "3", "--max-n", "4")
    assert code == 1 and out == ""
    assert err == "error: n_max must be at least 5\n"
    out_path = tmp_path / "mine.csv"
    code, _, err = run_cli(capsys, "mine", "--pattern-length", "3", "--max-n", "26",
                           "--out", str(out_path))
    assert code == 1 and "n=26" in err and not out_path.exists()

def test_bench_format(capsys):
    code, out, _ = run_cli(capsys, "bench", "--algos", "fast,oracle",
                           "--patterns", "2431", "--max-n", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "algorithm,n,seconds,work,last_level"
    assert len(lines) == 3
    assert lines[1].startswith("fast,6,") and lines[2].startswith("oracle,6,")
    # both report the same avoider count at the final level
    assert lines[1].rsplit(",", 1)[1] == lines[2].rsplit(",", 1)[1]
    code, _, err = run_cli(capsys, "bench", "--algos", "nope",
                           "--patterns", "231", "--max-n", "4")
    assert code == 1


def test_bench_oracle_work_is_subsequences_examined(capsys):
    code, out, _ = run_cli(capsys, "bench", "--algos", "oracle",
                           "--patterns", "2431", "--max-n", "6")
    assert code == 0
    algo, n, _, work, last = out.splitlines()[1].split(",")
    assert (algo, n, work, last) == ("oracle", "6", "10594", "512")


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "avoid", "--patterns", "1x2", "--max-n", "4")
    assert code == 1
    code, _, _ = run_cli(capsys, "avoid", "--max-n", "4")
    assert code == 1
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 1
    code, _, err = run_cli(capsys, "avoid", "--patterns", "231", "--max-n", "4",
                           "--threads", "0")
    assert code == 1
    code, _, err = run_cli(capsys, "avoid", "--patterns", "231", "--max-n", "40")
    assert code == 1


def test_wide_mode(capsys):
    code, out, _ = run_cli(capsys, "avoid", "--patterns", "123 321",
                           "--max-n", "16")
    assert code == 0
    assert out.splitlines()[-1] == "16,0"
    code, out2, _ = run_cli(capsys, "avoid", "--patterns", "123 321",
                            "--max-n", "10", "--wide")
    assert code == 0


def test_mine_checks_lookup_args_before_reading_the_dump(capsys):
    code, out, err = run_cli(capsys, "mine", "--min-overlap", "0", "--oeis", "/nonexistent",
                             "--pattern-length", "3", "--max-n", "10")
    assert code == 1 and out == ""
    assert err.startswith("error: min_overlap") and "No such file" not in err
