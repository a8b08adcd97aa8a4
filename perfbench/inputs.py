"""Seeded inputs for the three workloads.

A plan is a list of rounds; a round is a fixed mix of ops, one per slot, and
each slot draws its input from a menu in ``expected.json`` (a narrow band of
similar cost) and hands permscan a seeded symmetric image of it.  Runs
execute whole rounds, so every seed and every run length sees the same mix.
The seed is the only source of randomness: the same seed gives the same
plan and the same synthetic OEIS file, byte for byte.

This module does not import permscan; the program under test receives only
the generated inputs.
"""

from __future__ import annotations

import random
from math import factorial

import oeisgen
import symmetry as sym

WORKLOADS = ("avoid", "count", "sweep")
ROUNDS = 48            # rounds per plan; a run that finishes them starts over

# avoid: (menu, ops per round).  Every menu is a cost band of about 0.45 s
# per op at the seed commit: nibble ops count on the numpy path, wide16
# counts on the WIDE layout's Python level loop, enum14 lists avoiders.
AVOID_SLOTS = [("nibble15", 2), ("nibble14", 2), ("wide16", 2), ("enum14", 1)]

# count: (menu, n, engine) per slot.  auto routes single patterns to
# count_single_fast; n = 8 there and for vincular-count because one n = 9 op
# of either costs about 6 s.
COUNT_SLOTS = [
    ("single", 8, "auto"),
    ("vincular", 8, None),
    ("k3", 10, "standard"),
    ("k3", 10, "lowmem"),
    ("k4", 10, "standard"),
    ("k4", 10, "standard"),
    ("k4", 10, "lowmem"),
    ("any", 9, "standard"),
    ("any", 9, "lowmem"),
]

SWEEP_N = 16
MINE_ARGV = ["mine", "--pattern-length", "3", "--min-set-size", "1", "--max-n", "11"]
# sweep: stratum -> (min work, max work, survives the growth filter, classes
# per round).  Work is the avoiders the count materializes at n = 16.  The
# shares follow the recorded uniform sample of 3000 classes: 86% of classes
# do little work, 9% are larger polynomial classes, 7% grow
# superpolynomially, survive the filter and go to oeis_match (where they
# miss: the synthetic file holds only the known sequences).  Fixed counts
# per round keep the share of lookups and of large classes the same for
# every seed, and narrow bands keep each stratum's op cost alike, so the
# median and tail op times and the throughput vary little with the seed.
# Classes above 60,000 avoiders (2% of the sample; each runs from 0.6 s to
# minutes on the WIDE layout) are not drawn: the WIDE cliff itself is
# measured by the avoid workload's wide16 ops.
SWEEP_STRATA = {
    "tiny": (0, 150, False, 24),
    "small": (1_000, 3_000, False, 2),
    "grow": (3_000, 12_000, True, 1),
    "grow_large": (40_000, 60_000, True, 1),
}


def _avoid_op(entry: dict, rng: random.Random, menu: str, index: int) -> dict:
    g = rng.randrange(8)
    patterns = sym.key(sym.image([tuple(map(int, p)) for p in entry["patterns"].split()], g))
    argv = ["avoid", "--patterns", patterns, "--max-n", str(entry["n"]), "--engine", "fast"]
    if "digests" in entry:      # the enumerate menu records each listing's digest
        argv.append("--enumerate")
    argv += ["--out", "{out}"]
    return {"kind": "cli", "argv": argv, "perms": sum(entry["counts"]), "classes": 1,
            "check": {"type": "avoid", "menu": menu, "index": index, "patterns": patterns}}


def _count_op(menus: dict, slot: tuple, rng: random.Random) -> dict:
    menu, n, engine = slot
    hosts = sum(factorial(m) for m in range(1, n + 1))
    if menu == "vincular":
        index = rng.randrange(len(menus["vincular"]))
        entry = menus["vincular"][index]
        p, adj = sym.covincular_image(tuple(map(int, entry["pattern"])), entry["adjacencies"],
                                      rng.randrange(4))
        argv = ["vincular-count", "--pattern", sym.fmt(p),
                "--adjacencies", ",".join(map(str, adj)), "--max-n", str(n)]
        check = {"type": "vincular", "index": index, "n": n, "pattern": sym.fmt(p),
                 "adjacencies": list(adj)}
    else:
        if menu == "any":
            menu = rng.choice(["k3", "k4"])
        index = rng.randrange(len(menus[menu]))
        entry = menus[menu][index]
        patterns = sym.key(sym.image([tuple(map(int, p)) for p in entry["patterns"].split()],
                                     rng.randrange(8)))
        argv = ["count", "--patterns", patterns, "--max-n", str(n), "--engine", engine]
        check = {"type": "count", "menu": menu, "index": index, "n": n, "patterns": patterns}
    return {"kind": "cli", "argv": argv + ["--out", "{out}"], "perms": hosts, "classes": 1,
            "check": check}


def sweep_strata(pool: list[dict]) -> dict[str, list[int]]:
    """Indices of the recorded sweep classes in each stratum."""
    out: dict[str, list[int]] = {name: [] for name in SWEEP_STRATA}
    for i, entry in enumerate(pool):
        if entry["work"] is None:
            continue
        survives = not (entry["checked"] and entry["degree"] is not None)
        for name, (lo, hi, grows, _) in SWEEP_STRATA.items():
            if grows == survives and lo <= entry["work"] < hi:
                out[name].append(i)
    return out


def make_plan(workload: str, seed: int, root: str, workdir: str, expected: dict) -> dict:
    """The seeded plan of one run; for sweep, also writes the synthetic OEIS
    file into workdir."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}-{seed}")
    plan: dict = {"workload": workload, "seed": seed, "root": root, "workdir": workdir}
    rounds = []
    if workload == "avoid":
        menus = expected["avoid"]
        for _ in range(ROUNDS):
            ops = []
            for menu, per_round in AVOID_SLOTS:
                for _ in range(per_round):
                    index = rng.randrange(len(menus[menu]))
                    ops.append(_avoid_op(menus[menu][index], rng, menu, index))
            rng.shuffle(ops)
            rounds.append(ops)
    elif workload == "count":
        for _ in range(ROUNDS):
            ops = [_count_op(expected["count"], slot, rng) for slot in COUNT_SLOTS]
            rng.shuffle(ops)
            rounds.append(ops)
    else:
        pool = expected["sweep"]
        strata = sweep_strata(pool)
        for _ in range(ROUNDS):
            ops = []
            for name, (_, _, _, per_round) in SWEEP_STRATA.items():
                for _ in range(per_round):
                    index = rng.choice(strata[name])
                    entry = pool[index]
                    ops.append({"kind": "class", "n": SWEEP_N,
                                "patterns": [list(map(int, p))
                                             for p in entry["patterns"].split()],
                                "perms": sum(entry["counts"]), "classes": 1,
                                "check": {"type": "class", "index": index}})
            rng.shuffle(ops)
            rounds.append(ops)
        path = f"{workdir}/stripped"
        planted = oeisgen.write_stripped(path, seed)
        plan["oeis"] = {"path": path, "entries": oeisgen.ENTRIES, "planted": planted}
        mine = {"kind": "cli", "argv": MINE_ARGV + ["--oeis", path, "--out", "{out}"],
                "perms": sum(sum(row["counts"]) for row in expected["mine_k3_n11"]),
                "classes": len(expected["mine_k3_n11"]),
                "check": {"type": "mine"}}
        rounds[0].insert(rng.randrange(len(rounds[0]) + 1), mine)
    plan["rounds"] = rounds
    return plan
