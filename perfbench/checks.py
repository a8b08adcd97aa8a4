"""Result checks.  An op fails when it raised, exited non-zero, or produced
output that fails a check; a wrong answer never counts as a fast one.

Engine-independent checks come first: level totals equal m!, the mass
identity, Catalan numbers for single S_3 patterns, the oracle at small n,
planted OEIS entries found at their planted A-number and shift (and every
lookup agreeing with an independent index over the whole synthetic file),
and the S_4 class count.  Outputs they cannot pin down are compared with the
ones recorded at the seed commit (``expected.json``).
"""

from __future__ import annotations

import hashlib
from math import comb, factorial

from oeisgen import KNOWN

S4_CLASSES_MIN5 = 2_137_358     # count_symmetry_classes(4, 5), paper's figure
ORACLE_N = 6                    # levels checked against generate-and-check
REPORT_HEADER = "canonical_patterns,terms,degree,oeis_anum,shift"
FIRST_TERM_N = 5


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


class ReferenceMatcher:
    """The matching rule of ``sequences.oeis_match`` (smallest A-number,
    then smallest shift 0..14; the whole overlap must agree, and it must
    cover the query or at least 8 terms), answered from an index on the
    term at each shift instead of a scan."""

    def __init__(self, path: str, max_shift: int = 14, min_overlap: int = 8):
        self.max_shift, self.min_overlap = max_shift, min_overlap
        self.index: dict[int, list[tuple[int, int, tuple[int, ...]]]] = {}
        self.entries = 0
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("#") or not line.strip():
                    continue
                name, rest = line.split(None, 1)
                terms = tuple(int(t) for t in rest.strip().strip(",").split(","))
                anum = int(name[1:])
                self.entries += 1
                for s in range(min(max_shift + 1, len(terms))):
                    self.index.setdefault(terms[s], []).append((anum, s, terms))

    def match(self, query) -> tuple[int, int] | None:
        q = tuple(query)
        if not q:
            return None
        best = None
        for anum, s, e in self.index.get(q[0], ()):
            overlap = min(len(q), len(e) - s)
            if overlap < min(len(q), self.min_overlap):
                continue
            if e[s:s + overlap] == q[:overlap] and (best is None or (anum, s) < best):
                best = (anum, s)
        return best


def report_line(patterns: str, terms, degree, checked: bool, match) -> str:
    if degree is not None:
        deg = str(degree)
    elif checked:
        deg = "superpolynomial"
    else:
        deg = ""
    anum = f"A{match[0]:06d}" if match else ""
    shift = str(match[1]) if match else ""
    return f"{patterns},{';'.join(map(str, terms))},{deg},{anum},{shift}\n"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _hist(text: str) -> dict[int, dict[int, int]]:
    lines = text.splitlines()
    if not lines or lines[0] != "length,hits,multiplicity":
        raise ValueError("missing histogram header")
    out: dict[int, dict[int, int]] = {}
    for line in lines[1:]:
        m, hits, mult = map(int, line.split(","))
        out.setdefault(m, {})[hits] = mult
    return out


class Checker:
    def __init__(self, expected: dict, plan: dict):
        self.expected = expected
        self.plan = plan
        self.reference = None
        if plan["workload"] == "sweep":
            self.reference = ReferenceMatcher(plan["oeis"]["path"])
        self._oracle: dict = {}     # oracle results per input, for this run

    # -- oracle, cached per input ------------------------------------------------

    def _oracle_avoiders(self, patterns: str) -> list[int]:
        key = ("avoiders", patterns)
        if key not in self._oracle:
            from permscan import avoiders, oracle
            pat = avoiders.PatternSet.parse(patterns)
            levels = oracle.oracle_avoider_levels(pat, ORACLE_N)
            self._oracle[key] = [len(levels[m]) for m in range(1, ORACLE_N + 1)]
        return self._oracle[key]

    def _oracle_hist(self, patterns: str) -> dict:
        key = ("hist", patterns)
        if key not in self._oracle:
            from permscan import avoiders, oracle
            pat = avoiders.PatternSet.parse(patterns)
            self._oracle[key] = oracle.oracle_hit_histogram(pat, ORACLE_N)
        return self._oracle[key]

    def _oracle_covincular(self, pattern: str, adjacencies) -> dict:
        key = ("covincular", pattern, tuple(adjacencies))
        if key not in self._oracle:
            from itertools import permutations

            from permscan import oracle
            from permscan.permcore import PackedPerm, parse_perm
            p = parse_perm(pattern)
            out: dict[int, dict[int, int]] = {}
            for m in range(1, ORACLE_N + 1):
                level = out.setdefault(m, {})
                for t in permutations(range(1, m + 1)):
                    hits = oracle.oracle_count_covincular(PackedPerm.from_letters(t), p,
                                                          set(adjacencies))
                    level[hits] = level.get(hits, 0) + 1
            self._oracle[key] = out
        return self._oracle[key]

    # -- per op --------------------------------------------------------------------

    def setup_problem(self, setup: dict) -> str | None:
        if self.plan["workload"] != "sweep":
            return None
        if setup.get("classes") != S4_CLASSES_MIN5:
            return f"count_symmetry_classes(4, 5) = {setup.get('classes')}"
        if setup.get("entries") != self.plan["oeis"]["entries"]:
            return f"OeisDb.load read {setup.get('entries')} entries"
        if self.reference.entries != self.plan["oeis"]["entries"]:
            return "synthetic OEIS file has the wrong entry count"
        for p in self.plan["oeis"]["planted"]:
            values = p["terms"][p["shift"]:]
            if p["name"] in KNOWN and self.reference.match(values) != (p["anum"], p["shift"]):
                return f"planted {p['name']} is not first at its A-number and shift"
        return None

    def problem(self, op: dict, rec: dict) -> str | None:
        """None when the op passed, else why it failed."""
        if "error" in rec:
            return rec["error"].strip().splitlines()[-1]
        if op["kind"] == "cli":
            if rec.get("rc") != 0:
                return f"exit code {rec.get('rc')}"
            with open(rec["out"], encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = None
        check = op["check"]
        try:
            return getattr(self, "_check_" + check["type"])(check, rec, text)
        except (ValueError, KeyError, IndexError) as exc:
            return f"unreadable output: {exc!r}"

    def _check_avoid(self, check, rec, text):
        entry = self.expected["avoid"][check["menu"]][check["index"]]
        listing = "digests" in entry
        lines = text.splitlines()
        at = 0
        counts = []
        for m in range(1, entry["n"] + 1):
            head = f"{m},"
            if at >= len(lines) or not lines[at].startswith(head):
                return f"missing count line for n={m}"
            counts.append(int(lines[at][len(head):]))
            at += 1
            if listing:
                listed = lines[at:at + counts[-1]]
                if len(listed) != counts[-1] or not all(x.startswith(head) for x in listed):
                    return f"n={m}: fewer avoiders listed than counted"
                at += counts[-1]
        if at != len(lines):
            return "trailing output"
        if counts[:ORACLE_N] != self._oracle_avoiders(check["patterns"]):
            return "counts disagree with the oracle"
        single_s3 = len(entry["patterns"]) == 3
        if single_s3 and counts != [catalan(m) for m in range(1, entry["n"] + 1)]:
            return "single S_3 pattern: counts are not Catalan numbers"
        if counts != entry["counts"]:
            return "counts differ from the recorded ones"
        if listing and _digest(text) != entry["digests"][check["patterns"]]:
            return "listed avoiders differ from the recorded output"
        return None

    def _hist_common(self, hist, n):
        for m in range(1, n + 1):
            if sum(hist.get(m, {}).values()) != factorial(m):
                return f"level {m} total is not {m}!"
        return None

    def _check_count(self, check, rec, text):
        hist = _hist(text)
        n = check["n"]
        bad = self._hist_common(hist, n)
        if bad:
            return bad
        lengths = [len(p) for p in check["patterns"].split()]
        for m in range(1, n + 1):
            mass = sum(comb(m, k) ** 2 * factorial(m - k) for k in lengths if k <= m)
            if sum(h * c for h, c in hist[m].items()) != mass:
                return f"level {m} breaks the mass identity"
        oracle = self._oracle_hist(check["patterns"])
        if any(hist[m] != oracle[m] for m in range(1, ORACLE_N + 1)):
            return "histogram disagrees with the oracle"
        entry = self.expected["count"][check["menu"]][check["index"]]
        if _digest(text) != entry[f"n{n}"]:
            return "histogram differs from the recorded output"
        return None

    def _check_vincular(self, check, rec, text):
        hist = _hist(text)
        n = check["n"]
        bad = self._hist_common(hist, n)
        if bad:
            return bad
        oracle = self._oracle_covincular(check["pattern"], check["adjacencies"])
        if any(hist[m] != oracle[m] for m in range(1, ORACLE_N + 1)):
            return "histogram disagrees with the oracle"
        entry = self.expected["count"]["vincular"][check["index"]]
        if _digest(text) != entry[f"n{n}"]:
            return "histogram differs from the recorded output"
        return None

    def _check_class(self, check, rec, text):
        entry = self.expected["sweep"][check["index"]]
        counts = rec["counts"]
        if counts[:3] != [1, 2, 6] or counts[3] != 24 - len(entry["patterns"].split()):
            return "counts for n <= 4 are wrong"
        if counts != entry["counts"]:
            return "counts differ from the recorded ones"
        if (rec["degree"], rec["checked"]) != (entry["degree"], entry["checked"]):
            return "growth degree differs from the recorded one"
        filtered = entry["checked"] and entry["degree"] is not None
        want = None if filtered else self.reference.match(counts[FIRST_TERM_N - 1:])
        if (tuple(rec["match"]) if rec["match"] else None) != want:
            return f"OEIS match {rec['match']}, expected {want}"
        line = report_line(entry["patterns"], counts[FIRST_TERM_N - 1:], entry["degree"],
                           entry["checked"], want)
        if rec["report"] != REPORT_HEADER + "\n" + line:
            return "report row differs"
        return None

    def _check_mine(self, check, rec, text):
        rows = [REPORT_HEADER + "\n"]
        for row in self.expected["mine_k3_n11"]:
            terms = row["counts"][FIRST_TERM_N - 1:]
            filtered = row["checked"] and row["degree"] is not None
            want = None if filtered else self.reference.match(terms)
            rows.append(report_line(row["patterns"], terms, row["degree"], row["checked"],
                                    want))
        if text != "".join(rows):
            return "mine report differs from the expected one"
        return None
