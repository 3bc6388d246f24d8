"""Build or verify bench/reference.json, the table the benchmark checks minima against.

    python3 bench/reference.py           # verify the stored table
    python3 bench/reference.py --write   # recompute it with the package, verify, write

Sections: `disjoint_pairs` (the certify-grid instances, branch-and-bound with
a 3*10^6 node budget), `q_matchings_q3` (exhaustive, (6,2,s)),
`t_disjoint_pairs_t2` (branch-and-bound, (6,3,s)) and `local_search`.  Each
entry records the package's answer when the table was written: minimum, lex
value, complete flag and nodes (moves, for local search).  An incomplete or
local-search entry is only an upper bound; the checks use complete entries.

Every complete entry is confirmed before the table is accepted; a minimum
of 0 needs nothing more than the lex value, which the oracle recounts.
Others are confirmed in one or both of two ways:
- by the benchmark's own brute force (oracle.py, no package code) over every
  family that contains {1, ..., k}, wherever there are at most 3*10^5 of
  them.  Relabeling the ground set maps any family onto one containing
  {1, ..., k} without changing any of the three statistics, so that minimum
  is the minimum over all families;
- by the package's `mode="exhaustive"` wherever it finishes within 5*10^6
  nodes.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import combinations
from math import comb
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
from workloads import GRID_BUDGET, LOCAL_SEARCH, QMATCH_GRID, REFERENCE_PATH, TDISJ_GRID, grid_instances  # noqa: E402

BRUTE_CAP = 3 * 10**5
EXHAUSTIVE_BUDGET = 5 * 10**6

# (section, statistic, t, q, mode, instances)
SECTIONS = [
    ("disjoint_pairs", "disjoint_pairs", 1, 2, "branch_and_bound", grid_instances()),
    ("q_matchings_q3", "q_matchings", 1, 3, "exhaustive", QMATCH_GRID),
    ("t_disjoint_pairs_t2", "t_disjoint_pairs", 2, 2, "branch_and_bound", TDISJ_GRID),
    ("local_search", "disjoint_pairs", 1, 2, "local_search", LOCAL_SEARCH),
]

# the Erdos-Gallai configuration that beats the lex segment for 3-matchings
KNOWN = {("q_matchings_q3", "6,2,10"): (0, 2), ("q_matchings_q3", "6,2,11"): (3, 4)}


def brute_minimum(n, k, s, stat, t, q):
    """Own minimum over families containing {1..k}, or None above the cap."""
    sets = oracle.ksets(n, k)
    if s <= 1:
        return 0  # no pair, and no q-matching for q >= 2
    if comb(len(sets) - 1, s - 1) > BRUTE_CAP:
        return None
    first, rest = sets[0], sets[1:]
    return min(oracle.statistic([first, *more], stat, t, q) for more in combinations(rest, s - 1))


def compute(setfam) -> dict:
    table = {}
    for section, stat, t, q, mode, instances in SECTIONS:
        config = setfam.SearchConfig(mode=mode, node_budget=GRID_BUDGET)
        entries = {}
        for n, k, s in instances:
            cert = setfam.certify_minimum(setfam.Params(n, k, s, t=t, q=q), stat, config)
            entries[f"{n},{k},{s}"] = {
                "minimum": cert.minimum,
                "lex_value": cert.lex_value,
                "complete": cert.complete and mode != "local_search",
                "nodes": cert.nodes_visited,
            }
        table[section] = entries
    return table


def verify(setfam, table: dict) -> list[str]:
    problems = []
    for (section, key), (minimum, lex) in KNOWN.items():
        entry = table[section][key]
        if (entry["minimum"], entry["lex_value"], entry["complete"]) != (minimum, lex, True):
            problems.append(f"{section} {key}: expected certified {minimum} against lex {lex}, got {entry}")
    for section, stat, t, q, _, _ in SECTIONS:
        for key, entry in table[section].items():
            n, k, s = map(int, key.split(","))
            if entry["lex_value"] != oracle.lex_value(n, k, s, stat, t, q):
                problems.append(f"{section} {key}: lex value {entry['lex_value']} is wrong")
            if not entry["complete"]:
                continue
            checked = ["zero"] if entry["minimum"] == 0 else []  # counts are never negative
            brute = brute_minimum(n, k, s, stat, t, q)
            if brute is not None:
                checked.append("brute_force")
                if brute != entry["minimum"]:
                    problems.append(f"{section} {key}: brute force gives {brute}, table {entry['minimum']}")
            config = setfam.SearchConfig(mode="exhaustive", node_budget=EXHAUSTIVE_BUDGET)
            cert = setfam.certify_minimum(setfam.Params(n, k, s, t=t, q=q), stat, config)
            if cert.complete:
                checked.append("exhaustive")
                if cert.minimum != entry["minimum"]:
                    problems.append(f"{section} {key}: exhaustive gives {cert.minimum}, table {entry['minimum']}")
            entry["verified_by"] = checked
            print(f"{section} {key}: minimum {entry['minimum']} verified by {', '.join(checked) or 'nothing'}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write", action="store_true", help="recompute the table with the package and write it")
    args = parser.parse_args(argv)
    import setfam

    if args.write:
        table = compute(setfam)
    else:
        table = json.loads(REFERENCE_PATH.read_text())
    problems = verify(setfam, table)
    for p in problems:
        print("MISMATCH", p, file=sys.stderr)
    if problems:
        return 1
    if args.write:
        REFERENCE_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
