"""The three workloads: inputs made from a seed, the ops of a pass, their checks.

An op is one timed unit of work.  `run(api, arg)` calls the package and
returns its raw output; nothing else happens inside the timed region.  After
the pass, `check(arg, ref, out)` compares that output with `ref`, which
`reference(arg, ctx)` computed once per run from the benchmark's own code
(oracle.py) and the stored reference table, never from the package.  A check
returns the problems it found and the number of complete certificates the
output holds.

Why these workloads (each stresses a different layer):

certify-grid    branch-and-bound certification of disjoint pairs over the
                tier-1 grid, n in 5..7, k in 2..3, every s with r(s) <= 2,
                node budget 3*10^6: 83 instances, one op each.  Nearly all
                time is the search node loop; ten (7,3,s) instances run out
                of budget.  The (5,2) instances go through the `certify`
                verb.  Only 6 distinct (n, k) appear, so inputs share heavily.
large-families  pair statistics on a few thousand members at (16,5) and
                (20,4) and on all of (14,5), cross counts against the
                complement, induced Kneser edges, 3- and 4-matchings on
                (12,3) families, `count` through the CLI, and a search whose
                cost is the O(N^2) adjacency-row build at N = 3060.  No input
                repeats; the search does almost none of the work.
many-small      10^5 tiny families (n 4..9, k 2..4, s <= 12), one op each that
                also builds the SetFamily from the generated sets, plus
                the closed form on every lex segment with n <= 9, k <= 4, the
                star-union lemma checks, local search, exhaustive q = 3 and
                t = 2 certification, and `sweep`, `formula` and `kneser`
                through the CLI.  Per-call constant costs dominate.

The seed shuffles the order of the certify-grid instances and draws the
random families of the other two workloads.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from collections import namedtuple
from fractions import Fraction
from math import comb
from pathlib import Path

import oracle

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
GRID_BUDGET = 3 * 10**6
SPECTRAL_CAP = 500  # largest C(n, k) whose spectrum the oracle diagonalizes

Op = namedtuple("Op", "kind run reference check arg")
Inst = namedtuple("Inst", "n k s stat t q")
Cert = namedtuple("Cert", "minimum witness lex_value lex_optimal complete")


class Context:
    """Per-run store for the reference table and reference values ops share."""

    def __init__(self):
        with open(REFERENCE_PATH) as fh:
            self.table = json.load(fh)
        self._shared: dict = {}

    def certified(self, section: str, n: int, k: int, s: int) -> int | None:
        """The seed's complete certified minimum for an instance, if it has one."""
        entry = self.table[section].get(f"{n},{k},{s}")
        return entry["minimum"] if entry and entry["complete"] else None

    def upper_bound(self, section: str, n: int, k: int, s: int) -> int | None:
        """The least value a stored witness attains, complete or not.

        A budget-exhausted search or a local search still found a family with
        that many pairs, so no sound certificate may claim a larger minimum.
        """
        key = f"{n},{k},{s}"
        sections = (section, "local_search") if section == "disjoint_pairs" else (section,)
        values = [self.table[name][key]["minimum"] for name in sections if key in self.table[name]]
        return min(values, default=None)

    def once(self, key, compute):
        if key not in self._shared:
            self._shared[key] = compute()
        return self._shared[key]


def _equal(out, ref) -> list[str]:
    return [] if out == ref else [f"got {repr(out)[:120]}, expected {repr(ref)[:120]}"]


def _check_equal(arg, ref, out):
    return _equal(out, ref), 0


def _run_cli(api, arg):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = api.main(arg[-1])
    return rc, buf.getvalue()


# ---------------------------------------------------------------- certificates

SECTION = {"disjoint_pairs": "disjoint_pairs", "q_matchings": "q_matchings_q3", "t_disjoint_pairs": "t_disjoint_pairs_t2"}


def _cert_reference(inst: Inst, ctx: Context) -> dict:
    n, k, s = inst.n, inst.k, inst.s
    spectral = None
    if inst.stat == "disjoint_pairs" and comb(n, k) <= SPECTRAL_CAP:
        spectral = oracle.spectral_bound(n, k, s)
    return {
        "lex": oracle.lex_value(n, k, s, inst.stat, inst.t, inst.q),
        "spectral": spectral,
        "certified": ctx.certified(SECTION[inst.stat], n, k, s),
        "upper": ctx.upper_bound(SECTION[inst.stat], n, k, s),
    }


def check_cert(inst: Inst, ref: dict, c: Cert, local: bool = False) -> tuple[list[str], int]:
    """Problems with one certificate, and 1 if it is a sound complete certificate."""
    tag = f"({inst.n},{inst.k},{inst.s})"
    bad = []
    if not oracle.is_family(c.witness, inst.n, inst.k, inst.s):
        bad.append(f"{tag}: witness is not {inst.s} distinct {inst.k}-subsets of [{inst.n}]")
    recount = oracle.statistic(c.witness, inst.stat, inst.t, inst.q)
    if recount != c.minimum:
        bad.append(f"{tag}: witness recount {recount} != minimum {c.minimum}")
    if c.lex_value != ref["lex"]:
        bad.append(f"{tag}: lex value {c.lex_value} != {ref['lex']}")
    if c.minimum > c.lex_value:
        bad.append(f"{tag}: minimum {c.minimum} above lex value {c.lex_value}")
    if c.lex_optimal != (c.minimum == c.lex_value):
        bad.append(f"{tag}: lex_optimal flag contradicts the values")
    if ref["spectral"] is not None and c.minimum < ref["spectral"] - 1e-9:
        bad.append(f"{tag}: minimum {c.minimum} below spectral bound {ref['spectral']:.6f}")
    if c.complete and not local and ref["upper"] is not None and c.minimum > ref["upper"]:
        bad.append(f"{tag}: certified minimum {c.minimum} above {ref['upper']}, which a stored witness attains")
    certified = ref["certified"]
    if certified is not None:
        if c.complete and not local and c.minimum != certified:
            bad.append(f"{tag}: certified minimum {c.minimum} != reference {certified}")
        if c.minimum < certified:
            bad.append(f"{tag}: minimum {c.minimum} below the certified reference {certified}")
    return bad, int(c.complete and not local and not bad)


def _certify_op(inst: Inst, config) -> Op:
    return Op("certify", _run_certify, _ref_certify, _check_certify, (inst, config))


def _run_certify(api, arg):
    inst, config = arg
    return api.certify_minimum(api.Params(inst.n, inst.k, inst.s, t=inst.t, q=inst.q), inst.stat, config)


def _ref_certify(arg, ctx):
    return _cert_reference(arg[0], ctx)


def _check_certify(arg, ref, out):
    inst, config = arg
    cert = out
    c = Cert(
        cert.minimum,
        [oracle.decode(m) for m in cert.witness.masks],
        cert.lex_value,
        cert.lex_optimal,
        cert.complete,
    )
    return check_cert(inst, ref, c, local=config.mode == "local_search")


def _check_cli_certify(arg, ref, out):
    inst = arg[0]
    rc, text = out
    if rc not in (0, 2):
        return [f"certify {tuple(inst[:3])} exited {rc}"], 0
    obj = json.loads(text)
    c = Cert(
        int(obj["minimum"]),
        [frozenset(w) for w in obj["witness"]],
        int(obj["lex_value"]),
        obj["lex_optimal"],
        obj["complete"],
    )
    bad, certified = check_cert(inst, ref, c)
    if (rc == 0) != c.complete:
        bad.append(f"certify {tuple(inst[:3])} exit code {rc} contradicts complete={c.complete}")
    return bad, certified


def grid_instances() -> list[tuple[int, int, int]]:
    """Every (n, k, s) with n in 5..7, k in 2..3 and slice index r(s) <= 2."""
    out = []
    for n in (5, 6, 7):
        for k in (2, 3):
            s = 0
            while s <= comb(n, k) and oracle.slice_index(n, k, s) <= 2:
                out.append((n, k, s))
                s += 1
    return out


def build_certify_grid(seed: int, api, workdir: Path) -> list[Op]:
    instances = grid_instances()
    random.Random(seed).shuffle(instances)
    config = api.SearchConfig(mode="branch_and_bound", node_budget=GRID_BUDGET)
    ops = []
    for n, k, s in instances:
        inst = Inst(n, k, s, "disjoint_pairs", 1, 2)
        if (n, k) == (5, 2):
            argv = ["certify", "--n", str(n), "--k", str(k), "--s", str(s), "--stat", "disj", "--budget", str(GRID_BUDGET)]
            ops.append(Op("cli.certify", _run_cli, _ref_certify, _check_cli_certify, (inst, argv)))
        else:
            ops.append(_certify_op(inst, config))
    return ops


# -------------------------------------------------------------- large families

LARGE = {"A": (16, 5, 3000), "B": (20, 4, 3000)}
FULL = (14, 5)
QMATCH = (12, 3, 110)
PROBE = (18, 4, 2)

Fam = namedtuple("Fam", "tag n k sets rest")


def _family_text(n: int, k: int, sets) -> str:
    rows = sorted(tuple(sorted(a)) for a in sets)
    return "\n".join([f"n={n} k={k}"] + [",".join(map(str, r)) for r in rows]) + "\n"


def build_large_families(seed: int, api, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    fams = []
    for tag, (n, k, s) in [*LARGE.items(), ("full", (*FULL, comb(*FULL)))]:
        pool = oracle.ksets(n, k)
        # sorted like the package keeps members, so *_by_first partitions line up
        sets = sorted(rng.sample(pool, s), key=sorted) if tag != "full" else pool
        chosen = frozenset(sets)
        fams.append(Fam(tag, n, k, sets, [a for a in pool if a not in chosen]))
    a, b, full = fams

    # family A arrives as a family file, the format `setfam count --in` reads
    path = workdir / "family_A.txt"
    path.write_text(_family_text(a.n, a.k, a.sets))
    built = {
        "A": api.from_text(path.read_text()),
        "B": api.from_sets(b.n, b.k, b.sets),
        "full": api.full(full.n, full.k),
    }

    ops = []
    for fam in fams:
        f = built[fam.tag]
        complement = api.from_sets(fam.n, fam.k, fam.rest)
        for kind, run in _PAIR_RUNS.items():
            ops.append(Op(kind, run, _ref_large, _check_large, (kind, fam, f, complement)))
    ops.append(Op("cross_self", _run_cross, _ref_large, _check_large, ("cross_self", full, built["full"], built["full"])))
    ops.append(Op("lex_formula_full", _run_lex_full, _ref_lex_full, _check_equal, FULL))
    graph = api.KneserGraph(a.n, a.k)
    ops.append(Op("induced_edges", _run_induced, _ref_large, _check_large, ("induced_edges", a, built["A"], graph)))
    for _ in range(2):
        n, k, s = QMATCH
        sets = rng.sample(oracle.ksets(n, k), s)
        f = api.from_sets(n, k, sets)
        for q in (3, 4):
            ops.append(Op("q_matchings", _run_qmatch, _ref_qmatch, _check_equal, (sets, f, q)))
    argv = ["count", "--stat", "disj", "--in", str(path)]
    ops.append(Op("cli.count", _run_cli, _ref_large, _check_cli_count, ("cli.count", a, argv)))
    inst = Inst(*PROBE, "disjoint_pairs", 1, 2)
    ops.append(_certify_op(inst, api.SearchConfig()))
    return ops


def _run_cross(api, arg):
    return api.cross_disjoint_pairs(arg[2], arg[3])


_PAIR_RUNS = {
    "disjoint_pairs": lambda api, arg: api.disjoint_pairs(arg[2]).value,
    "t_disjoint_pairs": lambda api, arg: api.t_disjoint_pairs(arg[2], 2).value,
    "t_intersecting_pairs": lambda api, arg: api.t_intersecting_pairs(arg[2], 2).value,
    "by_first": lambda api, arg: api.disjoint_pairs_by_first(arg[2]),
    "cross_complement": _run_cross,
}


def _run_induced(api, arg):
    return api.induced_edges(arg[3], arg[2])


def _run_qmatch(api, arg):
    return api.q_matchings(arg[1], arg[2]).value


def _run_lex_full(api, arg):
    n, k = arg
    return api.lex_disj_formula(n, k, comb(n, k))


def _ref_lex_full(arg, ctx):
    return oracle.full_family_pairs(*arg, 1)


def _ref_qmatch(arg, ctx):
    return oracle.q_matchings(arg[0], arg[2])


def _profile(fam: Fam) -> dict:
    prof = oracle.dense_profile(oracle.incidence(fam.sets, fam.n), 2)
    if fam.tag == "full":
        # closed forms for the complete family replace the counted values
        prof["disjoint"] = oracle.full_family_pairs(fam.n, fam.k, 1)
        prof["below_t"] = oracle.full_family_pairs(fam.n, fam.k, 2)
    return prof


def _ref_large(arg, ctx):
    kind, fam = arg[0], arg[1]
    prof = ctx.once(("profile", fam.tag), lambda: _profile(fam))
    s = len(fam.sets)
    disj = prof["disjoint"]
    if kind == "t_disjoint_pairs":
        return prof["below_t"]
    if kind == "t_intersecting_pairs":
        return comb(s, 2) - prof["below_t"]  # the two pair counts partition all pairs
    if kind == "by_first":
        return prof["by_first"], disj
    if kind == "cross_complement":
        return s * comb(fam.n - fam.k, fam.k) - 2 * disj  # every set has C(n-k,k) disjoint partners
    if kind == "cross_self":
        return 2 * disj
    return disj  # disjoint_pairs, induced_edges, cli.count


def _check_large(arg, ref, out):
    if arg[0] == "by_first":
        parts, total = ref
        bad = _equal(tuple(out), parts)
        if sum(out) != total:
            bad.append(f"by_first sums to {sum(out)}, not the total {total}")
        return bad, 0
    return _equal(out, ref), 0


def _check_cli_count(arg, ref, out):
    rc, text = out
    if rc != 0:
        return [f"count exited {rc}"], 0
    obj = json.loads(text)
    return _equal((obj["statistic"], int(obj["value"])), ("disjoint_pairs", ref)), 0


# ------------------------------------------------------------------ many small

TINY_FAMILIES = 10**5
LOCAL_SEARCH = [(7, 3, 16), (7, 3, 18), (7, 3, 20), (8, 3, 30)]
QMATCH_GRID = [(6, 2, s) for s in range(13)]
TDISJ_GRID = [(6, 3, s) for s in range(4, 14)]
LEMMA_42 = [(8, 3, 2, 2), (8, 3, 2, 3)]
LEMMA_43_44 = [(8, 3, 2, 2), (9, 4, 2, 2)]
SWEEP = (6, 3)
FORMULA = (8, 3, 24)
SPECTRUM = (5, 2)


def tiny_families(seed: int):
    """(n, k, t, sets) for each tiny family, with t rotating through 1..k-1."""
    rng = random.Random(seed)
    pools = {}
    for i in range(TINY_FAMILIES):
        n = rng.randint(4, 9)
        k = rng.randint(2, min(4, n - 1))
        if (n, k) not in pools:
            pools[(n, k)] = oracle.ksets(n, k)
        pool = pools[(n, k)]
        s = rng.randint(0, min(len(pool), 12))
        t = 1 + i % (k - 1) if k > 2 else 1
        yield n, k, t, sorted(rng.sample(pool, s), key=sorted)  # the package's member order


def build_many_small(seed: int, api, workdir: Path) -> list[Op]:
    ops = [Op("family", _run_family, _ref_family, _check_family, arg) for arg in tiny_families(seed)]
    for n in range(1, 10):
        for k in range(1, min(n, 4) + 1):
            ops.append(Op("lex_formula", _run_lex_all, _ref_lex_all, _check_equal, (n, k)))
    ops += [Op("lemma_4.2", _run_lemma_42, _ref_lemma, _check_lemma_42, nktr) for nktr in LEMMA_42]
    ops += [Op("lemma_4.3_4.4", _run_lemma_43, _ref_lemma, _check_lemma_43, nktr) for nktr in LEMMA_43_44]
    local = api.SearchConfig(mode="local_search")
    for n, k, s in LOCAL_SEARCH:
        ops.append(_certify_op(Inst(n, k, s, "disjoint_pairs", 1, 2), local))
    exhaustive = api.SearchConfig(mode="exhaustive")
    for n, k, s in QMATCH_GRID:
        ops.append(_certify_op(Inst(n, k, s, "q_matchings", 1, 3), exhaustive))
    bnb = api.SearchConfig(mode="branch_and_bound", node_budget=GRID_BUDGET)
    for n, k, s in TDISJ_GRID:
        ops.append(_certify_op(Inst(n, k, s, "t_disjoint_pairs", 2, 2), bnb))
    n, k = SWEEP
    ops.append(Op("cli.sweep", _run_cli, _ref_sweep, _check_sweep, (["sweep", "--n", str(n), "--k", str(k), "--stat", "disj", "--certify"],)))
    n, k, s = FORMULA
    ops.append(Op("cli.formula", _run_cli, _ref_formula, _check_formula, (["formula", "--n", str(n), "--k", str(k), "--s", str(s), "--all", "--format", "csv"],)))
    n, k = SPECTRUM
    ops.append(Op("cli.kneser", _run_cli, lambda arg, ctx: None, _check_spectrum, (["kneser", "--n", str(n), "--k", str(k), "--spectrum"],)))
    return ops


def _run_family(api, arg):
    n, k, t, sets = arg
    f = api.from_sets(n, k, sets)  # built in the op, so validation and construction are timed
    return (
        api.disjoint_pairs(f).value,
        api.t_disjoint_pairs(f, t).value,
        api.t_intersecting_pairs(f, t).value,
        [api.t_intersecting_with(f, m, t) for m in f],
        api.q_matchings(f, 2).value,
    )


def _ref_family(arg, ctx):
    return oracle.pair_profile(arg[3], arg[2])


def _check_family(arg, ref, out):
    d, td, ti, inc, q2 = out
    disj, below, meet = ref
    s = len(arg[3])
    if (d, td, ti, inc, q2) == (disj, below, comb(s, 2) - below, meet, disj):
        return [], 0
    bad = []
    if d != disj:
        bad.append(f"disjoint_pairs {d} != {disj}")
    if td != below:
        bad.append(f"t_disjoint_pairs {td} != {below}")
    if td + ti != comb(s, 2):
        bad.append(f"t-disjoint {td} + t-intersecting {ti} != C({s},2)")
    if inc != meet or sum(inc) != 2 * ti + s:
        bad.append(f"t_intersecting_with per member {inc} != {meet}")
    if q2 != d:
        bad.append(f"2-matchings {q2} != disjoint pairs {d}")
    return bad, 0


def _run_lex_all(api, arg):
    n, k = arg
    return [api.lex_disj_formula(n, k, s) for s in range(comb(n, k) + 1)]


def _ref_lex_all(arg, ctx):
    return oracle.lex_disjoint_counts(*arg)


def _run_lemma_42(api, arg):
    return api.verify_lemma_42(*arg)


def _run_lemma_43(api, arg):
    return api.verify_lemma_43_44(*arg)


def _ref_lemma(arg, ctx):
    n, k, t, r = arg
    sizes = oracle.star_union_sizes(n, k, t, r)
    low = min(sizes)
    return {
        "tuples": comb(comb(n, t), r),
        "min": low,
        "minimizers": sizes.count(low),
        "outside": sum(comb(n, k) - size for size in sizes),
    }


def _check_lemma_42(arg, ref, rep):
    got = (rep.ok, rep.tuples_checked, rep.min_union_size, rep.minimizer_count)
    return _equal(got, (True, ref["tuples"], ref["min"], ref["minimizers"])), 0


def _check_lemma_43(arg, ref, rep):
    got = (rep.ok, rep.fullstars_tuples_checked, rep.addset_configs_checked)
    return _equal(got, (True, ref["tuples"], ref["outside"])), 0


def _ref_sweep(arg, ctx):
    """Expected certified minimum per s; beyond the table, via the complement.

    The disjointness graph is d-regular, so disj(F) - disj(F^c) = d (s - N/2)
    and the minimum at s is the minimum at N - s plus d (s - N/2).
    """
    n, k = SWEEP
    N, d = comb(n, k), comb(n - k, k)
    rows = []
    for s in range(N + 1):
        minimum = ctx.certified("disjoint_pairs", n, k, s)
        if minimum is None and ctx.certified("disjoint_pairs", n, k, N - s) is not None:
            minimum = ctx.certified("disjoint_pairs", n, k, N - s) + d * (2 * s - N) // 2
        rows.append((s, minimum, oracle.lex_value(n, k, s, "disjoint_pairs"), oracle.spectral_bound(n, k, s)))
    return rows


def _check_sweep(arg, ref, out):
    rc, text = out
    if rc != 0:
        return [f"sweep exited {rc}"], 0
    rows = list(csv.DictReader(io.StringIO(text)))
    if [int(r["s"]) for r in rows] != [s for s, *_ in ref]:
        return ["sweep rows do not cover s = 0..C(n,k) in order"], 0
    bad = []
    complete = 0
    for row, (s, minimum, lex, spectral) in zip(rows, ref):
        got = int(row["minimum"])
        if row["complete"] != "true":
            bad.append(f"s={s}: not certified")
        elif minimum is not None and got != minimum:
            bad.append(f"s={s}: minimum {got} != {minimum}")
        if int(row["lex_formula"]) != lex or row["lex_optimal"] != str(got == lex).lower():
            bad.append(f"s={s}: lex column {row['lex_formula']} / {row['lex_optimal']} != {lex}")
        if abs(float(Fraction(row["spectral_kneser"] or "0")) - spectral) > 1e-6 or got < spectral - 1e-9:
            bad.append(f"s={s}: spectral column {row['spectral_kneser']} != {spectral:.6f}")
        complete += row["complete"] == "true"
    return bad, complete if not bad else 0


def _ref_formula(arg, ctx):
    n, k, s = FORMULA
    r = oracle.slice_index(n, k, s)
    return {
        "n": n,
        "k": k,
        "s": s,
        "r": r,
        "lex_formula": oracle.lex_value(n, k, s, "disjoint_pairs"),
        "upper_eq1": Fraction(1, 2) * (1 - Fraction(1, r)) * s * s,
        "spectral_kneser": oracle.spectral_bound(n, k, s),
    }


def _check_formula(arg, ref, out):
    rc, text = out
    if rc != 0:
        return [f"formula exited {rc}"], 0
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != 1:
        return [f"formula printed {len(rows)} rows"], 0
    row = rows[0]
    got = {name: int(row[name]) for name in ("n", "k", "s", "r", "lex_formula")}
    got["upper_eq1"] = Fraction(row["upper_eq1"])
    spectral = float(Fraction(row["spectral_kneser"]))
    want = {name: ref[name] for name in got}
    bad = _equal(got, want)
    if abs(spectral - ref["spectral_kneser"]) > 1e-6:
        bad.append(f"spectral_kneser {row['spectral_kneser']} != {ref['spectral_kneser']:.6f}")
    return bad, 0


def _check_spectrum(arg, ref, out):
    rc, text = out
    if rc != 0:
        return [f"kneser exited {rc}"], 0
    n, k = SPECTRUM
    pairs = [(int(p["eigenvalue"]), int(p["multiplicity"])) for p in json.loads(text)["pairs"]]
    N, d = comb(n, k), comb(n - k, k)
    bad = []
    if sum(m for _, m in pairs) != N:
        bad.append("multiplicities do not sum to C(n,k)")
    if sum(lam * m for lam, m in pairs) != 0 or sum(lam * lam * m for lam, m in pairs) != N * d:
        bad.append("spectrum violates trace(A) = 0 or trace(A^2) = 2 |E|")
    if not oracle.spectrum_consistent(n, k, pairs):
        bad.append("spectrum differs from a numerical diagonalization")
    return bad, 0


# Timings per fast op (see worker.run_pass).  A certify-grid run has room for
# one pass of 83 ops, so each op under 20 ms runs in 60 more rounds after the
# pass (about 6 s in all) and its latency is the median of the 61; with one
# timing, or 15, per op, op_p50_ms moved by a quarter between runs.  The
# other workloads take the median over several passes.
REPEATS = {"certify-grid": 61}

WORKLOADS = {
    "certify-grid": build_certify_grid,
    "large-families": build_large_families,
    "many-small": build_many_small,
}
