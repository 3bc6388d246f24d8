"""Batch command line: constructions, counts, formulas, certification, spectra.

Verbs and their outputs:

  gen            family file (text) for lex / ellball / tstars constructions
  count          JSON count report for a family file
  formula        JSON (or one-row CSV) bound evaluations plus threshold flags
  certify        JSON search certificate; exit code 2 on budget exhaustion
  sweep          CSV, one row per family size s, sorted, no gaps
  kneser         JSON spectrum or spectral bound, or an edge list file
  verify-lemmas  JSON report for the star-union checks

Exit status: 0 on success, 1 on any validation error (flags, ranges, file
format), 2 when a search exhausted its node budget (partial results are
still printed, with complete=false).  Outputs carry no timestamps; identical
inputs give byte-identical outputs.  Large integers and exact rationals are
serialized as strings.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .core import (
    ContextError,
    FamilyFormatError,
    NotACoverError,
    Params,
    RangeError,
    SetFamily,
    ShapeError,
    binom,
    ell_ball,
    lex_segment,
    t_star_union,
)
from .counting import DISJOINT_PAIRS, Q_MATCHINGS, T_DISJOINT_PAIRS, statistic_report
from .formulas import BOUND_NAMES, evaluate_all, thresholds, value_str
from .kneser import KneserGraph, export_edge_list, spectral_lower_bound, spectrum
from .search import (
    DEFAULT_NODE_BUDGET,
    MODES,
    SearchConfig,
    certify_minimum,
    verify_lemma_42,
    verify_lemma_43_44,
)

BUDGET_ENV = "SETFAM_NODE_BUDGET"
STAT_FLAGS = {"disj": DISJOINT_PAIRS, "tdisj": T_DISJOINT_PAIRS, "qmatch": Q_MATCHINGS}

_SWEEP_COLUMNS = ("n", "k", "s", "t", "q", "r", "alpha") + BOUND_NAMES
_CERTIFY_COLUMNS = ("minimum", "lex_optimal", "complete", "nodes_visited")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here reserves 2 for
    budget exhaustion, so usage and validation failures exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_NODE_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise RangeError(f"{BUDGET_ENV}={raw!r} is not an integer")
    if value <= 0:
        raise RangeError(f"{BUDGET_ENV} must be positive, got {value}")
    return value


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _read_family(path: str | None) -> SetFamily:
    if path is None or path == "-":
        return SetFamily.from_text(sys.stdin.read())
    with open(path) as fh:
        return SetFamily.from_text(fh.read())


def _write_text(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _parse_centers(raw: str) -> list[tuple[int, ...]]:
    centers = []
    for part in raw.split(";"):
        part = part.strip()
        if not part:
            raise ShapeError(f"--centers has an empty group in {raw!r}")
        try:
            centers.append(tuple(int(x) for x in part.split(",")))
        except ValueError:
            raise ShapeError(f"--centers group {part!r} is not a comma list of integers")
    return centers


def _search_config(args) -> SearchConfig:
    budget = args.budget if args.budget is not None else _default_budget()
    return SearchConfig(
        mode=args.mode,
        symmetry_pruning=not args.no_symmetry,
        node_budget=budget,
        seed=args.seed,
        checkpoint_path=getattr(args, "checkpoint", None),
    )


def _cmd_gen(args) -> int:
    if args.construction == "lex":
        if args.s is None:
            raise RangeError("--construction lex requires --s")
        fam = lex_segment(args.n, args.k, args.s)
    elif args.construction == "ellball":
        if args.r is None or args.ell is None:
            raise RangeError("--construction ellball requires --r and --ell")
        fam = ell_ball(args.n, args.k, args.r, args.ell)
    else:
        if args.centers is None:
            raise RangeError("--construction tstars requires --centers")
        fam = t_star_union(args.n, args.k, _parse_centers(args.centers))
    _write_text(fam.to_text(), args.out)
    return 0


def _cmd_count(args) -> int:
    report = statistic_report(_read_family(args.infile), STAT_FLAGS[args.stat], args.t, args.q)
    _emit_json(report.to_json_obj())
    return 0


def _bound_cells(params: Params) -> dict[str, str]:
    cells = {name: "" for name in BOUND_NAMES}
    for rep in evaluate_all(params):
        if rep.applicable:
            cells[rep.name] = value_str(rep.value)
    return cells


def _threshold_cells(params: Params) -> dict[str, str]:
    th = thresholds(params)
    return {
        "n": str(params.n),
        "k": str(params.k),
        "s": str(params.s),
        "t": str(params.t),
        "q": str(params.q),
        "r": "" if th.r is None else str(th.r),
        "alpha": "" if th.alpha is None else value_str(th.alpha),
    }


def _cmd_formula(args) -> int:
    params = Params(args.n, args.k, args.s, t=args.t, q=args.q, ell=args.ell)
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(_SWEEP_COLUMNS)
        cells = {**_threshold_cells(params), **_bound_cells(params)}
        writer.writerow([cells[c] for c in _SWEEP_COLUMNS])
        return 0
    th = thresholds(params)
    reports = evaluate_all(params)
    if not args.all:
        reports = [rep for rep in reports if rep.name == "lex_formula"]
    _emit_json(
        {
            "params": {
                "n": params.n,
                "k": params.k,
                "s": params.s,
                "t": params.t,
                "q": params.q,
                "ell": params.ell_effective,
                "r": params.r,
            },
            "thresholds": th.to_json_obj(),
            "bounds": [rep.to_json_obj() for rep in reports],
        }
    )
    return 0


def _cmd_certify(args) -> int:
    params = Params(args.n, args.k, args.s, t=args.t, q=args.q)
    cert = certify_minimum(params, STAT_FLAGS[args.stat], _search_config(args))
    _emit_json(cert.to_json_obj())
    return 0 if cert.complete or args.mode == "local_search" else 2


def _cmd_sweep(args) -> int:
    s_max = args.s_max if args.s_max is not None else binom(args.n, args.k)
    if args.s_min < 0 or s_max > binom(args.n, args.k) or args.s_min > s_max:
        raise RangeError(f"bad sweep range [{args.s_min}, {s_max}] for n={args.n} k={args.k}")
    columns = _SWEEP_COLUMNS + (_CERTIFY_COLUMNS if args.certify else ())
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(columns)
    status = 0
    stat = STAT_FLAGS[args.stat]
    for s in range(args.s_min, s_max + 1):
        params = Params(args.n, args.k, s, t=args.t, q=args.q)
        cells = {**_threshold_cells(params), **_bound_cells(params)}
        if args.certify:
            cert = certify_minimum(params, stat, _search_config(args))
            cells["minimum"] = str(cert.minimum)
            cells["lex_optimal"] = str(cert.lex_optimal).lower()
            cells["complete"] = str(cert.complete).lower()
            cells["nodes_visited"] = str(cert.nodes_visited)
            if not cert.complete and args.mode != "local_search":
                status = 2
        writer.writerow([cells[c] for c in columns])
    return status


def _cmd_kneser(args) -> int:
    if args.spectrum:
        spec = spectrum(args.n, args.k)
        _emit_json(spec.to_json_obj())
        return 0
    if args.bound:
        if args.s is None:
            raise RangeError("--bound requires --s")
        value = spectral_lower_bound(args.n, args.k, args.s)
        _emit_json(
            {"n": args.n, "k": args.k, "s": args.s, "spectral_lower_bound": value_str(value)}
        )
        return 0
    graph = KneserGraph(args.n, args.k)
    with open(args.export, "w") as fh:
        count = export_edge_list(graph, fh)
    _emit_json(
        {
            "n": args.n,
            "k": args.k,
            "vertices": graph.vertex_count,
            "edges": count,
            "path": args.export,
        }
    )
    return 0


def _cmd_verify_lemmas(args) -> int:
    if args.lemma == "4.2":
        report = verify_lemma_42(args.n, args.k, args.t, args.r)
    else:
        report = verify_lemma_43_44(args.n, args.k, args.t, args.r)
    obj = {"lemma": args.lemma}
    obj.update(report.to_json_obj())
    _emit_json(obj)
    return 0


def _add_search_flags(sub) -> None:
    sub.add_argument("--mode", choices=MODES, default="branch_and_bound")
    sub.add_argument(
        "--budget",
        type=int,
        default=None,
        help=f"node budget (default: ${BUDGET_ENV} or {DEFAULT_NODE_BUDGET})",
    )
    sub.add_argument("--no-symmetry", action="store_true", help="disable symmetry pruning")
    sub.add_argument("--seed", type=int, default=0, help="seed for local_search restarts")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="setfam", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("gen", help="emit a constructed family as a family file")
    p.add_argument("--construction", choices=("lex", "ellball", "tstars"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, help="size, for --construction lex")
    p.add_argument("--r", type=int, help="head length, for --construction ellball")
    p.add_argument("--ell", type=int, help="intersection threshold, for --construction ellball")
    p.add_argument("--centers", help="semicolon-separated comma lists, e.g. '1,2;1,3'")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_gen)

    p = subs.add_parser("count", help="count a statistic on a family file, JSON out")
    p.add_argument("--stat", choices=sorted(STAT_FLAGS), required=True)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--in", dest="infile", help="family file (default stdin)")
    p.set_defaults(func=_cmd_count)

    p = subs.add_parser(
        "formula",
        help="evaluate closed forms and threshold flags",
        description="CSV columns: " + ",".join(_SWEEP_COLUMNS),
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--all", action="store_true", help="emit every bound, not just the lex formula")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_formula)

    p = subs.add_parser("certify", help="search for the true minimum, JSON certificate out")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--stat", choices=sorted(STAT_FLAGS), required=True)
    p.add_argument("--checkpoint", help="checkpoint path for resumable runs")
    _add_search_flags(p)
    p.set_defaults(func=_cmd_certify)

    p = subs.add_parser(
        "sweep",
        help="CSV over a range of sizes s",
        description=(
            "CSV columns: "
            + ",".join(_SWEEP_COLUMNS)
            + " plus with --certify: "
            + ",".join(_CERTIFY_COLUMNS)
            + ".  Rows are sorted by s with no gaps; empty cells mean not applicable."
        ),
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--stat", choices=sorted(STAT_FLAGS), required=True)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--s-min", type=int, default=0)
    p.add_argument("--s-max", type=int, default=None)
    p.add_argument("--certify", action="store_true", help="add search certificate columns")
    _add_search_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = subs.add_parser("kneser", help="spectrum, spectral bound, or edge list export")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--spectrum", action="store_true")
    group.add_argument("--bound", action="store_true")
    group.add_argument("--export", metavar="PATH")
    p.add_argument("--s", type=int, help="family size, for --bound")
    p.set_defaults(func=_cmd_kneser)

    p = subs.add_parser("verify-lemmas", help="exhaustive star-union checks, JSON report out")
    p.add_argument("--lemma", choices=("4.2", "4.3", "4.4"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=_cmd_verify_lemmas)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on usage errors and --help; report its code
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FamilyFormatError as exc:
        print(f"setfam {args.verb}: error: {exc}", file=sys.stderr)
        return 1
    except (RangeError, ShapeError, ContextError, NotACoverError, OSError) as exc:
        print(f"setfam {args.verb}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
