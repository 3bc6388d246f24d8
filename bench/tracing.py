"""The benchmark's handle on setfam, with spans and counters for traced runs.

Workloads call the package only through an `Api` namespace built here, one
attribute per public function.  In an untraced run the attributes are the
package's own functions, so timing adds nothing per call.  In a traced run
each attribute is wrapped in a span charged to the module that owns the
function.  Work a module does inside the call, including its calls into
other modules, counts toward the module that was called.  Work counters are
derived from each call's inputs and result after its span closes.

Spans live in memory as parallel arrays (name, parent op span, start, end)
and are written out once, when the run ends.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from types import SimpleNamespace

MODULES = ("cli", "core", "counting", "formulas", "kneser", "search")

# counting functions that compare every pair of one family
_PAIR_CALLS = (
    "disjoint_pairs",
    "t_disjoint_pairs",
    "t_intersecting_pairs",
    "disjoint_pairs_by_first",
)


def _functions():
    """Attribute name -> (module, callable) for every function a workload uses."""
    from setfam import cli, core, counting, formulas, kneser, search

    table = {
        "main": ("cli", cli.main),
        "Params": ("core", core.Params),
        "from_sets": ("core", core.SetFamily.from_sets),
        "from_text": ("core", core.SetFamily.from_text),
        "full": ("core", core.SetFamily.full),
        "cross_disjoint_pairs": ("counting", counting.cross_disjoint_pairs),
        "t_intersecting_with": ("counting", counting.t_intersecting_with),
        "q_matchings": ("counting", counting.q_matchings),
        "lex_disj_formula": ("formulas", formulas.lex_disj_formula),
        "KneserGraph": ("kneser", kneser.KneserGraph),
        "induced_edges": ("kneser", kneser.induced_edges),
        "SearchConfig": ("search", search.SearchConfig),
        "certify_minimum": ("search", search.certify_minimum),
        "verify_lemma_42": ("search", search.verify_lemma_42),
        "verify_lemma_43_44": ("search", search.verify_lemma_43_44),
    }
    for name in _PAIR_CALLS:
        table[name] = ("counting", getattr(counting, name))
    return table


def _pairs(counts: Counter, seconds: float, args, out) -> None:
    s = len(args[0])
    counts["counting.pair_tests"] += s * (s - 1) // 2
    counts["counting.pair_busy_s"] += seconds


def _cross(counts: Counter, seconds: float, args, out) -> None:
    counts["counting.pair_tests"] += len(args[0]) * len(args[1])
    counts["counting.pair_busy_s"] += seconds


def _one_against_all(counts: Counter, seconds: float, args, out) -> None:
    counts["counting.pair_tests"] += len(args[0])
    counts["counting.pair_busy_s"] += seconds


def _certify(counts: Counter, seconds: float, args, out) -> None:
    if args[2].mode == "local_search":
        counts["search.local_moves"] += out.nodes_visited
        return
    counts["search.certificates"] += 1
    counts["search.nodes"] += out.nodes_visited
    counts["search.node_busy_s"] += seconds
    counts["search.complete"] += out.complete
    counts["search.budget_exhausted"] += not out.complete


def _lemma_42(counts: Counter, seconds: float, args, out) -> None:
    counts["search.lemma_configs"] += out.tuples_checked


def _lemma_43(counts: Counter, seconds: float, args, out) -> None:
    counts["search.lemma_configs"] += out.addset_configs_checked + out.fullstars_tuples_checked


# deterministic work of one call, computed from its inputs and result: pair
# tests are s(s-1)/2 per pair count, |f||g| per cross count, |f| per
# one-against-all count
_COUNTERS = {
    **{name: _pairs for name in _PAIR_CALLS},
    "cross_disjoint_pairs": _cross,
    "t_intersecting_with": _one_against_all,
    "certify_minimum": _certify,
    "verify_lemma_42": _lemma_42,
    "verify_lemma_43_44": _lemma_43,
}


class Tracer:
    """Spans around package calls, grouped under the op that made them."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._op = -1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _record(self, name_id: int, start: float, end: float) -> int:
        self.name.append(name_id)
        self.parent.append(self._op)
        self.start.append(start)
        self.end.append(end)
        return len(self.name) - 1

    def begin_op(self, kind: str) -> None:
        """Open the span of one op; package calls until end_op are its children."""
        self._op = self._record(self._name_id("op." + kind), time.perf_counter(), 0.0)

    def end_op(self) -> None:
        self.end[self._op] = time.perf_counter()
        self._op = -1

    def wrap(self, module: str, name: str, fn):
        name_id = self._name_id(f"{module}.{name}")
        clock = time.perf_counter
        counts = self.counts
        count = _COUNTERS.get(name)
        names, parents, starts, ends = self.name.append, self.parent.append, self.start.append, self.end.append

        def span(*args, **kwargs):
            start = clock()
            out = fn(*args, **kwargs)
            end = clock()
            names(name_id)
            parents(self._op)
            starts(start)
            ends(end)
            if count:
                count(counts, end - start, args, out)
            return out

        return span

    def module_totals(self) -> dict[str, tuple[int, float]]:
        """Module -> (calls, busy seconds) over the spans of every op but set-up."""
        calls = Counter()
        busy = Counter()
        module_of = [n.split(".", 1)[0] for n in self.names]
        setup = self._ids.get("op.setup")
        for name_id, parent, start, end in zip(self.name, self.parent, self.start, self.end):
            module = module_of[name_id]
            if module in MODULES and (parent < 0 or self.name[parent] != setup):
                calls[module] += 1
                busy[module] += end - start
        return {m: (calls[m], busy[m]) for m in MODULES}

    def write(self, path: str) -> None:
        """All spans as numpy arrays: name id, parent op span (-1 for none), start, end."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def bind(tracer: Tracer | None = None) -> SimpleNamespace:
    """The Api namespace: package functions, wrapped in spans when tracing."""
    api = SimpleNamespace()
    for name, (module, fn) in _functions().items():
        setattr(api, name, fn if tracer is None else tracer.wrap(module, name, fn))
    return api
