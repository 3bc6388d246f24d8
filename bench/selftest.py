"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs small slices of two workloads with faults injected into the answers the
package returns, and requires every corrupted op to be counted as failed,
while the same slices without faults report no failure:

- corrupted witness: the last member of each certificate's witness is
  swapped for a k-set outside it, so the witness no longer attains the
  reported minimum;
- wrong minimum: each certificate reports its minimum plus one;
- wrong count: disjoint_pairs reports its count plus one;
- over-pruned search: on the grid instances the seed could not certify but
  has a witness below the lex value, the search stops after 1000 nodes and
  claims the lex segment is optimal.  The witness recounts and lies between
  the bounds, so only the stored upper bound can catch it.

Exits 1 when a fault goes unnoticed or a clean slice fails.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from tracing import bind  # noqa: E402
from worker import run_pass  # noqa: E402
from workloads import Context, build_certify_grid, build_many_small  # noqa: E402

FAMILY_SLICE = 300


def _patched(obj, **fields):
    """A copy of a frozen result object with some fields replaced."""
    out = copy.copy(obj)
    for name, value in fields.items():
        object.__setattr__(out, name, value)
    return out


def corrupt_witness(api):
    from setfam import SetFamily, all_kset_masks, disjoint_pairs

    certify = api.certify_minimum

    def wrapped(params, stat, config):
        cert = certify(params, stat, config)
        w = cert.witness
        for outside in all_kset_masks(w.n, w.k):
            if outside in w:
                continue
            bad = SetFamily(w.n, w.k, w.masks[:-1] + (outside,))
            if disjoint_pairs(bad).value != cert.minimum:
                return _patched(cert, witness=bad)
        return _patched(cert, witness=SetFamily(w.n, w.k, w.masks[:-1]))

    api.certify_minimum = wrapped


def wrong_minimum(api):
    certify = api.certify_minimum
    api.certify_minimum = lambda *args: _patched(cert := certify(*args), minimum=cert.minimum + 1)


def wrong_count(api):
    count = api.disjoint_pairs
    api.disjoint_pairs = lambda f: _patched(rep := count(f), value=rep.value + 1)


def over_pruned(api):
    from setfam import lex_segment

    certify = api.certify_minimum

    def wrapped(params, stat, config):
        cert = certify(params, stat, dataclasses.replace(config, node_budget=1000))
        lex = lex_segment(params.n, params.k, params.s)
        return _patched(cert, complete=True, minimum=cert.lex_value, witness=lex, lex_optimal=True)

    api.certify_minimum = wrapped


def below_lex(op, ctx) -> bool:
    """A grid instance the seed could not certify, with a stored witness below the lex value."""
    n, k, s = op.arg[0][:3]
    entry = ctx.table["disjoint_pairs"][f"{n},{k},{s}"]
    return not entry["complete"] and ctx.upper_bound("disjoint_pairs", n, k, s) < entry["lex_value"]


def failed_ops(ops, fault=None) -> int:
    api = bind()
    if fault:
        fault(api)
    ctx = Context()
    refs = [op.reference(op.arg, ctx) for op in ops]
    return len(run_pass(ops, api, refs)[2])


def main() -> int:
    api = bind()
    workdir = BENCH.parent / ".bench_work" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        all_grid = [op for op in build_certify_grid(1, api, workdir) if op.kind == "certify"]
        grid = [op for op in all_grid if op.arg[0][:2] == (6, 2) and op.arg[0].s >= 2]
        ctx = Context()
        open_grid = [op for op in all_grid if below_lex(op, ctx)]
        small = build_many_small(1, api, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    families = [op for op in small if op.kind == "family" and len(op.arg[3]) >= 2][:FAMILY_SLICE]

    cases = [
        ("clean certify-grid slice", grid, None, 0),
        ("clean many-small slice", families, None, 0),
        ("corrupted witness", grid, corrupt_witness, len(grid)),
        ("wrong minimum", grid, wrong_minimum, len(grid)),
        ("wrong count", families, wrong_count, len(families)),
        ("over-pruned search", open_grid, over_pruned, len(open_grid)),
    ]
    ok = True
    for label, ops, fault, expected in cases:
        failed = failed_ops(ops, fault)
        verdict = "ok" if failed == expected else "WRONG"
        ok &= failed == expected
        print(f"{label:26} {len(ops):4} ops, {failed:4} failed, expected {expected:4}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
