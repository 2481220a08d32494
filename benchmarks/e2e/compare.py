"""Compare two suite results: ``compare.py A.json B.json``.

``A`` is the base (the parent commit), ``B`` the change; both come from
``bench_e2e.py --json``. One row per (workload, metric) with both
medians and the ratio B/A. An end-to-end metric is

* ``regressed`` when B's median is worse than A's by more than the
  metric's bound — the exit code is then non-zero;
* ``unresolved`` when either side's own min-max spread exceeds the
  bound (and not every run of B beats every run of A): the runs cannot
  tell, which is not the same as ``unchanged``;
* ``better`` or ``unchanged`` otherwise. ``better`` is a label, not a
  claim: a gain is claimed from ten alternating pairs, as the README
  says.

More failures per attempt in B, or a failed output check, also exit
non-zero. When both results used one seed, the output digest and the
exactly-repeating counts are compared too (reported, not failed: a
change may mean to alter them).
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Tuple


def worse_by(a: float, b: float, better: str) -> float:
    """Share of ``a`` by which ``b`` is worse (negative: better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def _spread(m: Dict[str, float]) -> float:
    return (m["max"] - m["min"]) / abs(m["median"]) if m["median"] else 0.0


def verdict(a: Dict[str, float], b: Dict[str, float], better: str,
            bound: float) -> str:
    worse = worse_by(a["median"], b["median"], better)
    if worse > bound:
        return "regressed"
    b_beats_a = (b["max"] < a["min"] if better == "lower"
                 else b["min"] > a["max"])
    if max(_spread(a), _spread(b)) > bound and not b_beats_a:
        return "unresolved"
    return "better" if worse < -bound else "unchanged"


def compare(base: Dict[str, Any], change: Dict[str, Any],
            ) -> Tuple[List[str], List[str]]:
    """-> (table rows, reasons to fail)."""
    rows = [f"{'workload':<15} {'metric':<44} {'A':>14} {'B':>14} "
            f"{'B/A':>7}  verdict"]
    failures = []
    specs = base["end_to_end"]
    for name, a_entry in base["workloads"].items():
        b_entry = change["workloads"].get(name)
        if b_entry is None:
            failures.append(f"{name}: missing from B")
            continue
        for metric, spec in specs.items():
            a, b = a_entry["end_to_end"][metric], b_entry["end_to_end"][metric]
            what = verdict(a, b, spec["better"], spec["bound"])
            ratio = b["median"] / a["median"] if a["median"] else float("nan")
            rows.append(
                f"{name:<15} {metric:<44} {a['median']:>14.4f} "
                f"{b['median']:>14.4f} {ratio:>7.3f}  {what} "
                f"(base A, {spec['better']} is better, bound "
                f"{spec['bound']:.0%}, {spec['unit']})")
            if what == "regressed":
                failures.append(f"{name}.{metric}: {what}")
        a_failed, b_failed = (a_entry["failed_fraction"],
                              b_entry["failed_fraction"])
        increased = b_failed > a_failed
        rows.append(f"{name:<15} {'failed_fraction':<44} {a_failed:>14.6f} "
                    f"{b_failed:>14.6f} {'':>7}  "
                    f"{'regressed' if increased else 'unchanged'} "
                    f"(no increase allowed)")
        if increased:
            failures.append(f"{name}.failed_fraction: increased")
        if base.get("seed") == change.get("seed"):
            # same inputs: a change that keeps behaviour keeps these
            for what in ("digest", "counts"):
                same = a_entry.get(what) == b_entry.get(what)
                rows.append(f"{name:<15} {what:<44} {'':>14} {'':>14} {'':>7}  "
                            f"{'identical' if same else 'DIFFERS'} "
                            f"(outputs of seed {base.get('seed')})")
        if not b_entry["correct"]:
            failures.append(f"{name}: output checks failed in B: "
                            f"{b_entry['problems']}")
        b_layers = b_entry.get("per_layer", {})
        for metric, a in a_entry.get("per_layer", {}).items():
            if metric not in b_layers:
                continue
            b = b_layers[metric]
            ratio = b["value"] / a["value"] if a["value"] else float("nan")
            rows.append(f"{name:<15} {metric:<44} {a['value']:>14.4f} "
                        f"{b['value']:>14.4f} {ratio:>7.3f}  "
                        f"(per layer, base A, {a['unit']})")
    return rows, failures


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        base = json.load(handle)
    with open(argv[1]) as handle:
        change = json.load(handle)
    rows, failures = compare(base, change)
    print("\n".join(rows))
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
