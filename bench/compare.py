"""Compare benchmark runs of a parent commit and a change.

Usage::

    python bench/compare.py --parent P1.json ... --change C1.json ...

Each file is a result record written by ``bench/run.py --out``; the
i-th parent file and the i-th change file form a pair (run them
alternately, parent first in odd pairs and change first in even ones).
For every workload and metric this prints each side's median and
quartiles, the share of pairs the change won (ties count for neither)
and a verdict:

* ``improved``: the change won at least 9 of 10 pairs and the medians
  differ, in the better direction, by more than the parent's IQR;
* ``unresolved``: the parent's IQR exceeds the metric's bound (as a
  share of its median) and not every change run beats every parent run;
* ``regressed``: the change's median is worse than the parent's by more
  than the bound;
* ``within bound``: otherwise.

Per-layer metrics have no bound; they are reported with ``improved`` or
``-``. Fewer than ten pairs print a warning: the rule needs ten.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
if not __package__:
    # Run as a script: import the bench package from the checkout root.
    sys.path[0] = str(ROOT)

from bench.stats import percentile  # noqa: E402

MIN_PAIRS = 10


def load(path: str) -> dict[str, dict[str, float]]:
    """Workload -> metric -> value from one result record."""
    data = json.loads(Path(path).read_text())
    return {
        w: {m: float(v["value"]) for m, v in rec["metrics"].items()}
        for w, rec in data["workloads"].items()
    }


def verdict(
    parent: list[float], change: list[float], better: str, bound: float | None
) -> dict[str, Any]:
    """Summary and verdict for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    p50, c50 = percentile(parent, 50), percentile(change, 50)
    iqr = percentile(parent, 75) - percentile(parent, 25)
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    gap = sign * (p50 - c50)  # positive: the change is better
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if wins >= 0.9 * len(parent) and gap > iqr:
        call = "improved"
    elif bound is None:
        call = "-"
    elif p50 and iqr / abs(p50) > bound and not all_better:
        call = "unresolved"
    elif p50 and -gap / abs(p50) > bound:
        call = "regressed"
    else:
        call = "within bound"
    return {
        "parent": (percentile(parent, 25), p50, percentile(parent, 75)),
        "change": (percentile(change, 25), c50, percentile(change, 75)),
        "wins": wins,
        "pairs": len(parent),
        "verdict": call,
    }


def compare(parent_files: list[str], change_files: list[str]) -> list[tuple[str, str, dict[str, Any]]]:
    if len(parent_files) != len(change_files):
        raise SystemExit("compare: --parent and --change need the same number of files")
    cfg = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = {m["name"]: m for m in cfg["end_to_end"] + cfg["per_layer"]}
    parents = [load(f) for f in parent_files]
    changes = [load(f) for f in change_files]
    rows = []
    for workload in sorted(set().union(*parents, *changes)):
        names = sorted(set().union(*(r.get(workload, {}) for r in parents + changes)))
        for name in names:
            p = [r[workload][name] for r in parents if name in r.get(workload, {})]
            c = [r[workload][name] for r in changes if name in r.get(workload, {})]
            if len(p) != len(parents) or len(c) != len(changes) or name not in meta:
                continue
            rows.append((workload, name, verdict(p, c, meta[name]["better"], meta[name].get("bound"))))
    return rows


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", nargs="+", required=True, help="result records of the parent")
    p.add_argument("--change", nargs="+", required=True, help="result records of the change")
    args = p.parse_args(argv)
    if len(args.parent) < MIN_PAIRS:
        print(f"warning: {len(args.parent)} pairs; a gain needs at least {MIN_PAIRS}")
    rows = compare(args.parent, args.change)
    print(f"{'workload':22} {'metric':40} {'parent q1/med/q3':>30} {'change q1/med/q3':>30} {'won':>6}  verdict")
    for workload, name, v in rows:
        side = ["/".join(f"{x:.4g}" for x in v[k]) for k in ("parent", "change")]
        print(f"{workload:22} {name:40} {side[0]:>30} {side[1]:>30} {v['wins']:>3}/{v['pairs']:<2}  {v['verdict']}")
    return 1 if any(v["verdict"] == "regressed" for _, _, v in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
