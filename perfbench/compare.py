"""Compare mode: two directories of untraced result files, per workload
and end-to-end metric, judged by the rule for claiming a gain:

* **better** — the change wins at least nine tenths of the pairs (ties
  count for neither side) and its median beats the parent's by more
  than the parent's own inter-quartile distance;
* **worse** — the same rule with the sides swapped, or the change's
  median is worse than the parent's by more than the metric's bound
  while the parent's spread is within it;
* **unresolved** — anything else.

Runs are paired by seed when both sides used the same seeds, otherwise
in file order.
"""

from __future__ import annotations

import json
from pathlib import Path

import stats


def load(directory: str) -> dict[str, dict[int, dict]]:
    """workload -> seed -> metrics of every ``*-trace0.json`` file."""
    out: dict[str, dict[int, dict]] = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        record = json.loads(path.read_text())
        prov = record["provenance"]
        out.setdefault(prov["workload"], {})[prov["seed"]] = {
            name: m["value"] for name, m in record["metrics"].items()
        }
    return out


def pairs(parent: dict[int, dict], change: dict[int, dict]) -> list[tuple[dict, dict]]:
    common = sorted(set(parent) & set(change))
    if common:
        return [(parent[s], change[s]) for s in common]
    return list(zip((parent[s] for s in sorted(parent)),
                    (change[s] for s in sorted(change))))


def verdict(p: list[float], c: list[float], paired: list[tuple[float, float]],
            lower_is_better: bool, bound: float) -> tuple[str, int, int]:
    """(verdict, pairs the change won, pairs the parent won)."""
    sign = 1 if lower_is_better else -1
    won = sum(1 for a, b in paired if sign * (b - a) < 0)
    lost = sum(1 for a, b in paired if sign * (b - a) > 0)
    q1, p_med, q3 = stats.quartiles(p)
    c_med = stats.quartiles(c)[1]
    gain = sign * (p_med - c_med)  # > 0 when the change is better
    need = 0.9 * len(paired)
    if paired and won >= need and gain > q3 - q1:
        return "better", won, lost
    if paired and lost >= need and -gain > q3 - q1:
        return "worse", won, lost
    if -gain > bound * abs(p_med) and stats.spread(p) <= bound:
        return "worse", won, lost
    return "unresolved", won, lost


def main(parent_dir: str, change_dir: str, benchmark: dict) -> int:
    parent, change = load(parent_dir), load(change_dir)
    print(f"parent {parent_dir}  change {change_dir}")
    print(f"{'workload':<14} {'metric':<12} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'won':>7} {'verdict':>10}")
    for workload in (w["name"] for w in benchmark["workloads"]):
        if workload not in parent or workload not in change:
            print(f"{workload:<14} (missing on one side)")
            continue
        runs = pairs(parent[workload], change[workload])
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            p = [a[name] for a in parent[workload].values()]
            c = [b[name] for b in change[workload].values()]
            paired = [(a[name], b[name]) for a, b in runs]
            v, won, lost = verdict(p, c, paired, metric["better"] == "lower",
                                   metric["bound"])
            pq = "/".join(f"{x:.4g}" for x in stats.quartiles(p))
            cq = "/".join(f"{x:.4g}" for x in stats.quartiles(c))
            print(f"{workload:<14} {name:<12} {pq:>32} {cq:>32} "
                  f"{won:>3}/{len(paired):<3} {v:>10}")
    return 0
