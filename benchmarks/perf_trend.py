"""Aggregate every ``BENCH_*.json`` into one speedup-trajectory table.

Each floored benchmark writes a machine-readable ``BENCH_<name>.json``
next to its human-readable table (see ``harness.write_json``).  This
script folds them into a single trajectory view — the chain of
steady-state wins from the reference detectors to the epoch
detectors:

    reference → epoch fast paths (smarttrack)

so one artifact answers "how much headroom is left above each floor".
These are warm re-analysis figures; the cold end-to-end numbers come
from the e2ebench (``e2ebench/run.py``).  Run it after the benches; it
writes ``perf_trend.txt`` / ``perf_trend.json`` next to the per-bench
results.

Usage::

    python perf_trend.py [--results-dir results]

Reporting-only: floors are *asserted* by the benches themselves; here
a below-floor row is flagged in the table but does not fail the run,
so a partial results directory still produces a trajectory for the
rows it has.
"""

from __future__ import annotations

import argparse
import json
import pathlib
from typing import Any, Dict, List, Optional

#: Trajectory order: the chain of wins, reference detectors first.
#: Files not listed here sort after these, alphabetically.
TRAJECTORY = [
    "BENCH_smarttrack.json",    # reference → epoch/ownership fast paths
]

#: Row lists worth surfacing, with a qualifier for the second leg.
ROW_KEYS = [("rows", ""), ("filtered_rows", " [filtered]")]


def _throughputs(row: Dict[str, Any]) -> List[str]:
    """The two ``*_events_per_sec`` columns, baseline first (the
    benches all name the baseline column first in insertion order,
    but JSON sorts keys — recover the pair by the ``speedup`` ratio)."""
    pairs = sorted((k, v) for k, v in row.items()
                   if k.endswith("_events_per_sec"))
    if len(pairs) != 2:
        return [k.replace("_events_per_sec", "") for k, _ in pairs]
    (ka, va), (kb, vb) = pairs
    if va > vb:  # baseline is the slower side
        (ka, va), (kb, vb) = (kb, vb), (ka, va)
    return [f"{ka.replace('_events_per_sec', '')}={va:,.0f}",
            f"{kb.replace('_events_per_sec', '')}={vb:,.0f}"]


def collect(results_dir: pathlib.Path) -> List[Dict[str, Any]]:
    """Flatten every speedup row of every ``BENCH_*.json`` found."""
    order = {name: i for i, name in enumerate(TRAJECTORY)}
    files = sorted(results_dir.glob("BENCH_*.json"),
                   key=lambda p: (order.get(p.name, len(order)), p.name))
    flat: List[Dict[str, Any]] = []
    for path in files:
        doc = json.loads(path.read_text(encoding="utf-8"))
        stage = path.stem.replace("BENCH_", "")
        for key, qualifier in ROW_KEYS:
            for row in doc.get(key, []):
                if "speedup" not in row:
                    continue  # throughput-only tables (serve, table4)
                floor: Optional[float] = row.get("floor")
                flat.append({
                    "stage": stage + qualifier,
                    "configuration": row.get("configuration", "?"),
                    "speedup": row["speedup"],
                    "floor": floor,
                    "margin": (round(row["speedup"] - floor, 3)
                               if floor is not None else None),
                    "throughput": _throughputs(row),
                    "source": path.name,
                })
    return flat


def render(rows: List[Dict[str, Any]]) -> str:
    lines = ["Speedup trajectory (every floored bench, one table)",
             f"{'stage':22s} | {'configuration':22s} | {'speedup':>8s} | "
             f"{'floor':>6s} | {'margin':>7s}",
             "-" * 78]
    for r in rows:
        floor = f"{r['floor']:5.2f}x" if r["floor"] is not None else "     -"
        margin = (f"{r['margin']:+6.2f}x" if r["margin"] is not None
                  else "      -")
        flag = "  << below floor" if (
            r["floor"] is not None and r["speedup"] < r["floor"]) else ""
        lines.append(f"{r['stage']:22s} | {r['configuration']:22s} | "
                     f"{r['speedup']:7.2f}x | {floor} | {margin}{flag}")
    if not rows:
        lines.append("(no BENCH_*.json with speedup rows found)")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results-dir", type=pathlib.Path,
        default=pathlib.Path(__file__).parent / "results",
        help="directory holding BENCH_*.json (default: ./results)")
    args = parser.parse_args(argv)

    rows = collect(args.results_dir)
    table = render(rows)
    args.results_dir.mkdir(exist_ok=True)
    (args.results_dir / "perf_trend.txt").write_text(
        table + "\n", encoding="utf-8")
    (args.results_dir / "perf_trend.json").write_text(
        json.dumps({"rows": rows}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    print(table)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
