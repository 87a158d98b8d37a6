"""Pin known-good inputs and verdict digests into ``expected_digests.json``.

For every workload and seed it generates the input as a run would,
computes the oracle (reference detectors plus VindicateRace under the
pure-Python kernels) and records the schedule seed, the trace file's
SHA-256, its event count and the verdict digest. ``run.py`` then checks
runs on a pinned seed against these figures instead of against the
code being measured. Run it from the root of a checkout, only on a
commit whose verdicts are known to be right::

    python3 e2ebench/pin.py --seeds 0-99
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from inputs import (PINNED_PATH, WORKLOADS, make_input,  # noqa: E402
                    oracle_digest)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="a range, e.g. 0-99")
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)

    table: Dict[str, Dict[str, Any]] = {}
    if os.path.exists(PINNED_PATH):
        with open(PINNED_PATH, encoding="utf-8") as handle:
            table = json.load(handle)
    # Workloads that share a generator share their pins.
    done: Dict[Any, Dict[str, Any]] = {}
    with tempfile.TemporaryDirectory() as directory:
        for workload in sorted(WORKLOADS):
            for seed in seeds:
                key = (WORKLOADS[workload], seed)
                if key not in done:
                    provenance = make_input(workload, seed, directory)
                    oracle = oracle_digest(provenance["path"])
                    done[key] = {
                        "schedule_seed": provenance["schedule_seed"],
                        "trace_sha256": provenance["trace_sha256"],
                        "events": provenance["events"],
                        **oracle,
                    }
                table.setdefault(workload, {})[str(seed)] = done[key]
                print(workload, seed, done[key]["digest"][:12], flush=True)
    with open(PINNED_PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
