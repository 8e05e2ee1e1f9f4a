"""Pin the simulated-output digest of every workload for a range of seeds.

    python3 perfbench/pin_digests.py 0 31 [WORKLOAD ...]

runs one untraced iteration per workload (default: all) and seed and writes
``perfbench/digests.json``, which ``run.py`` checks every iteration
against.  Re-pin only when a change is meant to alter simulated outputs,
and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main(first: int, last: int, names: list[str]) -> None:
    path = HERE / "digests.json"
    pins = json.loads(path.read_text())
    for name in names or workloads.WORKLOADS:
        for seed in range(first, last + 1):
            it = workloads.make(name, seed).iteration()
            if it.problems:
                raise SystemExit(f"{name} seed {seed}: {it.problems}")
            pins.setdefault(name, {})[str(seed)] = it.digest
            print(name, seed, it.digest, flush=True)
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]), sys.argv[3:])
