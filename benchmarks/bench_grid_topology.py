"""Spatial-grid topology index vs the naive all-pairs scan, at city scale.

Two measurements guarding the city-scale substrate:

1. ``test_grid_beats_naive_at_5k`` measures one full topology build over a
   5 000-node random-waypoint placement, brute force vs
   :class:`~repro.network.topology.SpatialGrid`, asserts the grid is
   >= 5x faster *and* returns the identical adjacency, then measures an
   incremental refresh (``topology_delta`` after a mobility step).  Emits
   a ``PERF_RECORD {...}`` JSON line.
2. ``test_city_topology_scales`` builds a 10 000-node connected city
   topology through the grid path and emits its build time — the number
   future scaling PRs regress against.
3. ``test_churn_runner_index_beats_scan`` drives a
   :class:`~repro.network.churn.ChurnRunner` through ~300 join, leave,
   crash and wake actions over a 10 000-node placement and times its
   indexed join/wake neighbourhood lookup against the brute-force scan
   of every position, asserting identical lists and the speedup floor.

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_grid_topology.py -s
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from repro.network.churn import ChurnModel, ChurnRunner, ChurnSpec
from repro.network.mobility import RandomWaypoint
from repro.network.topology import city_topology, naive_adjacency

# The brute-force join-neighbourhood oracle lives with the runner's tests.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests" / "network"))
from test_churn_runner import scan_neighbours  # noqa: E402

N_NODES = 5_000
RADIUS = 0.02  # expected degree = n * pi * r^2 ~ 6.3
# Local/perf runs assert the real 5x floor (~30x in practice); CI runs on
# shared runners where wall-clock ratios are noise-gated and lowers it.
SPEEDUP_FLOOR = float(os.environ.get("GRID_SPEEDUP_FLOOR", "5"))


def test_grid_beats_naive_at_5k():
    """Full build >= 5x over brute force; incremental refresh far cheaper."""
    model = RandomWaypoint([f"n{i}" for i in range(N_NODES)], seed=3)
    positions = model.positions()

    start = time.perf_counter()
    naive = naive_adjacency(positions, RADIUS)
    naive_s = time.perf_counter() - start

    start = time.perf_counter()
    grid = model.snapshot_topology(RADIUS)
    grid_s = time.perf_counter() - start

    assert grid == naive, "grid adjacency diverged from the all-pairs reference"

    # One mobility step, then the incremental path: only moved
    # neighbourhoods are re-examined and only changed rows returned.
    model.step(0.5)
    start = time.perf_counter()
    delta = model.topology_delta(RADIUS)
    incremental_s = time.perf_counter() - start
    assert model.snapshot_topology(RADIUS) == naive_adjacency(model.positions(), RADIUS)

    speedup = naive_s / grid_s
    record = {
        "bench": "grid_topology_refresh",
        "nodes": N_NODES,
        "radius": RADIUS,
        "edges": sum(len(v) for v in grid.values()) // 2,
        "naive_seconds": round(naive_s, 4),
        "grid_seconds": round(grid_s, 4),
        "incremental_seconds": round(incremental_s, 4),
        "delta_rows": len(delta),
        "speedup": round(speedup, 2),
    }
    print()
    print("PERF_RECORD " + json.dumps(record))
    assert speedup >= SPEEDUP_FLOOR, (
        f"grid topology build {speedup:.1f}x < required {SPEEDUP_FLOOR}x over naive"
    )


def test_city_topology_scales():
    """A connected 10k-node city builds through the grid in interactive time."""
    start = time.perf_counter()
    adjacency, positions = city_topology(10_000, 0.018, seed=1)
    build_s = time.perf_counter() - start

    assert len(adjacency) == 10_000
    mean_degree = sum(len(v) for v in adjacency.values()) / len(adjacency)
    assert mean_degree >= 2, "city too sparse to be a plausible MANET"

    record = {
        "bench": "city_topology_build",
        "nodes": 10_000,
        "radius": 0.018,
        "mean_degree": round(mean_degree, 2),
        "build_seconds": round(build_s, 4),
    }
    print()
    print("PERF_RECORD " + json.dumps(record))


class _LookupTimer:
    """Engine stand-in: at each join or wake, times both lookups."""

    def __init__(self):
        self.runner = None
        self.index_s = 0.0
        self.scan_s = 0.0
        self.lookups = 0

    def join_node(self, node_id, participant, neighbours, *, position):
        runner = self.runner
        start = time.perf_counter()
        indexed = runner.neighbours_of(node_id)
        self.index_s += time.perf_counter() - start
        start = time.perf_counter()
        scanned = scan_neighbours(runner.positions, runner.live, node_id, runner.radio_radius)
        self.scan_s += time.perf_counter() - start
        assert indexed == scanned == neighbours, f"{node_id}: index diverged from the scan"
        self.lookups += 1

    def step(self, now_ms):
        pass

    def crash_node(self, node_id):
        pass

    def leave_node(self, node_id):
        pass

    def forget_node(self, node_id):
        pass


def test_churn_runner_index_beats_scan():
    """Join/wake neighbourhoods from the runner's grid: same lists, faster."""
    nodes = 10_000
    positions = RandomWaypoint([f"n{i}" for i in range(nodes)], seed=3).positions()
    spec = ChurnSpec(join_rate_per_s=3.0, leave_rate_per_s=3.0,
                     crash_rate_per_s=3.0, sleep_ms=3_000)
    timer = _LookupTimer()
    runner = ChurnRunner(timer, ChurnModel(spec, seed=3),
                         positions=positions, radio_radius=RADIUS)
    timer.runner = runner
    runner.drive(0, 25_000)

    assert runner.events_applied >= 250 and timer.lookups >= 100
    speedup = timer.scan_s / timer.index_s
    record = {
        "bench": "churn_runner_neighbourhoods",
        "nodes": nodes,
        "radius": RADIUS,
        "actions": runner.events_applied,
        "lookups": timer.lookups,
        "scan_seconds": round(timer.scan_s, 4),
        "index_seconds": round(timer.index_s, 4),
        "speedup": round(speedup, 2),
    }
    print()
    print("PERF_RECORD " + json.dumps(record))
    assert speedup >= SPEEDUP_FLOOR, (
        f"indexed join neighbourhoods {speedup:.1f}x < required {SPEEDUP_FLOOR}x over the scan"
    )


if __name__ == "__main__":
    test_grid_beats_naive_at_5k()
    test_city_topology_scales()
    test_churn_runner_index_beats_scan()
