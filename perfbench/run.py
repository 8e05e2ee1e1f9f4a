"""Same-host benchmark: one workload, timed end to end, or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload churn-fec-city-10k --seed 1 --seconds 55 --trace 0

Each iteration is one whole scenario (set-up, run, record) in a fresh
process (``iteration.py``).  ``--trace 0`` makes at least two iterations
and otherwise as many as end within ``--seconds``, and reports the
end-to-end metrics as medians over them.  Each iteration also times the
fixed ``reference.py`` work just before and after itself, and its timings
are reported in nominal seconds: as they would read on a host that runs
that work in ``reference.NOMINAL_S``.  That takes out the shared host's
speed swings, which last longer than a run; the wall-clock figures are
in the detail line.

``--trace 1`` makes one untraced and one traced iteration, and reports
the per-layer metrics plus the tracing overhead; the spans are written
to ``.perfbench/spans-<workload>.bin``.

Every iteration's simulated outputs are checked: by a digest pinned per
workload and seed in ``perfbench/digests.json`` (or, for a seed not pinned
there, against the run's first iteration), by output invariants, and, on
the 10k-city workload, by first reproducing the lossy 10k-city goldens of
both channel planes.  An iteration that raises or fails a check
counts all its operations (episodes, or handshakes) as failed.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it carries the host
fingerprint and the details behind the metrics.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

try:
    import reference
    import tracer
    import workloads
except ImportError as exc:  # not a checkout of the program
    print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
    sys.exit(2)

# An iteration takes seconds; a child that runs this long has hung.
CHILD_TIMEOUT_S = 150

UNITS = {"setup_s": "s", "total_s": "s", "frames_per_s": "frames/s",
         "handshakes_per_s": "1/s", "peak_rss_mb": "MiB", "channel.us_per_link": "us"}

clock = time.perf_counter


class IterationFailed(Exception):
    pass


def host() -> dict:
    """What a result may be compared across: same-host records only."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
    }


def child(workload: str, seed: int, mode: str) -> dict:
    """Run ``iteration.py`` in a fresh process and return its JSON result."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "iteration.py"), workload, str(seed), mode],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise IterationFailed(f"{mode} iteration hung for {exc.timeout} s") from None
    if proc.returncode != 0:
        raise IterationFailed(proc.stderr[-3000:] or f"exit code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def phase_sum(it: dict) -> float:
    return sum(it["phases"].values())


def end_to_end(its: list[dict], nominal: bool = True) -> dict[str, float]:
    """Medians over the run's iterations.

    With *nominal*, each iteration's timings are first scaled to the host
    speed ``reference.NOMINAL_S`` stands for, by the reference samples
    taken next to that iteration; without it they are wall times.
    """
    def med(f):
        return statistics.median(f(it) for it in its)

    def seconds(it, phase=None):
        wall = it["phases"][phase] if phase else phase_sum(it)
        return wall * reference.scale(it["reference_s"]) if nominal else wall

    return {
        "setup_s": med(lambda it: seconds(it, "setup")),
        "total_s": med(seconds),
        "frames_per_s": med(lambda it: it["frames"] / seconds(it, "run")),
        "handshakes_per_s": med(lambda it: it["handshakes"] / seconds(it, "run")),
        "peak_rss_mb": med(lambda it: it["peak_rss_mb"]),
    }


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("share", "ratio")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.make(args.workload, args.seed)
    ops = workload.operations
    pins = json.loads((HERE / "digests.json").read_text())
    pinned = pins.get(args.workload, {}).get(str(args.seed))
    reference = pinned  # the digest every iteration must reproduce
    problems: list[str] = []
    attempted = failed = 0

    def one(mode: str) -> dict | None:
        """Run and check one iteration; None if it failed to run."""
        nonlocal attempted, failed, reference
        attempted += ops
        try:
            it = child(args.workload, args.seed, mode)
        except IterationFailed as exc:
            failed += ops
            problems.append(str(exc))
            return None
        why = list(it["problems"])
        if reference is None:
            reference = it["digest"]
        elif it["digest"] != reference:
            why.append(f"output digest {it['digest'][:16]} != {reference[:16]}")
        if why:
            failed += ops
            problems.extend(why)
        return it

    problems += workload.self_check()
    metrics: dict[str, float] = {}
    if args.trace:
        base, traced = one("run"), one("trace")
        its = [it for it in (base, traced) if it is not None]
        if len(its) == 2:
            metrics = dict(traced["layers"])
            metrics["trace.overhead_s"] = phase_sum(traced) - phase_sum(base)
    else:
        # At least two iterations (set-up is a median of several); after
        # that, the next one starts only if it should still end, at the
        # mean pace so far, within the measured time.
        its = []
        start = clock()
        for n in itertools.count(1):
            it = one("run")
            if it is not None:
                its.append(it)
            now = clock()
            if n >= 2 and now + (now - start) / n > start + args.seconds:
                break
        if its:
            metrics = end_to_end(its)

    if not metrics:
        print("\n".join(problems), file=sys.stderr)
        return 1
    first = its[0]
    detail = {
        "host": host(), "workload": args.workload, "seed": args.seed,
        "digest": first["digest"], "digest_pinned": pinned is not None,
        "outputs": first["outputs"], "problems": problems, "iterations": len(its),
        "phases_s": {k: [it["phases"][k] for it in its] for k in first["phases"]},
    }
    if not args.trace:
        detail["reference_s"] = [statistics.median(it["reference_s"]) for it in its]
        detail["wall_metrics"] = end_to_end(its, nominal=False)
    if first["reply_s"]:
        reply = [s for it in its for s in it["reply_s"]]
        verify = [s for it in its for s in it["verify_s"]]
        detail.update(
            reply_calls=len(reply), verify_calls=len(verify),
            reply_p50_ms=tracer.percentile(reply, 50) * 1e3,
            reply_p99_ms=tracer.percentile(reply, 99) * 1e3,
            verify_p50_ms=tracer.percentile(verify, 50) * 1e3,
            verify_p99_ms=tracer.percentile(verify, 99) * 1e3,
        )
    print(json.dumps(detail, sort_keys=True))
    if problems:
        print("\n".join(problems), file=sys.stderr)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
