"""One benchmark iteration in a fresh process, as one `experiments run` is.

    python3 perfbench/iteration.py WORKLOAD SEED run|trace

``run`` makes one untraced iteration and times ``reference.py`` just
before and after it; ``trace`` makes one iteration with span tracing
installed (it also writes the spans to ``.perfbench/spans-<workload>.bin``).
Standard output is the result as one line of JSON.
``run.py`` starts this once per iteration, so no iteration inherits
another's heap, caches or garbage-collector state.
"""

from __future__ import annotations

import json
import resource
import sys
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def main(name: str, seed: int, mode: str) -> dict:
    workload = workloads.make(name, seed)
    if mode == "run":
        before = reference.samples()
        out = asdict(workload.iteration())
        out["reference_s"] = before + reference.samples()
    elif mode == "trace":
        spans = tracer.Tracer()
        with spans.installed():
            it = workload.iteration(spans)
        out = asdict(it)
        out["layers"] = tracer.layer_metrics(spans, delivered_frames=it.delivered,
                                             handshakes=it.handshakes, ops=it.ops)
        spans.write(HERE.parent / ".perfbench" / f"spans-{name}.bin")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]), sys.argv[3])))
