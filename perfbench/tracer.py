"""Span tracing for the benchmark's traced run, from outside the program.

The program itself carries no tracing hooks, so the traced run swaps the
public functions of each layer for thin wrappers at the names the callers
actually look up at call time, runs one iteration, and puts every original
back.  Untraced runs never install anything: the program runs exactly the
objects it ships (``test_perfbench.py`` pins that by identity).

Each wrapped call records a span -- name, start, end and the enclosing
span as its cause -- into flat in-memory arrays; the spans are written out
once, when the run ends.  A span's self time is its duration minus the time
its child spans cover.

Where the wrappers go, and why there:

- the engine binds ``decode_frame``, ``reframe``, the ``encode_*_frame``
  and ``decode_reply*`` codecs and the FEC helpers at import time, so they
  are wrapped in ``repro.network.engine``'s namespace, not in the modules
  that define them;
- ``Participant.handle_request`` calls ``process_request`` through
  ``repro.core.protocols``'s namespace, and ``process_request`` calls
  ``iter_candidates``/``solve_candidate`` through ``repro.core.matching``'s;
- methods (channel, sessions, events, protocol drivers, crypto backend,
  engine lifecycle) are wrapped on the class that defines them.

Not measurable from outside: ``SessionTable.lookup`` is a per-instance
``dict.get`` stored in a slot, so its calls stay inside the caller's self
time (the engine's delivery loop, i.e. ``events``).
"""

from __future__ import annotations

import gc
import inspect
import json
import statistics
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable

from repro.analysis import experiments
from repro.analysis.counters import SYMMETRIC_OPS
from repro.core import matching, profile_vector, protocols, request
from repro.crypto import backend
from repro.network import (
    channel_model,
    churn,
    engine,
    events,
    mobility,
    sessions,
    simulator,
    topology,
)

clock = time.perf_counter


def _arg_len(name: str, position: int | None = None) -> Callable:
    """Counter hook: the length of argument *name* (positional index *position*)."""
    def count(args, kwargs, result) -> int:
        return len(kwargs[name] if position is None or name in kwargs else args[position])
    return count


def _edges(args, kwargs, result) -> int:
    return sum(len(v) for v in result.values()) // 2


# (owner, attribute, span name, layer, extra counter name, counter hook).
# The layer names are the per-layer groups the benchmark reports; every
# span of a layer adds its self time to that layer.
TARGETS: tuple[tuple[Any, str, str, str, str | None, Callable | None], ...] = (
    (experiments, "_build_population", "experiments.build_population", "population",
     None, None),
    (profile_vector.ParticipantVector, "from_profile", "profile_vector.from_profile",
     "population", None, None),
    (mobility.RandomWaypoint, "__init__", "topology.placement", "topology", None, None),
    (mobility._GridTopologyMixin, "snapshot_topology", "topology.snapshot", "topology",
     "topology.edges", _edges),
    (topology, "_components", "topology.components", "topology", None, None),
    (simulator.AdHocNetwork, "__init__", "simulator.network_build", "simulator",
     None, None),
    (engine.FriendingEngine, "__init__", "engine.build", "simulator", None, None),
    (events.EventQueue, "run", "events.run", "events",
     "events.dispatched", lambda args, kwargs, result: result),
    (channel_model.ChannelModel, "transmit_many", "channel.transmit_many", "channel",
     "channel.links", _arg_len("dsts")),
    (channel_model.ChannelModel, "transmit", "channel.transmit", "channel",
     "channel.links", lambda args, kwargs, result: 1),
    (engine, "decode_frame", "wire.decode_frame", "codec", None, None),
    (engine, "reframe", "wire.reframe", "codec", None, None),
    (engine, "encode_request_frame", "wire.encode_request_frame", "codec", None, None),
    (engine, "encode_reply_frame", "wire.encode_reply_frame", "codec", None, None),
    (engine, "encode_segment_frame", "wire.encode_segment_frame", "codec", None, None),
    (engine, "decode_reply", "wire.decode_reply", "codec", None, None),
    (engine, "decode_reply_segment", "wire.decode_reply_segment", "codec", None, None),
    (request.RequestPackage, "decode", "request.decode", "codec", None, None),
    (sessions.SessionTable, "open", "sessions.open", "sessions",
     "sessions.overflow", lambda args, kwargs, result: result is None),
    (protocols.Participant, "handle_request", "protocols.handle_request", "protocols",
     "protocols.replies", lambda args, kwargs, result: result is not None),
    (protocols.Initiator, "handle_reply", "protocols.handle_reply", "protocols",
     None, None),
    (protocols, "process_request", "matching.process_request", "matching", None, None),
    (matching, "iter_candidates", "matching.iter_candidates", "matching", None, None),
    (matching, "solve_candidate", "hint.solve_candidate", "hint", None, None),
    (backend.TablesBackend, "seal_many", "crypto.seal_many", "crypto", None, None),
    (backend.TablesBackend, "open_many", "crypto.open_many", "crypto",
     "crypto.open_many_keys", _arg_len("keys", 1)),
    (engine, "fec_parity_elements", "reliability.fec_parity", "reliability", None, None),
    (engine, "fec_reconstruct", "reliability.fec_reconstruct", "reliability",
     None, None),
    (engine.FriendingEngine, "begin", "engine.begin", "lifecycle", None, None),
    (engine.FriendingEngine, "step", "engine.step", "lifecycle", None, None),
    (engine.FriendingEngine, "finish", "engine.finish", "lifecycle", None, None),
    (churn.ChurnRunner, "drive", "churn.drive", "lifecycle", None, None),
    (engine.FriendingEngine, "join_node", "churn.join_node", "lifecycle", None, None),
    (engine.FriendingEngine, "leave_node", "churn.leave_node", "lifecycle", None, None),
)

# Garbage collections are spans too (layer "gc"), so a collection's pause
# is not charged to whichever layer happened to allocate.  The benchmark's
# own phase spans are the roots (layer "bench"): their self time is what no
# wrapped call covers.
GC_SPAN = "gc.collect"
LAYERS = ("population", "topology", "simulator", "events", "channel", "codec",
          "sessions", "protocols", "matching", "hint", "crypto", "reliability",
          "lifecycle", "gc", "bench")

_ITER_CANDIDATES = "matching.iter_candidates"
_LATENCY_SPANS = frozenset({"protocols.handle_request", "protocols.handle_reply"})


def originals() -> dict[tuple[int, str], Any]:
    """The objects every target name holds right now, keyed by (owner id, name)."""
    return {(id(owner), attr): owner.__dict__[attr] for owner, attr, *_ in TARGETS}


class Tracer:
    """In-memory span recorder.

    Spans live in four parallel arrays (name id, parent index, start, end),
    26 bytes a span, so even millions of calls fit in memory until the end.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self._gc_span = -1

    # -- recording ------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        index = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(index)
        self.end.append(0.0)
        self.start.append(clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(index)

    def add(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- wrapping -------------------------------------------------------------

    def _wrap_function(self, fn, name: str, counter: str | None, hook) -> Callable:
        nid = self.name_id(name)
        open_, close, add = self.open, self.close, self.add

        if name == _ITER_CANDIDATES:
            # A generator: the work happens in next(), so each next() is a
            # span, and every candidate it yields is counted.
            def traced_gen(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        index = open_(nid)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            close(index)
                        add("matching.candidates", 1)
                        yield item
                finally:
                    inner.close()
            return traced_gen

        def traced(*args, **kwargs):
            index = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(index)
            if hook is not None:
                add(counter, hook(args, kwargs, result))
            return result
        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        # Only collections inside a benchmark phase are part of the run.
        if phase == "start":
            if self._stack:
                self._gc_span = self.open(self.name_id(GC_SPAN))
        elif self._gc_span >= 0:
            self.close(self._gc_span)
            self._gc_span = -1

    def install(self) -> None:
        """Swap every target for its tracing wrapper (undo with :meth:`remove`)."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        gc.callbacks.append(self._on_gc)
        for owner, attr, name, _layer, counter, hook in TARGETS:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap_function(raw.__func__, name, counter, hook))
            else:
                if not inspect.isfunction(raw):
                    raise TypeError(f"cannot trace {owner!r}.{attr}: {type(raw).__name__}")
                wrapped = self._wrap_function(raw, name, counter, hook)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def remove(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.remove()

    # -- analysis -------------------------------------------------------------

    def summary(self, keep_durations: frozenset[str] = frozenset()) -> dict[str, dict]:
        """Per span name: calls, total and self seconds (and, for the names in
        *keep_durations*, every call's duration)."""
        n = len(self.start)
        start, end, parent, name_of = self.start, self.end, self.parent, self.name_of
        duration = [end[i] - start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += duration[i]
        rows = [{"calls": 0, "s": 0.0, "self_s": 0.0,
                 "durations": [] if name in keep_durations else None}
                for name in self.names]
        for i in range(n):
            row = rows[name_of[i]]
            row["calls"] += 1
            row["s"] += duration[i]
            row["self_s"] += duration[i] - covered[i]
            if row["durations"] is not None:
                row["durations"].append(duration[i])
        return dict(zip(self.names, rows))

    def root_seconds(self) -> float:
        return sum(self.end[i] - self.start[i]
                   for i in range(len(self.start)) if self.parent[i] < 0)

    def write(self, path: Path) -> None:
        """Write every span: one JSON header line, then the four columns.

        Columns, in native byte order: name id (u16), parent span index
        (i64, -1 for a root), start and end (f64 seconds on
        ``time.perf_counter``).
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "spans": len(self.start),
                  "columns": ["name_id:H", "parent:l", "start:d", "end:d"]}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_of, self.parent, self.start, self.end):
                column.tofile(out)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); a lone value is its own."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, *, delivered_frames: int, handshakes: int,
                  ops: dict[str, int]) -> dict[str, float]:
    """Every per-layer metric the benchmark reports, from one traced run."""
    rows = tracer.summary(_LATENCY_SPANS)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []}

    def row(name: str) -> dict[str, Any]:
        return rows.get(name, empty)

    def calls(*names: str) -> int:
        return sum(row(n)["calls"] for n in names)

    def total(*names: str) -> float:
        return sum(row(n)["s"] for n in names)

    counts = tracer.counts
    layer_of = {name: layer for _, _, name, layer, _, _ in TARGETS}
    layer_of[GC_SPAN] = "gc"
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, r in rows.items():
        layer_self[layer_of.get(name, "bench")] += r["self_s"]
    traced_total = tracer.root_seconds()

    channel_links = counts.get("channel.links", 0)
    channel_s = total("channel.transmit_many", "channel.transmit")
    decode_calls = calls("wire.decode_frame")
    handled = calls("protocols.handle_request")
    replies = row("protocols.handle_request")["durations"]
    verifies = row("protocols.handle_reply")["durations"]
    encodes = ("wire.encode_request_frame", "wire.encode_reply_frame",
               "wire.encode_segment_frame")
    m: dict[str, float] = {
        "experiments.population_s": total("experiments.build_population"),
        "profile_vector.calls": calls("profile_vector.from_profile"),
        "profile_vector.s": total("profile_vector.from_profile"),
        "topology.placement_s": total("topology.placement"),
        "topology.snapshot_s": total("topology.snapshot"),
        "topology.edges": counts.get("topology.edges", 0),
        "topology.components_s": total("topology.components"),
        "simulator.network_build_s": total("simulator.network_build"),
        "engine.build_s": total("engine.build"),
        "events.dispatched": counts.get("events.dispatched", 0),
        "events.run_s": total("events.run"),
        "channel.calls": calls("channel.transmit_many", "channel.transmit"),
        "channel.links": channel_links,
        "channel.s": channel_s,
        "channel.us_per_link": channel_s / channel_links * 1e6 if channel_links else 0.0,
        "wire.decode_calls": decode_calls,
        "wire.decode_s": total("wire.decode_frame"),
        "wire.decode_hit_ratio": (1 - decode_calls / delivered_frames
                                  if delivered_frames else 0.0),
        "wire.reframe_calls": calls("wire.reframe"),
        "wire.reframe_s": total("wire.reframe"),
        "wire.encode_calls": calls(*encodes),
        "wire.encode_s": total(*encodes),
        "wire.decode_reply_calls": calls("wire.decode_reply", "wire.decode_reply_segment"),
        "wire.decode_reply_s": total("wire.decode_reply", "wire.decode_reply_segment"),
        "request.decode_calls": calls("request.decode"),
        "request.decode_s": total("request.decode"),
        "sessions.open_calls": calls("sessions.open"),
        "sessions.open_s": total("sessions.open"),
        "sessions.overflow": counts.get("sessions.overflow", 0),
        "protocols.handle_request_calls": handled,
        "protocols.handle_request_s": total("protocols.handle_request"),
        "protocols.handle_request_self_s": row("protocols.handle_request")["self_s"],
        "protocols.handle_reply_calls": calls("protocols.handle_reply"),
        "protocols.handle_reply_s": total("protocols.handle_reply"),
        "protocols.reply_p50_ms": percentile(replies, 50) * 1e3,
        "protocols.reply_p99_ms": percentile(replies, 99) * 1e3,
        "protocols.verify_p50_ms": percentile(verifies, 50) * 1e3,
        "protocols.verify_p99_ms": percentile(verifies, 99) * 1e3,
        "matching.process_request_s": total("matching.process_request"),
        "matching.candidates": counts.get("matching.candidates", 0),
        "matching.reply_ratio": (counts.get("protocols.replies", 0) / handled
                                 if handled else 0.0),
        "hint.solve_calls": calls("hint.solve_candidate"),
        "hint.solve_s": total("hint.solve_candidate"),
        "crypto.seal_many_calls": calls("crypto.seal_many"),
        "crypto.seal_many_s": total("crypto.seal_many"),
        "crypto.open_many_calls": calls("crypto.open_many"),
        "crypto.open_many_keys": counts.get("crypto.open_many_keys", 0),
        "crypto.open_many_s": total("crypto.open_many"),
        "reliability.fec_parity_calls": calls("reliability.fec_parity"),
        "reliability.fec_parity_s": total("reliability.fec_parity"),
        "reliability.fec_reconstruct_calls": calls("reliability.fec_reconstruct"),
        "reliability.fec_reconstruct_s": total("reliability.fec_reconstruct"),
        "engine.step_calls": calls("engine.step"),
        "engine.step_s": total("engine.step"),
        "engine.lifecycle_s": total("engine.begin", "engine.finish"),
        "churn.drive_s": total("churn.drive"),
        "churn.actions": calls("churn.join_node", "churn.leave_node"),
        "churn.action_s": total("churn.join_node", "churn.leave_node"),
        "gc.collections": calls(GC_SPAN),
    }
    for op in SYMMETRIC_OPS:
        m[f"ops.{op}"] = ops.get(op, 0) / handshakes if handshakes else 0.0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
        m[f"{layer}.share"] = layer_self[layer] / traced_total if traced_total else 0.0
    return m
