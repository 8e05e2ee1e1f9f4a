"""The benchmark's own checks: tracing stays out of untraced runs, traced
runs reproduce untraced outputs, the reference does fixed work, and
BENCHMARK.json names what run.py prints."""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from pathlib import Path

import reference
import run
import tracer
import workloads
from repro.core import protocols
from repro.core.protocols import Participant
from repro.crypto.backend import TablesBackend
from repro.network import engine
from repro.network.channel_model import ChannelModel

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _tiny_churn_city(seed: int = 3) -> workloads.CityWorkload:
    # The churn-city profile as shipped: segmented FEC replies, corrupt
    # frames, churn through begin/step/finish, in well under a second.
    return workloads.CityWorkload("tiny-churn", seed, profile="churn-city", episodes=4)


def _tiny_handshakes(seed: int) -> workloads.HandshakeWorkload:
    hs = workloads.HandshakeWorkload(seed)
    hs.handshakes = hs.operations = 1
    return hs


def _assert_pristine(before: dict) -> None:
    after = tracer.originals()
    assert after.keys() == before.keys()
    for key, original in before.items():
        assert after[key] is original, key


def test_untraced_runs_call_the_original_functions():
    before = tracer.originals()
    called = {}  # id(code object) -> code object, for every Python call made

    def profile(frame, event, arg):
        if event == "call":
            called[id(frame.f_code)] = frame.f_code

    sys.setprofile(profile)
    try:
        _tiny_churn_city().iteration()
        _tiny_handshakes(1).iteration()
    finally:
        sys.setprofile(None)
    _assert_pristine(before)
    # What ran is the shipped code itself: the hot originals were entered,
    # and no tracing wrapper was.
    for fn in (engine.decode_frame, engine.fec_parity_elements,
               ChannelModel.transmit_many, Participant.handle_request,
               protocols.process_request, TablesBackend.open_many):
        assert id(fn.__code__) in called, fn.__qualname__
    assert not [c.co_name for c in called.values() if c.co_filename == tracer.__file__]


def test_tracer_swaps_every_target_and_restores_it():
    before = tracer.originals()
    spans = tracer.Tracer()
    with spans.installed():
        during = tracer.originals()
        assert all(during[key] is not original for key, original in before.items())
    _assert_pristine(before)


def test_traced_iteration_reproduces_untraced_outputs():
    city = _tiny_churn_city()
    plain = city.iteration()
    spans = tracer.Tracer()
    with spans.installed():
        traced = city.iteration(spans)
    assert traced.digest == plain.digest
    assert not plain.problems and not traced.problems
    metrics = tracer.layer_metrics(spans, delivered_frames=traced.delivered,
                                   handshakes=traced.handshakes, ops=traced.ops)
    for name in ("channel.calls", "sessions.open_calls", "reliability.fec_parity_calls",
                 "engine.step_calls", "churn.actions", "wire.decode_calls"):
        assert metrics[name] > 0, name
    shares = sum(metrics[f"{layer}.share"] for layer in tracer.LAYERS)
    assert abs(shares - 1.0) < 1e-9


def test_handshake_op_counts_are_exact_and_traced_only():
    hs = _tiny_handshakes(2)
    assert hs.iteration().ops == {}
    first, second = (hs.iteration(tracer.Tracer()) for _ in range(2))
    assert first.ops == second.ops and first.ops["E"] > 0
    assert first.digest == second.digest


def test_benchmark_json_names_what_run_prints():
    city = _tiny_churn_city()
    its = [dict(asdict(city.iteration()), peak_rss_mb=1.0, reference_s=[0.05])]
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.end_to_end(its))
    spans = tracer.Tracer()
    with spans.installed():
        traced = city.iteration(spans)
    layer = tracer.layer_metrics(spans, delivered_frames=traced.delivered,
                                 handshakes=traced.handshakes, ops=traced.ops)
    layer["trace.overhead_s"] = 0.0
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(layer)
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"]), metric["name"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_reference_work_is_fixed_and_scales_timings():
    # Changing the reference's work would rescale every figure: pin it.
    assert reference.work() == 3209751590
    it = {"phases": {"setup": 1.0, "run": 2.0, "record": 0.5}, "frames": 100,
          "handshakes": 4, "peak_rss_mb": 9.0, "reference_s": [2 * reference.NOMINAL_S] * 4}
    wall, nominal = run.end_to_end([it], nominal=False), run.end_to_end([it])
    # A host that runs the reference at half the nominal speed runs the
    # program at half speed too: nominal timings are half the wall times.
    assert nominal["setup_s"] == wall["setup_s"] / 2 == 0.5
    assert nominal["total_s"] == 1.75 and nominal["frames_per_s"] == 100.0
    assert nominal["peak_rss_mb"] == wall["peak_rss_mb"] == 9.0
