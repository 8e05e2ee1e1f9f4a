"""The benchmark's workloads: inputs made from a seed, one timed iteration each.

Every workload runs the default single-process engine (``workers=1``,
``regions=1``), the ``tables`` crypto backend and the ``pure`` channel
backend.  An iteration returns its phase timings, the counts the metrics
need and a digest of its simulated outputs; checking those outputs is the
caller's job, and happens outside the timed phases.

Why these workloads (``BENCHMARK.json`` carries the one-line reasons):

- ``churn-fec-city-10k`` -- the ``churn-city`` profile scaled to the 10k
  city, 32 staggered episodes so the engine, not the build, dominates:
  every engine layer (channel, events, codec, sessions, matching), plus
  segmented replies with parity, corrupt-frame rejects, the
  ``begin``/``step`` lifecycle and churn.
- ``handshake-dense`` -- one caller in a closed loop through the public
  protocol API against 48 candidate-heavy participants: the phone-side
  cost the paper claims, with no flood or build work at all.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from repro.analysis.counters import NULL_COUNTER, OpCounter
from repro.analysis.experiments import ScenarioSpec, _prepare_scenario, _run_open_world
from repro.core.attributes import Profile, RequestProfile
from repro.core.channel import pair_session_key
from repro.core.protocols import Initiator, Participant
from repro.core.remainder import EnumerationBudget
from repro.crypto.backend import use_backend
from repro.network.channel_backend import use_channel_backend

clock = time.perf_counter

# The lossy 10k city of examples/specs/lossy_city.json at loss 0.1, frozen
# here so that editing the example cannot move the benchmark's inputs.
CITY_10K = dict(
    nodes=10_000, protocol=2, mobility="random_waypoint", radio_radius=0.02,
    communities=16, tags_per_community=3, retries=2, jitter_ms=2, loss_rate=0.1,
)

# The pinned lossy 10k-city goldens (8 episodes at 10/s, seed 42): frames
# on the air and verified matches, per channel plane.
GOLDENS = {1: (30_586, 116), 2: (29_461, 104)}


@dataclass
class Iteration:
    """One timed pass of a workload: set-up, run and result record."""

    phases: dict[str, float]
    frames: int = 0
    handshakes: int = 0
    delivered: int = 0
    outputs: dict = field(default_factory=dict)
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    reply_s: list[float] = field(default_factory=list)
    verify_s: list[float] = field(default_factory=list)
    ops: dict[str, int] = field(default_factory=dict)


class Phases:
    """Times the benchmark's phases; under a tracer each is also a root span."""

    def __init__(self, tracer=None):
        self.seconds: dict[str, float] = {}
        self.tracer = tracer

    @contextmanager
    def __call__(self, name: str):
        span = self.tracer.span(f"bench.{name}") if self.tracer else nullcontext()
        with span:
            start = clock()
            try:
                yield
            finally:
                self.seconds[name] = clock() - start


def digest_of(outputs) -> str:
    """SHA-256 of the canonical JSON form of a workload's simulated outputs."""
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _community(node_id: str, communities: int) -> int:
    # Population node "n<i>" and churn joiner "j<k>" sit in community
    # i (resp. k) mod communities -- experiments._build_population and
    # _joiner_participant_factory.
    return int(node_id[1:]) % communities


class CityWorkload:
    """An ``experiments run`` scenario, split into its set-up and run phases."""

    def __init__(self, name: str, seed: int, *, golden_planes: tuple[int, ...] = (), **spec):
        self.name = name
        self.spec = ScenarioSpec.from_dict(dict(spec, name=name, seed=seed))
        self.golden_planes = golden_planes
        self.operations = self.spec.episodes

    def self_check(self) -> list[str]:
        """Reproduce the pinned lossy 10k-city golden of each plane asked for."""
        problems = []
        for plane in self.golden_planes:
            spec = ScenarioSpec(name="golden", seed=42, episodes=8, arrival_rate_per_s=10,
                                channel_version=plane, **CITY_10K)
            it = run_city(spec, Phases())
            got = (it.frames, it.outputs["matches"])
            if got != GOLDENS[plane]:
                problems.append(f"v{plane} golden: got {got} frames/matches, "
                                f"want {GOLDENS[plane]}")
        return problems

    def iteration(self, tracer=None) -> Iteration:
        return run_city(self.spec, Phases(tracer))


def run_city(spec: ScenarioSpec, phases: Phases) -> Iteration:
    """One scenario: set-up, run, record, then the output checks (untimed)."""
    with use_backend(spec.backend), use_channel_backend("pure"):
        with phases("setup"):
            prepared = _prepare_scenario(spec)
        with phases("run"):
            if spec.open_world:
                result = _run_open_world(spec, prepared)
            else:
                result = prepared.engine.run_staggered(
                    prepared.launches, arrival_ms=spec.arrival_ms,
                    until_ms=spec.until_ms, workers=1,
                )
        with phases("record"):
            total = result.aggregate.total.as_dict()
            record = dict(total, matches=result.aggregate.matches,
                          episodes=result.aggregate.episodes)

    it = Iteration(phases.seconds, outputs=record,
                   frames=total["frames_sent"], handshakes=len(result.episodes),
                   delivered=total["frames_sent"] - total["frames_dropped"])
    if len(result.episodes) != spec.episodes:
        it.problems.append(f"{spec.episodes - len(result.episodes)} episodes never retired")
    nodes = prepared.engine.network.nodes
    episodes = []
    for ep in result.episodes:
        initiator = ep.initiator
        rid = initiator.secret.request_id
        want = _community(ep.initiator_node, spec.communities)
        for match in ep.matches:
            if _community(match.responder_id, spec.communities) != want:
                it.problems.append(f"episode {ep.episode}: {match.responder_id} "
                                   f"matched outside community {want}")
            node = nodes.get(match.responder_id)
            if node is not None and match.session_key not in node.participant.channel_keys(rid):
                it.problems.append(f"episode {ep.episode}: {match.responder_id} "
                                   "derives another session key")
        episodes.append([
            ep.episode, ep.initiator_node, ep.started_at_ms, ep.completed_at_ms,
            ep.matched_ids,
            [[m.responder_id, m.similarity, m.y.hex(), m.session_key.hex()]
             for m in ep.matches],
            ep.metrics.as_dict(),
        ])
    it.digest = digest_of({"episodes": episodes, "total": total})
    return it


class HandshakeWorkload:
    """Closed loop, one caller: create_request, every handle_request, every
    handle_reply, then the next request.

    The participants are the candidate-heavy profile of
    ``benchmarks/bench_engine_throughput.py``: 6 popular tags plus 24
    extras each, requests exact over the popular tags with ``p=7``, so
    collision-rich buckets mint dozens of candidate keys per participant
    and AES sealing and opening dominate.
    """

    name = "handshake-dense"
    participants = 48
    handshakes = 8
    tags = tuple(f"pop:tag{i}" for i in range(6))

    def __init__(self, seed: int):
        self.seed = seed
        self.operations = self.handshakes
        self.request = RequestProfile.with_threshold(
            necessary=(), optional=self.tags, theta=1.0, normalized=True)

    def self_check(self) -> list[str]:
        return []

    def _participants(self, counter) -> list[Participant]:
        return [
            Participant(
                Profile(self.tags + tuple(f"pop:extra{i}_{j}" for j in range(24)),
                        user_id=f"u{i}", normalized=True),
                budget=EnumerationBudget(max_candidates=48, max_visits=4000),
                rng=random.Random(f"{self.seed}:participant:{i}"),
                counter=counter,
            )
            for i in range(self.participants)
        ]

    def iteration(self, tracer=None) -> Iteration:
        # Table III op counts only in the traced run: the untraced run keeps
        # the NULL_COUNTER fast path users get.
        counter = OpCounter() if tracer is not None else NULL_COUNTER
        phases = Phases(tracer)
        reply_s: list[float] = []
        verify_s: list[float] = []
        outputs = []
        problems = []
        frames = 0
        with use_backend("tables"):
            with phases("setup"):
                participants = self._participants(counter)
            counter.reset()
            with phases("run"):
                for h in range(self.handshakes):
                    initiator = Initiator(self.request, protocol=2, p=7,
                                          max_reply_elements=64,
                                          rng=random.Random(f"{self.seed}:initiator:{h}"),
                                          counter=counter)
                    package = initiator.create_request(now_ms=0)
                    replies = []
                    for participant in participants:
                        start = clock()
                        reply = participant.handle_request(package, now_ms=1)
                        reply_s.append(clock() - start)
                        if reply is not None:
                            replies.append(reply)
                    for reply in replies:
                        start = clock()
                        initiator.handle_reply(reply, now_ms=2)
                        verify_s.append(clock() - start)
                    frames += 1 + len(replies)
                    outputs.append((package.request_id, initiator, replies))
            with phases("record"):
                matches = sum(len(initiator.matches) for _, initiator, _ in outputs)

        by_id = {p.profile.user_id: p for p in participants}
        digest_rows = []
        for h, (rid, initiator, replies) in enumerate(outputs):
            for match in initiator.matches:
                if pair_session_key(initiator.secret.x, match.y) != match.session_key or \
                        match.session_key not in by_id[match.responder_id].channel_keys(rid):
                    problems.append(f"handshake {h}: {match.responder_id} key disagreement")
            digest_rows.append([
                h, [[r.responder_id, len(r.elements)] for r in replies],
                [[m.responder_id, m.similarity, m.y.hex(), m.session_key.hex()]
                 for m in initiator.matches],
                [[r.responder_id, r.reason] for r in initiator.rejected],
            ])
        return Iteration(
            phases.seconds, frames=frames,
            handshakes=len(outputs),
            outputs={"matches": matches, "replies": len(verify_s)},
            digest=digest_of(digest_rows), problems=problems,
            reply_s=reply_s, verify_s=verify_s, ops=counter.as_dict(),
        )


def make(name: str, seed: int):
    """The workload *name* with its inputs made from *seed*."""
    if name == "churn-fec-city-10k":
        city = dict(CITY_10K, retries=0, jitter_ms=3)
        return CityWorkload(
            name, seed, golden_planes=(1, 2), profile="churn-city", episodes=32,
            arrival_rate_per_s=40, **city,
        )
    if name == HandshakeWorkload.name:
        return HandshakeWorkload(seed)
    raise KeyError(name)


WORKLOADS = ("churn-fec-city-10k", "handshake-dense")
