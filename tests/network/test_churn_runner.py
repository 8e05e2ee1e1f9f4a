"""The churn runner's indexes and drive windows.

Three contracts of :class:`~repro.network.churn.ChurnRunner`:

1. **Neighbourhood index == scan.**  Join and wake neighbourhoods come
   from a spatial grid, yet must equal, list for list, a scan of every
   position in insertion order under ``dx*dx + dy*dy <= r*r`` -- the
   order ``add_node`` links neighbours in, and so broadcast order.
2. **Live index == sorted live set.**  After every applied action the
   ordered live view equals ``sorted(runner.live)``, and every churn
   victim is ``sorted(live)[draw % n]``.
3. **Chunked drive == one drive.**  ``drive(0, h)`` and ``drive(0, h/2)``
   then ``drive(h/2, h)`` apply the same actions in the same order.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.attributes import Profile, RequestProfile
from repro.core.protocols import Initiator, Participant
from repro.network.channel_model import ChannelModel
from repro.network.churn import (
    _CELL_SLACK,
    ChurnEvent,
    ChurnModel,
    ChurnRunner,
    ChurnSpec,
)
from repro.network.engine import EpisodeSpec, FriendingEngine
from repro.network.faults import (
    apply_fault_action,
    available_fault_plans,
    compile_campaign,
    load_fault_plan,
)
from repro.network.regions import RegionShardedEngine
from repro.network.simulator import AdHocNetwork
from repro.network.topology import city_topology


def scan_neighbours(positions, live, node_id, radius):
    """The brute-force oracle: every position, in insertion order."""
    x, y = positions[node_id]
    radius_sq = radius * radius
    out = []
    for other, (ox, oy) in positions.items():
        if other == node_id or other not in live:
            continue
        dx = ox - x
        dy = oy - y
        if dx * dx + dy * dy <= radius_sq:
            out.append(other)
    return out


class _StubEngine:
    """Just enough engine for the runner: records join neighbourhoods."""

    def __init__(self):
        self.joins: list[tuple[str, list[str]]] = []

    def step(self, now_ms):
        pass

    def join_node(self, node_id, participant, neighbours, *, position):
        self.joins.append((node_id, list(neighbours)))

    def crash_node(self, node_id):
        pass

    def leave_node(self, node_id):
        pass

    def forget_node(self, node_id):
        pass


# -- 1. the neighbourhood index ----------------------------------------------

RADII = st.one_of(
    st.sampled_from([0.0, 1e-4, 5e-4, 1e-3, 0.02, 0.05, 0.1, 0.25]),
    st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
)


@st.composite
def _scenario(draw):
    """A radius, an initial population and a list of churn operations.

    Coordinates mix uniform floats with the adversarial ones: multiples of
    the radius and of the grid's cell size and floor (cell edges), points
    exactly ``r`` from an earlier point along an axis, and co-located
    copies of earlier points.
    """
    radius = draw(RADII)
    cell = max(radius * _CELL_SLACK, 1e-3)
    index = st.integers(min_value=-3, max_value=40)
    axis = st.one_of(
        st.floats(min_value=-0.1, max_value=1.1, allow_nan=False),
        index.map(lambda i: i * radius),
        index.map(lambda i: i * cell),
        index.map(lambda i: i * 1e-3),
    )
    points: list[tuple[float, float]] = []

    def point():
        shape = draw(st.sampled_from(
            ["free", "free", "copy", "plus_x", "minus_y"] if points else ["free"]
        ))
        if shape == "free":
            p = (draw(axis), draw(axis))
        else:
            x, y = draw(st.sampled_from(points))
            p = {"copy": (x, y), "plus_x": (x + radius, y),
                 "minus_y": (x, y - radius)}[shape]
        points.append(p)
        return p

    initial = [point() for _ in range(draw(st.integers(min_value=1, max_value=30)))]
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=25))):
        kind = draw(st.sampled_from(["join", "join", "leave", "crash", "wake"]))
        ops.append((kind, draw(st.integers(min_value=0, max_value=2**32 - 1)),
                    point() if kind == "join" else None))
    return radius, initial, ops


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(_scenario())
def test_neighbourhood_index_equals_scan(scenario):
    radius, initial, ops = scenario
    engine = _StubEngine()
    runner = ChurnRunner(
        engine, ChurnModel(ChurnSpec(), seed=0),
        positions={f"n{i}": p for i, p in enumerate(initial)},
        radio_radius=radius,
    )
    asleep: list[str] = []

    def check_all():
        for node in runner.live:
            assert runner.neighbours_of(node) == scan_neighbours(
                runner.positions, runner.live, node, radius)

    check_all()
    for kind, draw, point in ops:
        joins_before = len(engine.joins)
        if kind == "join":
            runner._apply_churn(ChurnEvent(0, "join", draw, x=point[0], y=point[1]))
        elif kind == "wake":
            if not asleep:
                continue
            runner._apply_wake(asleep.pop(draw % len(asleep)))
        else:
            before = set(runner.live)
            runner._apply_churn(ChurnEvent(0, kind, draw))
            if kind == "crash":
                asleep.extend(before - runner.live)
        if len(engine.joins) > joins_before:
            node_id, neighbours = engine.joins[-1]
            assert neighbours == scan_neighbours(
                runner.positions, runner.live, node_id, radius)
        check_all()


def test_radius_zero_links_only_colocated_nodes():
    engine = _StubEngine()
    runner = ChurnRunner(
        engine, ChurnModel(ChurnSpec(), seed=0),
        positions={"a": (0.5, 0.5), "b": (0.5, 0.5), "c": (0.5, 0.5000001)},
        radio_radius=0.0,
    )
    runner._apply_churn(ChurnEvent(0, "join", 0, x=0.5, y=0.5))
    assert engine.joins == [("j0", ["a", "b"])]


def test_negative_radius_is_rejected():
    with pytest.raises(ValueError, match="radio_radius"):
        ChurnRunner(_StubEngine(), ChurnModel(ChurnSpec(), seed=0),
                    positions={}, radio_radius=-0.1)


# -- shared city for 2. and 3. ------------------------------------------------

CHURN = ChurnSpec(join_rate_per_s=2.0, leave_rate_per_s=2.0,
                  crash_rate_per_s=1.0, sleep_ms=2_500)
HORIZON_MS = 10_000


def _city_engine(regions: int):
    adjacency, positions = city_topology(150, radius=0.12, seed=21)
    nodes = list(adjacency)
    participants = {
        node: Participant(
            Profile([f"c{i % 3}:t{j}" for j in range(3)] + [f"noise:{node}"],
                    user_id=node, normalized=True),
            rng=random.Random(3000 + i),
        )
        for i, node in enumerate(nodes)
    }
    network = AdHocNetwork(adjacency, participants,
                           channel=ChannelModel(drop_rate=0.05, seed=5, version=2))
    if regions > 1:
        engine = RegionShardedEngine(network, positions=positions, regions=regions,
                                     retries=1, retransmit_timeout_ms=200)
    else:
        engine = FriendingEngine(network)
    engine.begin([
        EpisodeSpec(
            initiator_node=nodes[i * 50],
            initiator=Initiator(
                RequestProfile(necessary=[f"c{i % 3}:t0"], optional=[f"c{i % 3}:t1"],
                               beta=1, normalized=True),
                protocol=2, rng=random.Random(7000 + i),
            ),
            start_ms=i * 1_500,
        )
        for i in range(3)
    ])
    return engine, positions


def _runner(plan, runner_cls=ChurnRunner):
    engine, positions = _city_engine(regions=2 if plan == "region-restart" else 1)
    faults = compile_campaign(load_fault_plan(plan), 0, HORIZON_MS) if plan else []
    runner = runner_cls(
        engine, ChurnModel(CHURN, seed=3),
        positions=positions, radio_radius=0.12, faults=faults,
    )
    return engine, runner


PLANS = [None, *available_fault_plans()]


# -- 2. the live index -------------------------------------------------------

class _CheckedRunner(ChurnRunner):
    """Asserts the live-index invariant after every applied action."""

    victims = 0

    def _check(self):
        assert self.live_sorted == sorted(self.live)

    def _apply_churn(self, event):
        before = set(self.live)
        super()._apply_churn(event)
        if event.kind != "join" and before:
            ordered = sorted(before)
            assert before - self.live == {ordered[event.draw % len(ordered)]}
            self.victims += 1
        self._check()

    def _apply_wake(self, node_id):
        super()._apply_wake(node_id)
        self._check()

    def _apply_fault(self, fault):
        super()._apply_fault(fault)
        self._check()


@pytest.mark.parametrize("plan", PLANS)
def test_live_index_tracks_live_set(plan):
    engine, runner = _runner(plan, _CheckedRunner)
    runner._check()
    runner.drive(0, HORIZON_MS)
    engine.finish()
    assert runner.victims > 0
    assert runner.events_applied > runner.victims


# -- 3. chunked drive ----------------------------------------------------------

def _outcome(engine, runner):
    result = engine.finish()
    return {
        "total": result.aggregate.total.as_dict(),
        "matches": result.aggregate.matches,
        "matched": [ep.matched_ids for ep in result.episodes],
        "churn": engine.churn_metrics.as_dict(),
        "events_applied": runner.events_applied,
        "live": runner.live_sorted,
    }


@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("chunks", [2, 20])
def test_chunked_drive_equals_one_drive(plan, chunks):
    engine, runner = _runner(plan)
    runner.drive(0, HORIZON_MS)
    whole = _outcome(engine, runner)

    engine, runner = _runner(plan)
    bounds = [HORIZON_MS * k // chunks for k in range(chunks + 1)]
    for start, stop in zip(bounds, bounds[1:]):
        runner.drive(start, stop)
    assert _outcome(engine, runner) == whole
    assert whole["churn"]["nodes_crashed"] > 0


def test_compile_pins_wake_to_the_campaign_window():
    (entry,) = compile_campaign(load_fault_plan("blackout"), 1_000, 11_000)
    assert entry == (3_500, load_fault_plan("blackout").actions[0], 7_000)


def test_wake_time_must_match_wake_after():
    _, runner = _runner(None)
    blackout = load_fault_plan("blackout").actions[0]
    with pytest.raises(ValueError, match="compile_campaign"):
        apply_fault_action(runner, blackout)
    pressure = load_fault_plan("session-pressure").actions[0]
    with pytest.raises(ValueError, match="compile_campaign"):
        apply_fault_action(runner, pressure, 5)


class _Recorder(_StubEngine):
    """A stub engine that also logs every crash and join it is told of."""

    def __init__(self):
        super().__init__()
        self.log: list[tuple[str, str]] = []

    def crash_node(self, node_id):
        self.log.append(("crash", node_id))

    def join_node(self, node_id, participant, neighbours, *, position):
        super().join_node(node_id, participant, neighbours, position=position)
        self.log.append(("join", node_id))


def _crash_only_runner():
    """One crash every tick, each victim waking ``sleep_ms`` later."""
    spec = ChurnSpec(crash_rate_per_s=10.0, sleep_ms=300, tick_ms=100)
    engine = _Recorder()
    runner = ChurnRunner(
        engine, ChurnModel(spec, seed=1),
        positions={f"n{i}": (i / 20, 0.5) for i in range(20)}, radio_radius=0.1,
    )
    return engine, runner


def test_wake_due_at_the_horizon_applies():
    """A crash at ``h - sleep_ms`` wakes at exactly ``h``, inside ``drive(0, h)``."""
    engine, runner = _crash_only_runner()
    runner.drive(0, 1_000)
    crashed = [node for kind, node in engine.log if kind == "crash"]
    woken = [node for kind, node in engine.log if kind == "join"]
    # crashes at 0, 100, ..., 1000 (the tick at the horizon included);
    # wakes at 300, ..., 1000 -- the one at 1000 from the crash at 700
    assert len(crashed) == 11
    assert woken == crashed[:8]
    assert runner.events_applied == 19


def test_horizon_aligned_chunks_keep_the_same_order():
    """At a chunk edge, the churn at that time still comes before the wake."""
    engine, runner = _crash_only_runner()
    runner.drive(0, 1_000)
    whole = engine.log

    engine, runner = _crash_only_runner()
    for start in range(0, 1_000, 100):
        runner.drive(start, start + 100)
    assert engine.log == whole
