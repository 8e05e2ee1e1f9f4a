"""Named, registry-resolved fault campaigns for the open-world plane.

A *fault campaign* is a declarative list of timed actions injected into a
run by the :class:`~repro.network.churn.ChurnRunner`: initiator crashes
mid-flood (session state lost), population blackouts with staged
recovery, session-table pressure bursts, and region-worker
kill-and-restart in the :class:`~repro.network.regions.
RegionShardedEngine`.  Campaigns are resolved by name exactly like
scenario profiles and reliability modes (the Snippet-registry idiom):
unknown names raise a ``ValueError`` listing the available choices, so a
typo in a spec or on the CLI fails loudly with the menu in hand.

Action times are *fractions of the run horizon* (``at`` in ``[0, 1]``),
so one campaign applies meaningfully to a 10-second scenario and a
10-hour soak alike; :func:`compile_campaign` turns them into absolute
milliseconds for a concrete ``(start, horizon)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

__all__ = [
    "FAULT_KINDS",
    "FaultAction",
    "FaultCampaign",
    "apply_fault_action",
    "available_fault_plans",
    "compile_campaign",
    "load_fault_plan",
]

FAULT_KINDS = ("crash_initiator", "crash_fraction", "session_pressure", "region_restart")


@dataclass(frozen=True)
class FaultAction:
    """One timed action of a campaign.

    ``at`` is the fraction of the run horizon the action fires at.
    ``crash_initiator`` crashes the initiator node of live episode
    ``episode`` (a no-op if that episode already settled);
    ``crash_fraction`` crashes ``fraction`` of the live population
    (every ``round(1/fraction)``-th node of the sorted live set), waking
    them at ``wake_after`` (fraction of horizon, None = never);
    ``session_pressure`` opens ``count`` short-lived synthetic sessions
    (TTL ``ttl_ms``) on every live node, squeezing real floods against
    the bounded tables; ``region_restart`` kills and recovers every
    region worker's queue (a sequential engine has none: no-op).
    """

    at: float
    kind: str
    episode: int = 0
    fraction: float = 0.0
    wake_after: float | None = None
    count: int = 0
    ttl_ms: int = 0

    def __post_init__(self):
        if not 0.0 <= self.at <= 1.0:
            raise ValueError(f"at must be a horizon fraction in [0, 1], got {self.at!r}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}")
        if self.kind == "crash_fraction" and not 0.0 < self.fraction <= 1.0:
            raise ValueError("crash_fraction needs fraction in (0, 1]")
        if self.wake_after is not None and not self.at <= self.wake_after <= 1.0:
            raise ValueError("wake_after must be in [at, 1]")
        if self.kind == "session_pressure" and (self.count < 1 or self.ttl_ms < 1):
            raise ValueError("session_pressure needs count >= 1 and ttl_ms >= 1")


@dataclass(frozen=True)
class FaultCampaign:
    """A named, ordered sequence of :class:`FaultAction`\\ s."""

    name: str
    description: str
    actions: tuple[FaultAction, ...]

    def __post_init__(self):
        if any(b.at < a.at for a, b in zip(self.actions, self.actions[1:])):
            raise ValueError(f"campaign {self.name!r} actions must be time-ordered")


FAULT_PLANS: MappingProxyType = MappingProxyType({
    "initiator-crash": FaultCampaign(
        "initiator-crash",
        "crash episode 0's initiator mid-flood; its session state is lost and "
        "in-flight replies orphan",
        (FaultAction(at=0.35, kind="crash_initiator", episode=0),),
    ),
    "blackout": FaultCampaign(
        "blackout",
        "crash 10% of the live population a quarter into the run; survivors "
        "route around the hole, the crashed tenth wakes (state lost) at 60%",
        (FaultAction(at=0.25, kind="crash_fraction", fraction=0.10, wake_after=0.60),),
    ),
    "session-pressure": FaultCampaign(
        "session-pressure",
        "burst 64 short-lived synthetic sessions onto every node's bounded "
        "table early in the run (overflow/eviction pressure on real floods)",
        (FaultAction(at=0.20, kind="session_pressure", count=64, ttl_ms=2_000),),
    ),
    "region-restart": FaultCampaign(
        "region-restart",
        "kill and recover every region worker's calendar queue mid-run; the "
        "genealogy-key rebuild must keep the run byte-identical",
        (FaultAction(at=0.50, kind="region_restart"),),
    ),
})


def available_fault_plans() -> tuple[str, ...]:
    """Registered campaign names, stable order."""
    return tuple(FAULT_PLANS)


def load_fault_plan(name: str | FaultCampaign) -> FaultCampaign:
    """Resolve a campaign by name; unknown names list the choices."""
    if isinstance(name, FaultCampaign):
        return name
    try:
        return FAULT_PLANS[name]
    except KeyError:
        known = ", ".join(available_fault_plans())
        raise ValueError(f"unknown fault plan {name!r}; available: {known}") from None


def compile_campaign(
    campaign: FaultCampaign, start_ms: int, horizon_ms: int
) -> list[tuple[int, FaultAction, int | None]]:
    """Pin a campaign's horizon fractions to absolute simulated times.

    Each entry is ``(time_ms, action, wake_ms)``: the firing time and the
    wake time (None when the action wakes nobody), both pinned against
    the campaign's own window, so the result is the same however many
    ``drive`` calls the run is cut into.
    """
    span = max(0, horizon_ms - start_ms)

    def pin(fraction: float) -> int:
        return start_ms + round(fraction * span)

    return [
        (pin(action.at), action,
         None if action.wake_after is None else pin(action.wake_after))
        for action in campaign.actions
    ]


def apply_fault_action(runner, action: FaultAction,
                       wake_ms: int | None = None) -> None:
    """Apply one action through a :class:`~repro.network.churn.ChurnRunner`.

    Lives here (not on the runner) so the campaign vocabulary and its
    semantics stay in one module; the runner supplies the live set,
    positions and the engine.  *wake_ms* is the action's pinned wake time
    from :func:`compile_campaign`, required exactly when it has a
    ``wake_after``.
    """
    if (action.wake_after is None) != (wake_ms is None):
        raise ValueError(
            "wake_ms must be given exactly when wake_after is set: "
            "pin the campaign with compile_campaign"
        )
    engine = runner.engine
    now_ms = engine._queue.now_ms

    def _crash(victim: str) -> None:
        runner.set_live(victim, False)
        engine.crash_node(victim)
        if wake_ms is not None:
            runner._book(max(wake_ms, now_ms + 1), "wake", victim)

    if action.kind == "crash_initiator":
        victim = engine.episode_initiator_node(action.episode)
        if victim is not None and victim in runner.live:
            _crash(victim)
    elif action.kind == "crash_fraction":
        stride = max(1, round(1.0 / action.fraction))
        for victim in runner.live_sorted[::stride]:
            _crash(victim)
    elif action.kind == "session_pressure":
        import hashlib

        for node_id in runner.live_sorted:
            node = engine.network.nodes[node_id]
            for i in range(action.count):
                rid = hashlib.sha256(
                    b"fault.pressure:" + node_id.encode() + i.to_bytes(4, "big")
                ).digest()[:16]
                node.sessions.open(
                    rid, parent=None, hops=1,
                    expires_ms=now_ms + action.ttl_ms, now_ms=now_ms,
                )
    else:  # region_restart
        for region in range(getattr(engine, "regions", 1)):
            engine.restart_region(region)
