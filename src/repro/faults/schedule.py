"""Declarative fault schedules: timed chaos for both runtimes.

A :class:`FaultSchedule` is a JSON-serialisable list of :class:`FaultEvent`
entries plus whole-run base drop/duplicate rates.  Events are gated on the
*protocol step* — the one clock both runtimes share (the simulated trainer
advances it explicitly, the threaded runtime tags every message with it) —
so a single schedule reproduces the same fault pattern under simulated and
real time.

Event kinds
-----------
``crash`` / ``recover``
    A named node stops participating at ``step`` (no sends, no receives, no
    local computation) and resumes at the matching ``recover`` step with
    whatever stale state it held.  A crash with no ``recover`` lasts forever.
``partition`` / ``heal``
    ``groups`` lists two or more disjoint node groups; messages between
    *different* groups are blocked while the partition is active.  Nodes in
    no group communicate freely.  ``heal`` closes the partition with the
    same ``label`` (or every open partition when the label is empty).
``slowdown`` / ``delay_spike`` / ``drop_rate``, closed by ``clear``
    Per-link overrides applied to messages matching ``nodes`` (any link
    touching one of the nodes) or explicit ``links`` pairs; an empty matcher
    hits every link.  ``slowdown`` multiplies the sampled delay by
    ``factor`` (stragglers), ``delay_spike`` adds ``extra_delay`` seconds,
    ``drop_rate`` drops matching messages with probability ``rate``.
    ``clear`` removes the override with the same ``label`` (or all
    labelled overrides when empty).
``activate_attack`` / ``deactivate_attack``
    Step-gates the Byzantine attack installed on the named nodes: outside
    its active window the node behaves honestly.  A node whose *first*
    gating event is ``activate_attack`` starts honest; one whose first is
    ``deactivate_attack`` starts attacking.

The schedule is *declarative* data: it never touches a node or a socket.
The :class:`~repro.faults.controller.FaultController` interprets it.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

EVENT_KINDS = (
    "crash",
    "recover",
    "partition",
    "heal",
    "slowdown",
    "delay_spike",
    "drop_rate",
    "clear",
    "activate_attack",
    "deactivate_attack",
)

#: kinds that target ``nodes`` (and require at least one)
_NODE_KINDS = ("crash", "recover", "activate_attack", "deactivate_attack")
#: kinds that open a labelled per-link override window
LINK_OVERRIDE_KINDS = ("slowdown", "delay_spike", "drop_rate")


@dataclass
class FaultEvent:
    """One timed fault, applied at the *start* of ``step``."""

    step: int
    kind: str
    #: targets for crash/recover/attack gating; matcher for link overrides
    nodes: List[str] = field(default_factory=list)
    #: partition groups (two or more disjoint lists of node ids)
    groups: List[List[str]] = field(default_factory=list)
    #: explicit ``[a, b]`` endpoint pairs for link overrides (undirected:
    #: a pair matches messages flowing either way between its endpoints)
    links: List[List[str]] = field(default_factory=list)
    #: delay multiplier for ``slowdown``
    factor: float = 1.0
    #: extra seconds for ``delay_spike``
    extra_delay: float = 0.0
    #: drop probability for ``drop_rate``
    rate: float = 0.0
    #: names a partition/override so ``heal``/``clear`` can close it
    label: str = ""

    def __post_init__(self) -> None:
        self.nodes = [str(node) for node in self.nodes]
        self.groups = [[str(node) for node in group] for group in self.groups]
        self.links = [[str(end) for end in link] for link in self.links]

    # ------------------------------------------------------------------ #
    def validate(self) -> "FaultEvent":
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown fault kind '{self.kind}'; "
                             f"available: {list(EVENT_KINDS)}")
        if self.step < 0:
            raise ValueError(f"fault step must be non-negative, got {self.step}")
        if self.kind in _NODE_KINDS and not self.nodes:
            raise ValueError(f"'{self.kind}' events must name at least one node")
        if self.kind == "partition":
            if len(self.groups) < 2:
                raise ValueError("'partition' events need at least two groups")
            seen: set = set()
            for group in self.groups:
                if not group:
                    raise ValueError("partition groups must be non-empty")
                overlap = seen.intersection(group)
                if overlap:
                    raise ValueError(f"partition groups must be disjoint; "
                                     f"{sorted(overlap)} appear twice")
                seen.update(group)
        if self.kind == "slowdown" and self.factor <= 0:
            raise ValueError("'slowdown' factor must be positive")
        if self.kind == "delay_spike" and self.extra_delay < 0:
            raise ValueError("'delay_spike' extra_delay must be non-negative")
        if self.kind == "drop_rate" and not 0.0 <= self.rate < 1.0:
            raise ValueError("'drop_rate' rate must be in [0, 1)")
        for link in self.links:
            if len(link) != 2:
                raise ValueError(f"links must be [sender, recipient] pairs, "
                                 f"got {link}")
        return self

    def matches_link(self, sender: str, recipient: str) -> bool:
        """Whether a link-override event applies to the given link."""
        if not self.nodes and not self.links:
            return True  # empty matcher: every link
        if sender in self.nodes or recipient in self.nodes:
            return True
        return any(sorted(link) == sorted((sender, recipient))
                   for link in self.links)

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Compact dict: defaulted fields are omitted (stable hashing)."""
        payload: Dict[str, Any] = {"step": self.step, "kind": self.kind}
        if self.nodes:
            payload["nodes"] = list(self.nodes)
        if self.groups:
            payload["groups"] = [list(group) for group in self.groups]
        if self.links:
            payload["links"] = [list(link) for link in self.links]
        if self.factor != 1.0:
            payload["factor"] = self.factor
        if self.extra_delay != 0.0:
            payload["extra_delay"] = self.extra_delay
        if self.rate != 0.0:
            payload["rate"] = self.rate
        if self.label:
            payload["label"] = self.label
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultEvent":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown fault event fields: {sorted(unknown)}")
        return cls(**payload)


@dataclass
class FaultSchedule:
    """A whole run's fault plan: timed events plus base loss rates.

    ``drop_rate`` / ``duplicate_rate`` are a whole-run, every-link
    probability of silent loss/duplication, each in ``[0, 1)``.
    """

    events: List[FaultEvent] = field(default_factory=list)
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0

    def __post_init__(self) -> None:
        self.events = [event if isinstance(event, FaultEvent)
                       else FaultEvent.from_dict(event)
                       for event in self.events]

    def __bool__(self) -> bool:
        """Truthy only when the schedule actually does something."""
        return bool(self.events) or self.drop_rate > 0 or self.duplicate_rate > 0

    # ------------------------------------------------------------------ #
    def validate(self, known_nodes: Optional[Sequence[str]] = None
                 ) -> "FaultSchedule":
        """Check internal consistency (and node ids, when given)."""
        for probability, name in ((self.drop_rate, "drop_rate"),
                                  (self.duplicate_rate, "duplicate_rate")):
            if not 0.0 <= probability < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {probability}")
        open_crashes: Dict[str, int] = {}
        for event in self.sorted_events():
            event.validate()
            if event.kind == "crash":
                already = open_crashes.keys() & set(event.nodes)
                if already:
                    raise ValueError(f"nodes {sorted(already)} crash twice "
                                     f"without a recover in between")
                for node in event.nodes:
                    open_crashes[node] = event.step
            elif event.kind == "recover":
                missing = set(event.nodes) - open_crashes.keys()
                if missing:
                    raise ValueError(f"recover for nodes {sorted(missing)} "
                                     f"that never crashed")
                empty = sorted(node for node in event.nodes
                               if open_crashes[node] >= event.step)
                if empty:
                    raise ValueError(
                        f"nodes {empty} recover at the same step they crash "
                        f"(step {event.step}); the crash window would be "
                        f"empty")
                for node in event.nodes:
                    del open_crashes[node]
        if known_nodes is not None:
            known = set(known_nodes)
            for event in self.events:
                referenced = set(event.nodes)
                referenced.update(node for group in event.groups for node in group)
                referenced.update(end for link in event.links for end in link)
                unknown = referenced - known
                if unknown:
                    raise ValueError(
                        f"fault event '{event.kind}' at step {event.step} "
                        f"references unknown nodes {sorted(unknown)}")
        return self

    def sorted_events(self) -> List[FaultEvent]:
        """Events in application order (step, then schedule order)."""
        indexed = sorted(enumerate(self.events),
                         key=lambda item: (item[1].step, item[0]))
        return [event for _, event in indexed]

    def crashed_nodes(self) -> List[str]:
        """Every node the schedule crashes at some point (sorted)."""
        return sorted({node for event in self.events
                       if event.kind == "crash" for node in event.nodes})

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "events": [event.to_dict() for event in self.events],
        }
        if self.drop_rate:
            payload["drop_rate"] = self.drop_rate
        if self.duplicate_rate:
            payload["duplicate_rate"] = self.duplicate_rate
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultSchedule":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown fault schedule fields: {sorted(unknown)}")
        return cls(
            events=[FaultEvent.from_dict(entry)
                    for entry in payload.get("events", [])],
            drop_rate=payload.get("drop_rate", 0.0),
            duplicate_rate=payload.get("duplicate_rate", 0.0),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------ #
    # Convenience constructors (the common scenarios, one-liners)
    # ------------------------------------------------------------------ #
    @classmethod
    def crash_window(cls, nodes: Sequence[str], crash_step: int,
                     recover_step: Optional[int] = None) -> "FaultSchedule":
        """Crash ``nodes`` at ``crash_step``; recover them at ``recover_step``."""
        events = [FaultEvent(step=crash_step, kind="crash", nodes=list(nodes))]
        if recover_step is not None:
            if recover_step <= crash_step:
                raise ValueError("recover_step must come after crash_step")
            events.append(FaultEvent(step=recover_step, kind="recover",
                                     nodes=list(nodes)))
        return cls(events=events)

    @classmethod
    def partition_window(cls, groups: Sequence[Sequence[str]],
                         partition_step: int,
                         heal_step: Optional[int] = None,
                         label: str = "p0") -> "FaultSchedule":
        """Partition ``groups`` at ``partition_step``; heal at ``heal_step``."""
        events = [FaultEvent(step=partition_step, kind="partition",
                             groups=[list(group) for group in groups],
                             label=label)]
        if heal_step is not None:
            if heal_step <= partition_step:
                raise ValueError("heal_step must come after partition_step")
            events.append(FaultEvent(step=heal_step, kind="heal", label=label))
        return cls(events=events)
