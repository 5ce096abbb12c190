"""Analytic step-count scheduler for scatter algorithms.

This is the paper's synchronized-time model of section 5.2: messages
move store-and-forward, one message per link per time step, every node
multi-port (all its links usable simultaneously each step).  It
verifies the combinatorial claims independently of the DES:

* SDF (FCFS selection + Shortest-Direction-First routing) dispatch
  time;
* OPT dispatch time, which must equal ``max(T1, T2) (+ c)`` where
  ``T1 = ceil((p-1)/k)`` is the root injection bound and ``T2`` is the
  maximum route length (plus a small constant c for same-distance
  messages sharing a region);
* the ~4x SDF/OPT gap of Figure 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import TopologyError
from repro.topology.partition import partition_regions, region_send_order
from repro.topology.routing import sdf_next_direction
from repro.topology.torus import Direction, Torus


@dataclass
class _Message:
    """One scatter message in the step model."""

    dst: int
    node: int
    #: FCFS arrival order at the current node (creation order at root).
    order: int
    #: Remaining source route (OPT) or None (SDF).
    route: Optional[Tuple[Direction, ...]] = None
    delivered_step: Optional[int] = None


@dataclass
class ScheduleResult:
    """Outcome of a step-model run."""

    steps: int
    #: Per-destination delivery step.
    delivery: Dict[int, int] = field(repr=False, default_factory=dict)
    #: Total message-hops taken (work).
    hops: int = 0



def _run(torus: Torus, root: int, messages: List[_Message],
         max_steps: Optional[int] = None) -> ScheduleResult:
    """Advance the synchronized model until all messages deliver."""
    limit = max_steps or (torus.size * torus.diameter() + 10)
    active = [m for m in messages if m.node != m.dst]
    for m in messages:
        if m.node == m.dst:
            m.delivered_step = 0
    step = 0
    hops = 0
    while active:
        step += 1
        if step > limit:
            raise TopologyError(
                f"scatter schedule did not converge in {limit} steps"
            )
        # Each link (node, direction) carries one message per step.
        used_links = set()
        moves = []
        # FCFS per node: messages in arrival order.
        for message in sorted(active, key=lambda m: (m.node, m.order)):
            if message.route is not None:
                direction = message.route[0]
            else:
                direction = sdf_next_direction(
                    torus, message.node, message.dst
                )
            if direction is None:  # pragma: no cover - defensive
                raise TopologyError("active message with no direction")
            link = (message.node, direction)
            if link in used_links:
                continue  # the link is taken this step; wait
            used_links.add(link)
            moves.append((message, direction))
        for message, direction in moves:
            message.node = torus.neighbor(message.node, direction)
            if message.route is not None:
                message.route = message.route[1:] or None
            hops += 1
            if message.node == message.dst:
                message.delivered_step = step
        active = [m for m in active if m.node != m.dst]
    delivery = {m.dst: m.delivered_step for m in messages}
    return ScheduleResult(steps=step, delivery=delivery, hops=hops)


def sdf_schedule(torus: Torus, root: int) -> ScheduleResult:
    """SDF scatter in the step model: FCFS selection in rank order."""
    messages = [
        _Message(dst=rank, node=root, order=index)
        for index, rank in enumerate(
            r for r in torus.ranks() if r != root
        )
    ]
    return _run(torus, root, messages)


def opt_schedule(torus: Torus, root: int) -> ScheduleResult:
    """OPT scatter: region partition, FDF injection, source routes."""
    partition = partition_regions(torus, root)
    order = region_send_order(partition)
    messages: List[_Message] = []
    # Injection order: within each region FDF; regions interleave at
    # the root via distinct links, so their FCFS orders are
    # independent.  Encode region-local order in `order`.
    for direction, members in order.items():
        for index, world in enumerate(members):
            route = tuple(
                step.direction for step in partition.routes[world]
            )
            messages.append(
                _Message(dst=world, node=root, order=index, route=route)
            )
    return _run(torus, root, messages)


def opt_bound(torus: Torus, root: int) -> int:
    """The paper's optimality bound ``max(T1, T2)``.

    T1 = ceil((p-1)/k) root-injection steps; T2 = max distance (the
    ``+c`` constant is reported by :func:`opt_schedule` itself).
    """
    ports = len([
        d for d in torus.directions() if torus.has_neighbor(root, d)
    ])
    p = torus.size
    t1 = -(-(p - 1) // ports)
    t2 = max(torus.distance(root, r) for r in torus.ranks())
    return max(t1, t2)
