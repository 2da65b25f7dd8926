"""Push-mode operator nodes driven by the event scheduler.

Each node is the *push driver* of one operator kernel from
:mod:`repro.federation.operators`: the kernel holds the operator's state and
issues its charges, exactly as under the pull-based ``execute``; the node
only receives solutions *pushed* into it as timed events, forwards what the
kernel releases, and decides when subtrees start and pause.  The
scheduler delivers one producer event at a time on the engine timeline; the
resulting cascade through these nodes charges engine work to the engine
clock exactly as the sequential operator chain would, so single-producer
plans are bit-identical between runtimes while sibling producers (two
sources under a join or union) overlap their delays.

A node's ``slot`` is its position in its parent (0 for unary children,
0/1 for join sides, the branch index for unions).  ``push(slot, solution)``
delivers one solution arriving on that slot; ``close(slot)`` signals that
the slot's input stream ended.  ``start(time)`` arms the subtree: it spawns
producer tasks for the leaves that should begin at *time* (left joins defer
their left subtree, dependent joins spawn inner producers per block).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from ..federation.answers import Solution
from ..federation.operators import (
    DependentJoin,
    FedOperator,
    LeftJoin,
    ServiceNode,
)

if TYPE_CHECKING:  # pragma: no cover
    from .scheduler import EventScheduler, Gate


class Node:
    """Base class of push-mode nodes."""

    def __init__(self, sched: "EventScheduler", parent: "Node", slot: int):
        self.sched = sched
        self.context = sched.context
        self.parent = parent
        self.slot = slot

    def start(self, time: float) -> None:
        raise NotImplementedError

    def push(self, slot: int, solution: Solution) -> None:
        raise NotImplementedError

    def close(self, slot: int) -> None:
        raise NotImplementedError


class TapNode(Node):
    """Transparent observation tap between a node and its real parent.

    Inserted by :func:`compile_plan` only when the run is observed
    (``context.obs`` is set): the tap records each solution leaving the
    child — engine time and count, onto the child operator's profile —
    and forwards pushes/closes verbatim, slot included.  Unobserved runs
    compile exactly the node network PR 3 shipped, so observation is
    zero-cost-when-off; and because taps live outside the plan's operator
    objects, cached plans are never mutated by being observed.
    """

    def __init__(self, sched: "EventScheduler", parent: Node, slot: int, profile):
        super().__init__(sched, parent, slot)
        self.profile = profile

    def push(self, slot: int, solution: Solution) -> None:
        self.profile.record(self.context.now())
        self.parent.push(slot, solution)

    def close(self, slot: int) -> None:
        self.parent.close(slot)


class SinkNode(Node):
    """Root consumer: stamps each answer with the engine time it became
    available and hands it to the scheduler's outbox."""

    def __init__(self, sched: "EventScheduler"):
        super().__init__(sched, parent=None, slot=0)
        self.closed = False

    def push(self, slot: int, solution: Solution) -> None:
        self.sched.emit(solution)

    def close(self, slot: int) -> None:
        self.closed = True


class OperatorNode(Node):
    """Push driver of one operator kernel.

    Forwards what the kernel releases for each pushed solution and, once
    every input slot has closed, what ``finish`` releases; then closes its
    own slot in the parent.  A kernel's ``Done`` (LIMIT, on the first
    over-limit arrival — where the pull driver stops pulling) is not caught
    here: it unwinds the whole cascade to the scheduler, so nothing more is
    taken from any lazy step below, as when a pull driver closes it.
    """

    def __init__(
        self, sched: "EventScheduler", parent: Node, slot: int, op: FedOperator
    ):
        super().__init__(sched, parent, slot)
        self.kernel = op.kernel(self.context)
        self.inputs: list[Node] = []
        self.open = len(op.children())

    def start(self, time: float) -> None:
        for child in self.inputs:
            child.start(time)

    def push(self, slot: int, solution: Solution) -> None:
        for output in self.kernel.step(slot, solution):
            self.parent.push(self.slot, output)

    def close(self, slot: int) -> None:
        self.open -= 1
        if self.open == 0:
            for output in self.kernel.finish():
                self.parent.push(self.slot, output)
            self.parent.close(self.slot)


class SourceNode(OperatorNode):
    """Leaf: one wrapper sub-query running as a producer task.

    The producer runs the raw wrapper stream on its own timeline; the
    service's kernel (its engine-side filters) runs here, on the engine
    clock, as it does under ``ServiceNode.execute``.  A dependent join
    restarts its inner leaf once per block with a restricted ``request``.
    """

    def __init__(
        self,
        sched: "EventScheduler",
        parent: Node,
        slot: int,
        service: ServiceNode,
        gate: "Gate",
    ):
        super().__init__(sched, parent, slot, service)
        self.service = service
        self.gate = gate
        self.leaf_id = sched.next_leaf_id()
        self.restarts = 0

    def push(self, slot: int, solution: Solution) -> None:
        if self.service.engine_filters:
            super().push(slot, solution)
        else:  # the pass-through kernel, skipped: most leaves, every message
            self.parent.push(self.slot, solution)

    def start(self, time: float, request=None) -> None:
        service = self.service
        key = (self.leaf_id,)
        if request is None:
            request = service.request
        else:
            self.restarts += 1
            key = (self.leaf_id, self.restarts)

        def produce(ctx):
            return service.wrapper.execute(request, ctx)

        self.open = 1  # the one producer stream spawned here
        self.sched.spawn(
            node=self, slot=0, runner=produce, key=key, start=time, gate=self.gate
        )


class LeftJoinNode(OperatorNode):
    """OPTIONAL: the left subtree only *starts* once the right side closed.

    Mirrors the sequential operator's phasing, so the probe-side charging
    (and any left-source delays) accrue after the build, exactly as the
    pull-based operator pays them.
    """

    def start(self, time: float) -> None:
        self.inputs[1].start(time)

    def close(self, slot: int) -> None:
        if slot == 1:
            self.inputs[0].start(self.context.now())
        super().close(slot)


class DependentJoinNode(OperatorNode):
    """ANAPSID-style dependent (bound) join under event scheduling.

    The outer subtree streams into the kernel's block buffer.  When a block
    fills (or the outer input closes with a partial block), the outer
    subtree's producers are *paused* via its gate and the inner leaf is
    restarted: a fresh producer task for the restricted inner sub-query.
    When that inner stream closes, a full block unpauses the outer side for
    the next block; a final block closes the operator.  Pausing makes the
    block phasing identical to the sequential operator: outer transfer for
    block N+1 never overlaps inner transfer for block N.

    Pausing stops deliveries, not a cascade in progress: one outer event
    can release many solutions at once (a symmetric join's probe matching
    a long bucket), and its end can close the outer input.  What arrives
    while an inner block runs waits in ``queued`` (the close in
    ``outer_closed``) and is taken when the block ends, so every block but
    the last holds exactly ``block_size`` solutions, as under the pull
    driver, and only one inner block runs at a time.
    """

    #: The pause scope of the outer subtree (set by :func:`compile_plan`).
    outer_gate: "Gate"

    def __init__(
        self, sched: "EventScheduler", parent: Node, slot: int, op: FedOperator
    ):
        super().__init__(sched, parent, slot, op)
        self.queued: deque[Solution] = deque()
        self.in_flight = self.final_block = self.outer_closed = self.paused = False

    def start(self, time: float) -> None:
        self.inputs[self.kernel.OUTER].start(time)

    def push(self, slot: int, solution: Solution) -> None:
        if slot == self.kernel.OUTER and self.in_flight:
            self.queued.append(solution)
            return
        super().push(slot, solution)
        if slot == self.kernel.OUTER and self.kernel.full:
            self._begin_block(final=False)

    def close(self, slot: int) -> None:
        if slot == self.kernel.INNER and self.final_block:
            self.parent.close(self.slot)
            return
        if slot == self.kernel.OUTER:
            self.outer_closed = True
            if self.in_flight:
                return
        self.in_flight = False
        while self.queued and not self.kernel.full:
            super().push(self.kernel.OUTER, self.queued.popleft())
        if self.kernel.full:
            self._begin_block(final=False)
        elif self.outer_closed:
            # Mirrors the sequential loop: a pending partial block is the
            # last one processed; an empty block ends the operator.
            if self.kernel.block:
                self._begin_block(final=True)
            else:
                self.parent.close(self.slot)
        elif self.paused:
            self.paused = False
            self.outer_gate.unpause(self.sched)

    def _begin_block(self, final: bool) -> None:
        self.in_flight, self.final_block = True, final
        if not self.paused:
            self.paused = True
            self.outer_gate.pause()
        op = self.kernel.op
        request = op.inner.request.restricted(op.join_variable, self.kernel.seal())
        self.inputs[self.kernel.INNER].start(self.context.now(), request)


def compile_plan(
    sched: "EventScheduler",
    op: FedOperator,
    parent: Node,
    slot: int,
    gate: "Gate",
) -> Node:
    """Compile a pull-based operator tree into a push-mode node network.

    The traversal order is deterministic (pre-order, left before right),
    which is what pins leaf ids — and therefore every producer's RNG
    substream — to the plan shape rather than to execution order.

    When the run is observed, a :class:`TapNode` is threaded between each
    operator's node and its parent so per-operator output rows are counted
    on the engine timeline — the push-mode equivalent of the sequential
    instrumenter's ``execute`` wrapper, with identical cardinalities.
    """
    from .scheduler import Gate  # local import: scheduler imports this module

    obs = sched.context.obs
    if obs is not None:
        profile = obs.profile_for(op)
        if profile is not None:
            parent = TapNode(sched, parent, slot, profile)

    if isinstance(op, ServiceNode):
        return SourceNode(sched, parent, slot, op, gate)
    if isinstance(op, DependentJoin):
        # Only the outer subtree sits under the pausable gate.  The inner
        # leaf takes its id before the outer subtree is compiled and stays
        # under this node's own gate, so an ancestor dependent join pausing
        # this subtree also pauses in-flight inner blocks; it gets no tap
        # (its per-block streams are the join's input, not a plan output).
        node = DependentJoinNode(sched, parent, slot, op)
        node.outer_gate = Gate(parent=gate)
        inner = SourceNode(sched, node, node.kernel.INNER, op.inner, gate)
        outer = compile_plan(sched, op.outer, node, node.kernel.OUTER, node.outer_gate)
        node.inputs = [outer, inner]
        return node
    node_type = LeftJoinNode if isinstance(op, LeftJoin) else OperatorNode
    node = node_type(sched, parent, slot, op)
    node.inputs = [
        compile_plan(sched, child, node, position, gate)
        for position, child in enumerate(op.children())
    ]
    return node
