"""The node pool: random selection, acquisition, and churn bookkeeping.

The paper's system model assigns each job to a node chosen *at random*
from the pool (this is what justifies assumption 1: every job has the same
failure probability).  The pool therefore supports O(1) uniform random
selection among currently available nodes, plus join/leave operations for
churn.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional

from repro.dca.node import Node


class NodePool:
    """Tracks nodes and hands out random available ones.

    Availability is maintained with the classic swap-remove trick: a list
    of available nodes in which each node records its own position
    (:attr:`Node.slot <repro.dca.node.Node.slot>`, ``-1`` while it is not
    available), giving O(1) acquire, release, join, and leave without any
    id lookup on the assignment path.
    """

    def __init__(self) -> None:
        self._nodes: Dict[int, Node] = {}
        self._available: List[Node] = []
        self._next_id = 0
        self.joins = 0
        self.departures = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    @property
    def available_count(self) -> int:
        return len(self._available)

    @property
    def available_nodes(self) -> List[Node]:
        """The live list of available nodes, in slot order.

        The list object stays the same for the pool's lifetime, so a hot
        loop may bind it once and test its truth value; callers must not
        mutate it.
        """
        return self._available

    def get(self, node_id: int) -> Optional[Node]:
        return self._nodes.get(node_id)

    def allocate_id(self) -> int:
        """Fresh node id -- also how whitewashing nodes get new identities."""
        node_id = self._next_id
        self._next_id += 1
        return node_id

    def join(self, node: Node) -> None:
        """Add a node to the pool (volunteering)."""
        if node.node_id in self._nodes:
            raise ValueError(f"node {node.node_id} already in pool")
        self._nodes[node.node_id] = node
        node.alive = True
        if not node.busy:
            # An idle joiner is available, exactly as a released node is.
            self.release(node)
        self.joins += 1

    def leave(self, node_id: int) -> Optional[Node]:
        """Remove a node (quitting).  A busy node's in-flight job is the
        task server's problem: its deadline will expire."""
        node = self._nodes.pop(node_id, None)
        if node is None:
            return None
        node.alive = False
        if node.slot >= 0:
            self._remove_available(node)
        self.departures += 1
        return node

    def random_alive(self, rng: random.Random) -> Optional[Node]:
        """A uniformly random member (available or busy), for churn."""
        if not self._nodes:
            return None
        return self._nodes[rng.choice(list(self._nodes))]

    # ------------------------------------------------------------------
    # Assignment
    # ------------------------------------------------------------------

    def acquire_random(self, rng: random.Random) -> Optional[Node]:
        """Pick a uniformly random available node and mark it busy."""
        available = self._available
        count = len(available)
        if not count:
            return None
        # choice()'s draw without its two frames: _randbelow's rejection
        # loop over getrandbits(count.bit_length()), the same draws
        # choice() and randrange(count) take.  The node then gives its own
        # slot to the swap-remove of _remove_available.
        getrandbits = rng.getrandbits
        bits = count.bit_length()
        index = getrandbits(bits)
        while index >= count:
            index = getrandbits(bits)
        node = available[index]
        last = available.pop()
        if last is not node:
            available[node.slot] = last
            last.slot = node.slot
        node.slot = -1
        node.busy = True
        return node

    def release(self, node: Node) -> None:
        """Return a node to the available set after its job finishes.

        Only members are alive (:meth:`leave` clears the flag), so a
        departed node stays out.
        """
        node.busy = False
        if node.alive and node.slot < 0:
            available = self._available
            node.slot = len(available)
            available.append(node)

    # ------------------------------------------------------------------
    # Internal available-set maintenance
    # ------------------------------------------------------------------

    def _remove_available(self, node: Node) -> None:
        """Swap-remove an available node: the last one takes its slot."""
        available = self._available
        last = available.pop()
        if last is not node:
            available[node.slot] = last
            last.slot = node.slot
        node.slot = -1
