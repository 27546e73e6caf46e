"""The slot-tracking node pool against the id-list pool it replaced.

:class:`OraclePool` is the previous implementation: a list of available
node *ids* plus an id -> index dict, with the same swap-remove.  Both
pools replay one random operation sequence with identically seeded RNGs;
they must hand out the same nodes in the same order, and every available
node's ``slot`` must point at its own place in the pool's list.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.dca.node import Node
from repro.dca.pool import NodePool


class OraclePool:
    """The id-list + index-dict pool, kept as the reference."""

    def __init__(self):
        self.nodes = {}
        self.available = []
        self.index = {}
        self.next_id = 0

    def join(self, node):
        self.nodes[node.node_id] = node
        node.alive = True
        if node.alive and not node.busy:
            self._mark(node.node_id)

    def leave(self, node_id):
        node = self.nodes.pop(node_id, None)
        if node is None:
            return None
        node.alive = False
        index = self.index.get(node_id)
        if index is not None:
            self._remove_at(index)
        return node

    def random_alive(self, rng):
        if not self.nodes:
            return None
        return self.nodes[rng.choice(list(self.nodes))]

    def acquire_random(self, rng):
        if not self.available:
            return None
        index = rng.randrange(len(self.available))
        node_id = self.available[index]
        self._remove_at(index)
        node = self.nodes[node_id]
        node.busy = True
        return node

    def release(self, node):
        node.busy = False
        if node.alive and node.node_id in self.nodes:
            self._mark(node.node_id)

    def _mark(self, node_id):
        if node_id in self.index:
            return
        self.index[node_id] = len(self.available)
        self.available.append(node_id)

    def _remove_at(self, index):
        node_id = self.available[index]
        last = self.available.pop()
        del self.index[node_id]
        if last != node_id:
            self.available[index] = last
            self.index[last] = index


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["join", "acquire", "release", "leave", "release_departed"]),
        st.integers(0, 1_000),
    ),
    max_size=300,
)


def _check_slots(pool):
    available = pool.available_nodes
    for index, node in enumerate(available):
        assert node.slot == index
        assert node.alive and not node.busy
    in_list = {id(node) for node in available}
    for node in pool:
        if id(node) not in in_list:
            assert node.slot == -1


@given(ops=_OPS, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_slot_pool_hands_out_the_oracle_nodes(ops, seed):
    pool, oracle = NodePool(), OraclePool()
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    held, oracle_held = [], []
    departed, oracle_departed = [], []
    for op, pick in ops:
        if op == "join":
            node_id = pool.allocate_id()
            pool.join(Node(node_id=node_id, reliability=0.5))
            oracle.join(Node(node_id=node_id, reliability=0.5))
        elif op == "acquire":
            node = pool.acquire_random(rng)
            expected = oracle.acquire_random(oracle_rng)
            assert (node and node.node_id) == (expected and expected.node_id)
            if node is not None:
                held.append(node)
                oracle_held.append(expected)
        elif op == "release" and held:
            index = pick % len(held)
            pool.release(held.pop(index))
            oracle.release(oracle_held.pop(index))
        elif op == "leave" and len(pool):
            node = pool.random_alive(rng)
            expected = oracle.random_alive(oracle_rng)
            assert node.node_id == expected.node_id
            pool.leave(node.node_id)
            oracle.leave(expected.node_id)
            # A busy node that leaves is released later by its deadline.
            for busy, out in ((held, departed), (oracle_held, oracle_departed)):
                for index, candidate in enumerate(busy):
                    if candidate.node_id == node.node_id:
                        out.append(busy.pop(index))
                        break
        elif op == "release_departed" and departed:
            index = pick % len(departed)
            pool.release(departed.pop(index))
            oracle.release(oracle_departed.pop(index))
        assert [node.node_id for node in pool.available_nodes] == oracle.available
        _check_slots(pool)
    # Drain both pools: the remaining hand-out order matches too.
    while True:
        node = pool.acquire_random(rng)
        expected = oracle.acquire_random(oracle_rng)
        assert (node and node.node_id) == (expected and expected.node_id)
        if node is None:
            break
    _check_slots(pool)
