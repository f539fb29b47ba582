"""Consistent-hash routing of cache keys onto worker shards.

Each shard contributes ``replicas`` virtual points to a hash ring;
a key routes to the first point clockwise of its own hash.  Two
properties make this the right router for a serving cache:

* **warmth** — the same key always lands on the same shard, so a
  shard's in-process memos (e.g. the per-(provider, layer) weight
  tensors of :func:`repro.experiments.common.layer_weights`) stay hot
  for the keys it owns;
* **resize stability** — growing the pool from N to N+1 shards remaps
  only ~1/(N+1) of the key space, instead of reshuffling everything the
  way ``hash(key) % N`` would.

Since the fabric landed, the ring mechanics live in
:class:`repro.fabric.ring.HashRing` — the network generalization over
arbitrary named nodes — and :class:`ShardRouter` is a façade over a
ring whose nodes are ``"shard-0" .. "shard-{N-1}"``.  The point labels
are byte-identical to the pre-fabric ones, so routing (and therefore
shard warmth across upgrades) is unchanged.
"""

from __future__ import annotations

from repro.fabric.ring import HashRing


class ShardRouter:
    """Maps cache keys to shard indices via a consistent-hash ring.

    Args:
        num_shards: number of shards (>= 1).
        replicas: virtual points per shard; more replicas smooth the
            load distribution at a small ring-size cost.
    """

    def __init__(self, num_shards: int, replicas: int = 64):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards
        self.replicas = replicas
        self._ring = HashRing(
            (f"shard-{shard}" for shard in range(num_shards)), replicas=replicas)

    def route(self, key: str) -> int:
        """The shard owning ``key`` (deterministic across instances)."""
        node = self._ring.route(key)
        assert node is not None  # the ring always has >= 1 shard
        return int(node.removeprefix("shard-"))

    def resized(self, num_shards: int) -> ShardRouter:
        """A router for a grown/shrunk pool, same replica count."""
        return ShardRouter(num_shards, replicas=self.replicas)
