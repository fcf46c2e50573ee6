"""Synthetic routing-update workloads.

Generates realistic-looking announcement sets: distinct prefixes, AS
paths of plausible length, a bounded pool of distinct attribute sets
(real tables heavily share attributes, which is what makes update
packing effective).
"""

from repro.bgp.attributes import AsPath, Origin, PathAttributes
from repro.bgp.prefixes import parse_prefix, prefix_key, prefix_value


class RouteGenerator:
    """Deterministic route-set generator."""

    def __init__(self, rng, origin_as, next_hop="0.0.0.0", attr_pool_size=64):
        # Accept either a plain ``random.Random`` or a
        # ``DeterministicRandom`` namespace (drawn from its own stream so
        # the route set is independent of other consumers of the seed).
        if hasattr(rng, "stream"):
            rng = rng.stream("routes")
        self.rng = rng
        self.origin_as = origin_as
        self.next_hop = next_hop
        self.attr_pool = [
            self._random_attributes() for _ in range(attr_pool_size)
        ]

    def _random_attributes(self):
        path_len = self.rng.randint(1, 5)
        # Upstream hops draw from 64600-64899: the full 64512-65535
        # private range also contains every gateway/remote AS the test
        # topologies use (65001, 64512+i), and a generated path holding
        # the receiving speaker's own AS is silently dropped as a loop —
        # which made route-count assertions depend on the rng seed.
        asns = [self.origin_as] + [
            64600 + self.rng.randint(0, 299) for _ in range(path_len - 1)
        ]
        communities = tuple(
            sorted(
                (self.origin_as << 16) | self.rng.randint(1, 999)
                for _ in range(self.rng.randint(0, 3))
            )
        )
        return PathAttributes(
            origin=Origin(self.rng.choice((0, 0, 0, 1, 2))),
            as_path=AsPath.sequence(*asns),
            next_hop=self.next_hop,
            med=self.rng.choice((None, 0, 10, 100)),
            communities=communities,
        )

    def prefixes(self, count, base="10.0.0.0", length=24):
        """``count`` distinct IPv4 prefixes (plain keys), deterministic
        order."""
        first = prefix_value(parse_prefix(f"{base}/{length}"))
        step = 1 << (32 - length)
        return [prefix_key(first + i * step, length) for i in range(count)]

    def routes(self, count, base="10.0.0.0", length=24):
        """``count`` (prefix, attributes) pairs sharing pooled attributes."""
        prefixes = self.prefixes(count, base=base, length=length)
        return [
            (prefix, self.attr_pool[i % len(self.attr_pool)])
            for i, prefix in enumerate(prefixes)
        ]

    def uniform_routes(self, count, base="10.0.0.0", length=24):
        """``count`` pairs sharing ONE attribute set (best-case packing)."""
        prefixes = self.prefixes(count, base=base, length=length)
        attrs = self.attr_pool[0]
        return [(prefix, attrs) for prefix in prefixes]

    def distinct_routes(self, count, base="10.0.0.0", length=24):
        """``count`` pairs with pairwise distinct attribute sets
        (worst-case packing: exactly one UPDATE per route)."""
        prefixes = self.prefixes(count, base=base, length=length)
        return [
            (prefix, PathAttributes(as_path=AsPath.sequence(self.origin_as),
                                    next_hop=self.next_hop, med=index))
            for index, prefix in enumerate(prefixes)
        ]
