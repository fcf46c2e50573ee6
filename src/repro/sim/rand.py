"""Deterministic random streams.

Each consumer (workload generator, failure injector, BFD jitter) gets its
own named stream derived from a root seed, so adding a new consumer never
perturbs the draws seen by existing ones — simulations stay reproducible
across code changes.
"""

import random
import zlib


class DeterministicRandom:
    """A tree of named, independently-seeded :class:`random.Random` streams."""

    def __init__(self, seed=0):
        self.seed = seed
        self._streams = {}

    def stream(self, name):
        """Return (creating if needed) the stream for ``name``."""
        if name not in self._streams:
            derived = (self.seed * 0x9E3779B1 + zlib.crc32(name.encode())) & 0xFFFFFFFF
            self._streams[name] = random.Random(derived)
        return self._streams[name]

    def fork(self, name):
        """Derive a child :class:`DeterministicRandom` namespace."""
        derived = (self.seed * 0x85EBCA77 + zlib.crc32(name.encode())) & 0xFFFFFFFF
        return DeterministicRandom(derived)
