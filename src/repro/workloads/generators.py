"""Address-stream generators.

Each generator produces *page indices* into a region; workloads turn
them into virtual addresses. They are the building blocks that give the
eight Table V workloads their characteristic TLB behaviour: Zipf-skewed
key lookups (memcached), uniform scatter (canneal/mcf), pointer chasing
(astar/mcf), and long sequential scans (tigr).

Sampling is batched through numpy for speed; iteration stays cheap.
"""

import numpy as np


class UniformSampler:
    """Uniform random pages: the TLB-hostile worst case."""

    def __init__(self, npages, rng):
        if npages <= 0:
            raise ValueError("npages must be positive")
        self.npages = npages
        self._rng = rng

    def sample(self, n):
        return self._rng.integers(0, self.npages, size=n)


class ZipfSampler:
    """Zipf-distributed pages with a shuffled hot set.

    ``alpha`` near 1 gives the classic key-value skew. Hot pages are
    scattered over the region (real heaps do not sort by popularity),
    which matters for page-table locality.
    """

    def __init__(self, npages, rng, alpha=0.99):
        if npages <= 0:
            raise ValueError("npages must be positive")
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.npages = npages
        self._rng = rng
        ranks = np.arange(1, npages + 1, dtype=np.float64)
        weights = ranks ** (-alpha)
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        self._mapping = rng.permutation(npages)

    def sample(self, n):
        uniform = self._rng.random(n)
        ranks = np.searchsorted(self._cdf, uniform)
        return self._mapping[ranks]


class SequentialScanner:
    """A cyclic streaming scan, optionally strided (tigr-style)."""

    def __init__(self, npages, stride=1, start=0):
        if npages <= 0:
            raise ValueError("npages must be positive")
        self.npages = npages
        self.stride = stride
        self._position = start % npages

    def sample(self, n):
        indices = (self._position + self.stride * np.arange(n)) % self.npages
        self._position = int((self._position + self.stride * n) % self.npages)
        return indices


class PointerChase:
    """Follows a random Hamiltonian cycle over the pages (mcf/astar-style).

    Every access depends on the previous one, so there is no spatial
    locality at all and each step is effectively a random page.
    """

    def __init__(self, npages, rng):
        if npages <= 0:
            raise ValueError("npages must be positive")
        self.npages = npages
        order = rng.permutation(npages)
        self._next = np.empty(npages, dtype=np.int64)
        self._next[order] = np.roll(order, -1)
        self._position = int(order[0])

    def sample(self, n):
        out = np.empty(n, dtype=np.int64)
        position = self._position
        nxt = self._next
        for i in range(n):
            position = nxt[position]
            out[i] = position
        self._position = int(position)
        return out


class MixtureSampler:
    """Draws each access from one of several samplers by weight."""

    def __init__(self, samplers, weights, rng):
        if len(samplers) != len(weights) or not samplers:
            raise ValueError("need matching, non-empty samplers and weights")
        total = float(sum(weights))
        self.samplers = samplers
        self._cum = np.cumsum([w / total for w in weights])
        self._rng = rng

    def sample(self, n):
        choices = np.searchsorted(self._cum, self._rng.random(n))
        out = np.empty(n, dtype=np.int64)
        for which, sampler in enumerate(self.samplers):
            mask = choices == which
            count = int(mask.sum())
            if count:
                out[mask] = sampler.sample(count)
        return out
