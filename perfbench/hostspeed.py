"""How fast the host runs right now, from a fixed reference chunk of work.

On a shared host the same code runs up to twice as slowly for minutes at a
time, and process CPU time slows with it.  The benchmark times a fixed
chunk of work, close to motkit's own mix, in between the ops it measures
and scales each latency by how fast the chunk ran around it (see
README.md, "Host speed correction").  The chunk never calls motkit, so a
change to motkit moves the scaled latencies as much as the raw ones.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# Reference time after each op, as a share of the op's latency, so that
# the chunks sample the host in proportion to the time the ops took.
SHARE = 0.1
WARMUP_CHUNKS = 20


class HostSpeed:
    """`tableau` is the shape of the array the chunk updates, the size of
    the workload's typical LP tableau: a tableau of a few hundred kB stays
    in cache, one of many MB does not, and a shared host slows the two by
    different factors.  `nominal_s` is what one chunk takes at the nominal
    host speed: scaled latencies are the seconds an op would take on a host
    that runs the chunk this fast."""

    def __init__(self, document: dict, tableau: tuple[int, int], nominal_s: float):
        rng = np.random.default_rng(0)
        self.text = json.dumps(document)
        self.small = rng.random((24, 32))
        self.tableau = tableau
        self.row = rng.random(tableau[1])
        self.nominal_s = nominal_s
        self.times: list[float] = []
        for _ in range(WARMUP_CHUNKS):
            self.chunk()

    def chunk(self) -> float:
        """Time one chunk: a JSON round trip of an instance document, small
        pivots, rank-1 updates of a tableau-sized array as in an LP pivot,
        and a dict build.  The array is made afresh and freed within the
        chunk, so that between chunks the reference holds no memory that
        would add to the ops' peak RSS."""
        started = time.perf_counter()
        json.dumps(json.loads(self.text), sort_keys=True)
        m = self.small.copy()
        for k in range(8):
            r = int(np.argmax(m[:, k]))
            m[r] /= m[r, k]
            m -= np.outer(m[:, k], m[r])
        big = np.empty(self.tableau)
        big[:] = self.row
        for k in range(4):
            big -= np.outer(big[:, k], big[k] * 1e-3)
        {f"k{i}": i for i in range(100)}
        return time.perf_counter() - started

    def sample(self, seconds: float, at_least: int = 1) -> None:
        """Run chunks for about `SHARE * seconds`, and at least `at_least`."""
        for _ in range(max(at_least, round(SHARE * seconds / self.nominal_s))):
            self.times.append(self.chunk())

    def slowdown(self, start: int = 0, stop: int | None = None) -> float:
        """How much slower than nominal the chunks `start:stop` ran."""
        return statistics.fmean(self.times[start:stop]) / self.nominal_s
