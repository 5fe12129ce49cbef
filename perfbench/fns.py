"""Remote functions and the serving replica used by the workloads.

Workers are ``multiprocessing`` *spawn* children: they import this module
by name, so everything a worker runs lives here, and importing it has no
side effects.
"""

import numpy as np

import repro


@repro.remote
def tick(x):
    return x + 1


@repro.remote
def leaf(x):
    return x + 1


@repro.remote
def fan_out(base, n):
    """Spawn ``n`` worker-born leaves and gather them inside the task."""
    refs = [leaf.remote(base + i) for i in range(n)]
    return sum(repro.get(refs, timeout=60.0))


@repro.remote
def produce(n, fill):
    return np.full(n, fill, dtype=np.float64)


@repro.remote
def transform(array):
    return array + 1.0


@repro.remote
def consume(array):
    return float(array[0]) + float(array[-1]) + float(array.shape[0])


class Echo:
    """Vectorized identity replica: list in, list out."""

    def __call__(self, batch):
        return batch
