"""The serving plane: async driver, ActorPool, micro-batching, admission.

The paper frames its programming model around latency-sensitive
workloads ("millisecond-scale decisions under heavy traffic").  This
package is the repo's high-QPS serving tier over that model:

* :func:`~repro.serve.async_api.future_for` / :func:`~repro.serve.
  async_api.get_async` — event-driven completion (one pump thread, not
  one blocking ``get`` per call), so a single driver multiplexes
  thousands of in-flight requests and composes with asyncio.
* :class:`~repro.serve.pool.ActorPool` — N replicas behind one handle:
  pluggable routing, automatic micro-batching (one actor call and one
  result object per batch, split by the pool), queue-depth admission control
  (:class:`~repro.errors.Backpressure`), and in-place replica respawn
  on worker loss.

Everything here works on all four backends; the simulated backend
runs a synchronous deterministic mirror of the same surface.
"""

from repro.errors import Backpressure
from repro.serve.async_api import future_for, get_async
from repro.serve.pool import ActorPool, ServeFuture

__all__ = [
    "ActorPool",
    "Backpressure",
    "ServeFuture",
    "future_for",
    "get_async",
]
