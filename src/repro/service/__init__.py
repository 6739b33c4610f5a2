"""Selection-as-a-service: the pipeline's decision function, served.

The end product of the paper's pipeline is a decision function —
"given an expression and instance dims, which algorithm?" — and this
package stands it up as a long-lived asyncio HTTP service
(``python -m repro.service``) instead of an in-process call:

* :class:`SelectionEngine` answers selections through the registered
  discriminants (min-FLOPs / profiled-time / the paper's §5 hybrid /
  benchmark-sum) and annotates each answer with whether the instance
  falls inside a known anomalous region of the expression's study.
* Studies come through a capacity-bounded :class:`LruCache` reading
  through the configured :class:`repro.figures.cache.StudyStore`; an
  unreadable or cold store degrades to local computation — the
  service keeps serving.
* :class:`SelectionBatcher` coalesces concurrent requests for the same
  expression into one ``select_batch`` call, index-identical to
  per-request selection.
* :class:`SelectionService` is the HTTP/1.1 front end (stdlib asyncio
  only): ``POST /select``, ``POST /select_batch``, ``GET /stats``,
  ``GET /healthz``.

See ``docs/service.md``.
"""

from repro.service.batching import SelectionBatcher
from repro.service.engine import (
    Selection,
    SelectionEngine,
    SelectionError,
    StudyProvider,
)
from repro.service.http import SelectionService
from repro.service.lru import LruCache

__all__ = [
    "LruCache",
    "Selection",
    "SelectionBatcher",
    "SelectionEngine",
    "SelectionError",
    "SelectionService",
    "StudyProvider",
]
