"""Micro-batching: coalesce concurrent selections into one batch call.

Every request that is *waiting in the event loop at the same moment*
for the same ``(expression, discriminant, annotate)`` bucket is
answered by a single :meth:`SelectionEngine.select_many` call.  The
mechanism is the event loop itself: the first request of a bucket
schedules a drain with ``loop.call_soon``, which runs only after every
already-ready callback — so all connection handlers that parsed a
request in the current iteration append to the bucket before the drain
fires.  Under load the batch grows with concurrency; with a single
idle client it degenerates to batches of one, with no added latency
(no timer, no artificial delay).

Batched selection is index-identical to per-request selection: the
engine always selects through ``select_batch``, whose tie rule (lowest
algorithm index) is the repo-wide batching contract.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Sequence, Tuple

from repro.service.engine import Selection, SelectionEngine

#: A bucket identity: same expression, discriminant and annotation
#: flag can share one select_batch call.
_BucketKey = Tuple[str, Optional[str], bool]


class SelectionBatcher:
    """Coalesce concurrent ``select`` awaits into ``select_many`` calls."""

    def __init__(
        self, engine: SelectionEngine, max_batch: int = 1024
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.engine = engine
        self.max_batch = max_batch
        self._pending: Dict[
            _BucketKey, List[Tuple[Sequence[int], asyncio.Future]]
        ] = {}
        self.batches = 0
        self.batched_requests = 0
        self.max_batch_seen = 0

    async def select(
        self,
        expression: str,
        dims: Sequence[int],
        discriminant: Optional[str] = None,
        annotate: bool = True,
    ) -> Selection:
        # A bad request is refused alone, before it joins a bucket
        # whose select_many call would fail for every request in it.
        engine = self.engine
        dims = engine._validated_dims(engine.expression_for(expression), dims)
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        bucket_key: _BucketKey = (expression, discriminant, annotate)
        bucket = self._pending.get(bucket_key)
        if bucket is None:
            bucket = self._pending[bucket_key] = []
            loop.call_soon(self._drain, bucket_key)
        bucket.append((dims, future))
        if len(bucket) >= self.max_batch:
            self._drain(bucket_key)
        return await future

    def _drain(self, bucket_key: _BucketKey) -> None:
        bucket = self._pending.pop(bucket_key, None)
        if not bucket:
            return  # already drained by the max_batch fast path
        expression, discriminant, annotate = bucket_key
        try:
            selections = self.engine.select_many(
                expression,
                [dims for dims, _future in bucket],
                discriminant=discriminant,
                annotate=annotate,
            )
        except Exception as exc:
            for _dims, future in bucket:
                if not future.done():
                    future.set_exception(exc)
            return
        self.batches += 1
        self.batched_requests += len(bucket)
        self.max_batch_seen = max(self.max_batch_seen, len(bucket))
        for (_dims, future), selection in zip(bucket, selections):
            if not future.done():
                future.set_result(selection)

    def stats(self) -> dict:
        return {
            "batches": self.batches,
            "requests": self.batched_requests,
            "max_batch": self.max_batch_seen,
            "coalesced": self.batched_requests - self.batches,
        }
