"""The deterministic simulated backend.

Delegates all timing to a :class:`repro.machine.machine.MachineModel`;
see that module for the analytic effects (ramps, variant dispatch,
thread balance, inter-kernel cache interference, noise).  Results are
memoised in array-backed stores — the experiment pipelines revisit
points constantly, and the model is stateless so memoisation is exact.

One memo row per (algorithm, instance) holds two columns: the measured
time and the benchmark prediction.  The machine draws both from the
same noise ids by design, and the median of positively scaled factors
is the scaled median factor (rounding is monotone), so one noise pass
yields both columns bit for bit.  Measuring an instance therefore also
fills its prediction, and Experiment 3's predictions over region cells
(every one of them measured by the traversal) are memo hits.  Only a
measurement gives an instance memo rows.  A prediction fills the
predicted column of rows that have them (the measured column stays
NaN until a measurement needs it) and returns the rest unstored, so
the service's stream of distinct one-off predictions grows no memo.
A prediction batch none of whose rows has memo rows (every request
the service answers) goes to the machine as it is, with no memo work.

The algorithms of one expression share one instance index (instance
bytes to row id), so an instance's key is stored once, not once per
algorithm, and each algorithm's column is a vectorized gather by id.

The evaluation-batch methods (``time_algorithms_matrix``,
``predict_times_matrix``) are the fast path: every algorithm of an
expression at a whole batch of instances flows through the vectorized
machine in one call, which measures the plans together.  An
algorithm's kernel structure is instance-independent (only the dims
vary), so the machine takes the missing instance rows and each plan's
steps (kernel, instance columns, ``reads_previous``) as they are; it
measures each distinct call once per run of rows whose columns it
reads do not change.  The rows go over in batch order (fresh rows get
ascending memo ids), which keeps a region ray's runs intact.  The
per-algorithm batch methods are one-column selections of the same
path, and the scalar methods are those on one-row batches, so all of
them share the same memo rows.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.backends.base import Backend
from repro.expressions.base import Algorithm, instance_matrix
from repro.kernels.types import KernelName
from repro.machine.machine import MachineModel

#: Columns of an algorithm's memo rows.
_MEASURED, _PREDICTED = 0, 1


class _Memo:
    """Float64 memo rows for one instance space, one table per owner.

    Every distinct instance row gets one id, shared by all owners (the
    algorithms of one expression, or one kernel): the dict maps each
    key (the raw little-endian int64 bytes of an instance row) to its
    id, and each owner's ``(capacity, width)`` table holds its values
    at row ``id``, so a batch lookup is one vectorized gather.  NaN
    marks a value not computed yet.
    """

    __slots__ = ("_ids", "_tables", "_width")

    def __init__(self, width: int) -> None:
        self._ids: Dict[bytes, int] = {}
        self._tables: Dict[object, np.ndarray] = {}
        self._width = width

    def ids(self, keys: Sequence[bytes], assign: bool = True) -> np.ndarray:
        """The id of each key, fresh for unseen keys if ``assign``.

        Otherwise unseen keys get distinct negative ids, not stored.
        """
        index = self._ids
        ids = np.fromiter(
            map(index.get, keys, repeat(-1)), dtype=np.int64, count=len(keys)
        )
        unseen = np.flatnonzero(ids < 0)
        if unseen.size:
            unseen_keys = [keys[position] for position in unseen.tolist()]
            fresh = dict.fromkeys(unseen_keys)
            lookup, start = (index, len(index)) if assign else ({}, -len(fresh))
            lookup.update(zip(fresh, range(start, start + len(fresh))))
            ids[unseen] = np.fromiter(
                map(lookup.__getitem__, unseen_keys),
                dtype=np.int64,
                count=len(unseen_keys),
            )
        return ids

    def knows_any(self, keys: Sequence[bytes]) -> bool:
        """Whether any key has an id."""
        index = self._ids
        return bool(index) and any(map(index.__contains__, keys))

    def table(self, owner) -> np.ndarray:
        """``owner``'s values, with a row for every id assigned so far.

        Call it after :meth:`ids` has assigned the batch's ids.
        """
        table = self._tables.get(owner)
        needed = len(self._ids)
        if table is None or table.shape[0] < needed:
            capacity = max(1024, needed + needed // 2)
            grown = np.full((capacity, self._width), np.nan)
            if table is not None:
                grown[: table.shape[0]] = table
            table = self._tables[owner] = grown
        return table


def _row_keys(arr: np.ndarray) -> List[bytes]:
    """Hashable per-row keys: each row's raw int64 bytes."""
    width = arr.shape[1] * 8
    buffer = arr.tobytes()
    return [buffer[i:i + width] for i in range(0, len(buffer), width)]


class SimulatedBackend(Backend):
    def __init__(self, machine: Optional[MachineModel] = None) -> None:
        if machine is None:
            from repro.machine.presets import paper_machine

            machine = paper_machine()
        self.machine = machine
        # Algorithm memos per expression (one table per algorithm
        # name), kernel memos per kernel (one table each).
        self._algorithm_memos: Dict[str, _Memo] = {}
        self._kernel_memos: Dict[KernelName, _Memo] = {}

    @property
    def peak_flops(self) -> float:
        return self.machine.peak_flops

    # ------------------------------------------------------------------
    # Scalar protocol — one-row batches over the same memo rows
    # ------------------------------------------------------------------

    def time_algorithm(self, algorithm: Algorithm, instance: Sequence[int]) -> float:
        return float(self.time_algorithms(algorithm, [instance])[0])

    def time_kernel(self, kernel: KernelName, dims: Sequence[int]) -> float:
        return float(self.time_kernels(kernel, [dims])[0])

    # ------------------------------------------------------------------
    # Batch protocol — vectorized through the machine
    # ------------------------------------------------------------------

    @staticmethod
    def _instances_matrix(instances) -> np.ndarray:
        arr = np.asarray(instances, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError(
                f"instances must be a (n, n_dims) matrix, got shape {arr.shape!r}"
            )
        return arr

    def _algorithm_columns(
        self,
        algorithms: Sequence[Algorithm],
        arr: np.ndarray,
        column: int,
    ) -> np.ndarray:
        """``(n, A)``: ``column`` of each algorithm's memo rows for ``arr``.

        Per expression, the instance ids are looked up once and every
        algorithm's memo column is gathered.  The rows any of them
        lacks are computed in one machine call, over the union of the
        missing rows, for each algorithm missing at least one.  Rows of
        the wrong width for an expression are refused.  The
        model is deterministic, so rows rewritten that way get the
        bits they already held.  Only a measurement gives rows ids; it
        fills both columns.  A prediction fills the predicted column
        of rows that have ids and returns the others unstored, so a
        stream of distinct predictions leaves the memo as it was; when
        no row has an id, the machine predicts the batch as it is.
        """
        out = np.empty((arr.shape[0], len(algorithms)))
        by_expression: Dict[str, List[int]] = {}
        for j, algorithm in enumerate(algorithms):
            by_expression.setdefault(algorithm.expression, []).append(j)
        keys = _row_keys(arr)
        for expression, columns in by_expression.items():
            instance_matrix([algorithms[columns[0]]], arr)  # width check
            memo = self._algorithm_memos.get(expression)
            if memo is None:
                memo = self._algorithm_memos[expression] = _Memo(2)
            if column == _PREDICTED and not memo.knows_any(keys):
                chosen = [algorithms[j] for j in columns]
                out[:, columns] = self.machine.predict_plans_batch(
                    arr, [a.plan.steps for a in chosen], [a.name for a in chosen]
                ).T
                continue
            ids = memo.ids(keys, assign=column == _MEASURED)
            # Only predictions leave rows without ids; they hold nothing.
            seen = ids >= 0
            tables, values = [], np.full((len(columns), len(ids)), np.nan)
            if seen.any():
                tables = [memo.table(algorithms[j].name) for j in columns]
                at = ids[seen]
                values[:, seen] = [table[at, column] for table in tables]
            missing = np.isnan(values)
            lacking = np.flatnonzero(missing.any(axis=1))
            if lacking.size:
                rows = np.flatnonzero(missing.any(axis=0))
                todo, first = np.unique(ids[rows], return_index=True)
                sub = arr[rows[first]]
                chosen = [algorithms[columns[r]] for r in lacking.tolist()]
                plans = [a.plan.steps for a in chosen]
                contexts = [a.name for a in chosen]
                if column == _MEASURED:
                    predicted = np.empty((len(chosen), todo.size))
                    measured = self.machine.measure_plans_batch(
                        sub, plans, contexts, predicted=predicted
                    )
                else:
                    measured = None
                    predicted = self.machine.predict_plans_batch(
                        sub, plans, contexts
                    )
                # Sorted ids: the rows without one lead and stay unstored.
                kept = slice(np.searchsorted(todo, 0), None)
                for i, r in enumerate(lacking.tolist() if tables else ()):
                    table = tables[r]
                    if measured is not None:
                        table[todo[kept], _MEASURED] = measured[i, kept]
                    table[todo[kept], _PREDICTED] = predicted[i, kept]
                computed = predicted if measured is None else measured
                inverse = np.searchsorted(todo, ids[rows])
                values[lacking[:, None], rows] = computed[:, inverse]
            out[:, columns] = values.T
        return out

    def time_algorithms(
        self, algorithm: Algorithm, instances: Sequence[Sequence[int]]
    ) -> np.ndarray:
        arr = self._instances_matrix(instances)
        return self._algorithm_columns([algorithm], arr, _MEASURED)[:, 0]

    def time_algorithms_matrix(
        self,
        algorithms: Sequence[Algorithm],
        instances: Sequence[Sequence[int]],
    ) -> np.ndarray:
        """``(n, A)`` measured times from each algorithm's memo rows.

        The missing rows of all the algorithms are measured in one
        machine call (see :meth:`_algorithm_columns`).
        """
        arr = self._instances_matrix(instances)
        return self._algorithm_columns(algorithms, arr, _MEASURED)

    def predict_times(
        self,
        algorithm: Algorithm,
        instances: Sequence[Sequence[int]],
        timed=None,
    ) -> np.ndarray:
        # ``timed`` (the real-backend cross-plan benchmark memo) is
        # deliberately ignored: the machine folds the algorithm name
        # into every measurement's noise stream, so predictions are
        # context-dependent and cannot be shared across plans.  They
        # live in the algorithm's memo rows next to its measurements
        # instead; the noise-free dedupe across plans happens inside
        # each machine pass.
        arr = self._instances_matrix(instances)
        return self._algorithm_columns([algorithm], arr, _PREDICTED)[:, 0]

    def predict_times_matrix(
        self,
        algorithms: Sequence[Algorithm],
        instances: Sequence[Sequence[int]],
    ) -> np.ndarray:
        """``(n, A)`` predictions from each algorithm's memo rows.

        Rows an earlier measurement filled are hits; the rest are
        predicted in one machine call (see :meth:`_algorithm_columns`).
        """
        arr = self._instances_matrix(instances)
        return self._algorithm_columns(algorithms, arr, _PREDICTED)

    def time_kernels(
        self, kernel: KernelName, dims: Sequence[Sequence[int]]
    ) -> np.ndarray:
        arr = np.asarray(dims, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError(
                f"dims must be a (n, arity) matrix, got shape {arr.shape!r}"
            )
        memo = self._kernel_memos.get(kernel)
        if memo is None:
            memo = self._kernel_memos[kernel] = _Memo(1)
        ids = memo.ids(_row_keys(arr))
        table = memo.table(kernel)
        values = table[ids, 0]
        missing = np.flatnonzero(np.isnan(values))
        if missing.size:
            # Each distinct missing row is measured exactly once.
            todo, first = np.unique(ids[missing], return_index=True)
            table[todo, 0] = self.machine.measure_kernel_batch(
                kernel, arr[missing[first]]
            )
            values[missing] = table[ids[missing], 0]
        return values
