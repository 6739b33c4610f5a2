"""One machine pass per evaluation batch, one memo row per instance.

The machine measures all the plans of an evaluation batch together:
one pass draws the noise of every call slot of several plans at once
and returns both the measured column (with inter-kernel interference)
and the benchmark prediction (without) from that one draw.  It is
exact because the two columns use the same measurement ids by design
and rounding is monotone: for a base time ``c > 0`` the median of
``c * f`` is the scaled median factor.  Noise, base times and
interference are elementwise, so grouping plans into passes changes
no bit either.  The differential tests below hold the pass to the
per-plan formulation, kept here as the reference: separate
``np.median(base[:, None] * factors, axis=1)`` passes per call and
column over the out-of-place noise formula, summed call by call, over
the interpreter's call batches (``batch_kernel_calls`` of an
algorithm's ``kernel_calls``).  The machine reads the plans' steps.
Every comparison is bit equality.

The memo tests check the backend side: a measurement also fills its
prediction, so predicting measured instances calls no machine code,
and a matrix call over a partly warm memo equals fresh backends.
"""

import random
import tracemalloc
from collections import Counter, namedtuple

import numpy as np
import pytest

import repro.machine.machine as machine_module

from repro.backends.simulated import SimulatedBackend
from repro.core.searchspace import paper_box
from repro.expressions.registry import get_expression, known_expressions
from repro.kernels.types import (
    KERNEL_ARITY,
    KernelCallBatch,
    KernelName,
    batch_kernel_calls,
)
from repro.machine.machine import MachineModel
from repro.machine.noise import (
    _STREAM_M,
    _STREAM_S,
    _STREAM_U,
    _STREAM_V,
    NoiseModel,
    _unit,
    fold,
    mix64,
)
from repro.machine.presets import (
    no_cache_machine,
    no_variants_machine,
    paper_machine,
)

PRESETS = (paper_machine, no_cache_machine, no_variants_machine)
SEEDS = (0, 1, 7)
REPS = range(1, 7)
#: The preset's own noise, a silent model, and a spike on every rep.
NOISE_KINDS = ("preset", "silent", "always-spike")
FAMILIES = known_expressions()

#: A hand-built plan step, read by the machine as ``Plan.steps`` are.
Step = namedtuple("Step", "kernel dims reads_previous")


def reference_factors(noise: NoiseModel, ids, reps: int) -> np.ndarray:
    """The out-of-place noise formula: ``(n, reps)`` factors."""
    ids = np.asarray(ids, dtype=np.uint64).reshape(-1)
    if noise.silent:
        return np.ones((ids.shape[0], reps))
    rep_ids = fold(ids[:, None], np.arange(reps, dtype=np.int64)[None, :])
    u = _unit(mix64(rep_ids ^ _STREAM_U))
    v = _unit(mix64(rep_ids ^ _STREAM_V))
    gauss = np.sqrt(-2.0 * np.log(u)) * np.cos(2.0 * np.pi * v)
    value = np.exp(noise.sigma * gauss)
    if noise.spike_probability > 0.0:
        s = _unit(mix64(rep_ids ^ _STREAM_S))
        m = _unit(mix64(rep_ids ^ _STREAM_M))
        value = np.where(
            s < noise.spike_probability, value * (1.0 + 2.0 * m), value
        )
    return value


def reference_totals(machine: MachineModel, calls, context: str):
    """Separate measured and predicted passes, one median per call."""
    context_base = machine.noise.stream_base(context)
    measured = np.zeros(calls[0].n)
    predicted = np.zeros(calls[0].n)
    previous = None
    for index, call in enumerate(calls):
        base = np.broadcast_to(
            machine.kernel_seconds_batch(call.kernel, call.dims), (call.n,)
        )
        ids = machine._measurement_ids(
            context_base, index, call.kernel, call.dims
        )
        factors = reference_factors(machine.noise, ids, machine.reps)
        predicted = predicted + np.median(base[:, None] * factors, axis=1)
        if previous is not None and call.reads_previous:
            base = base * (
                1.0 + machine.interference_penalty_batch(
                    previous.kernel, previous.dims, call.kernel, call.dims
                )
            )
        measured = measured + np.median(base[:, None] * factors, axis=1)
        previous = call
    return measured, predicted


def _interpreted_calls(algorithm, arr):
    """The interpreter's call batches of ``algorithm`` over ``arr``."""
    columns = tuple(arr[:, i] for i in range(arr.shape[1]))
    return batch_kernel_calls(algorithm.kernel_calls(columns), arr.shape[0])


def _plans(algorithms, arr):
    """``(name, steps, reference call batches)`` of each algorithm."""
    return [
        (a.name, a.plan.steps, _interpreted_calls(a, arr))
        for a in algorithms
    ]


def _noise(kind: str, preset_noise: NoiseModel, seed: int) -> NoiseModel:
    if kind == "preset":
        return preset_noise
    if kind == "silent":
        return NoiseModel(seed=seed)
    return NoiseModel(
        sigma=preset_noise.sigma, spike_probability=1.0, seed=seed
    )


def _machines(kind: str):
    """Every (preset, seed, reps) machine with the ``kind`` noise."""
    for preset in PRESETS:
        for seed in SEEDS:
            template = preset(seed=seed)
            for reps in REPS:
                yield MachineModel(
                    template.spec,
                    noise=_noise(kind, template.noise, seed),
                    reps=reps,
                    variant_dispatch=template.variant_dispatch,
                    cache_effects=template.cache_effects,
                )


def _instances(n_dims: int, count: int, seed: int) -> np.ndarray:
    rng = random.Random(seed)
    box = paper_box(n_dims)
    rows = [box.sample(rng) for _ in range(count)]
    # Small dims too, where variant dispatch and interference bite.
    rows += [
        tuple(rng.randint(5, 120) for _ in range(n_dims))
        for _ in range(count)
    ]
    return np.asarray(rows, dtype=np.int64)


# ----------------------------------------------------------------------
# Noise kernel
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", NOISE_KINDS)
def test_factors_match_the_out_of_place_formula(kind):
    rng = np.random.default_rng(11)
    template = paper_machine(seed=0).noise
    for seed in SEEDS:
        noise = _noise(kind, template, seed)
        for reps in range(1, 8):
            for n in (0, 1, 9, 4099):
                ids = rng.integers(
                    0, 2**63, size=n, dtype=np.int64
                ).view(np.uint64) * np.uint64(3)
                got = noise.factors_from_ids(ids, reps)
                want = reference_factors(noise, ids, reps)
                assert got.shape == want.shape == (n, reps)
                assert np.array_equal(got, want)
                assert np.array_equal(noise.rep_factors(ids, reps), want.T)


# ----------------------------------------------------------------------
# Machine: one pass, both columns
# ----------------------------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", NOISE_KINDS)
def test_shared_pass_matches_separate_median_passes(family, kind):
    expression = get_expression(family)
    arr = _instances(expression.n_dims, 6, seed=len(family))
    plans = _plans(expression.algorithms(), arr)
    for machine in _machines(kind):
        for name, steps, calls in plans:
            want_measured, want_predicted = reference_totals(
                machine, calls, name
            )
            predicted = np.empty((1, arr.shape[0]))
            measured = machine.measure_plans_batch(
                arr, [steps], [name], predicted=predicted
            )
            assert np.array_equal(measured[0], want_measured)
            assert np.array_equal(predicted[0], want_predicted)
            assert np.array_equal(
                machine.measure_plans_batch(arr, [steps], [name])[0],
                want_measured,
            )
            assert np.array_equal(
                machine.predict_plans_batch(arr, [steps], [name])[0],
                want_predicted,
            )
        _assert_pass_matches_reference(machine, arr, plans)


def _assert_pass_matches_reference(machine, arr, plans):
    """Each row of the multi-plan forms equals that plan's reference."""
    names = [name for name, _, _ in plans]
    steps = [plan for _, plan, _ in plans]
    want = [reference_totals(machine, calls, name) for name, _, calls in plans]
    predicted = np.empty((len(plans), arr.shape[0]))
    measured = machine.measure_plans_batch(
        arr, steps, names, predicted=predicted
    )
    assert np.array_equal(measured, np.array([m for m, _ in want]))
    assert np.array_equal(predicted, np.array([q for _, q in want]))
    assert np.array_equal(
        machine.predict_plans_batch(arr, steps, names),
        np.array([q for _, q in want]),
    )


def _side_by_side(groups):
    """``(arr, plans)`` of several ``(arr, plans)`` groups of equal rows.

    Each group's instances take their own columns of one matrix, and
    its steps are shifted to read them.
    """
    joined, offset = [], 0
    for arr, plans in groups:
        for name, steps, calls in plans:
            shifted = tuple(
                Step(s.kernel, tuple(offset + d for d in s.dims),
                     s.reads_previous)
                for s in steps
            )
            joined.append((name, shifted, calls))
        offset += arr.shape[1]
    return np.hstack([arr for arr, _ in groups]), joined


def _mixed_plans(n: int):
    """Plans of 2, 3, 4 and 14 calls over the same ``n`` rows."""
    groups = []
    for family, take in (("aatb", 2), ("sum8", 2), ("chain4", 2), ("sum3", 2)):
        expression = get_expression(family)
        arr = _instances(expression.n_dims, n, seed=n + len(family))[:n]
        groups.append((arr, _plans(expression.algorithms()[:take], arr)))
    arr, plans = _side_by_side(groups)
    # Interleave long and short plans so every pass pads some of them.
    return arr, plans[::2] + plans[1::2]


def _equal_dims_plans(n: int):
    """Every arity-2 kernel over one dims matrix, in two orders.

    The slots' columns are equal, their kernels (and so their base
    times and interference) are not.
    """
    rng = np.random.default_rng(n)
    dims = rng.integers(5, 1400, size=(n, 2))
    kernels = (KernelName.SYRK, KernelName.SYMM, KernelName.ADD,
               KernelName.TRSM)
    plans = []
    for order, step in (("forward", 1), ("reverse", -1)):
        steps = tuple(
            Step(kernel, (0, 1), index > 0)
            for index, kernel in enumerate(kernels[::step])
        )
        calls = [
            KernelCallBatch(s.kernel, dims, s.reads_previous) for s in steps
        ]
        plans.append((f"equal-dims-{order}", steps, calls))
    return dims, plans


@pytest.mark.parametrize("n", (1, 7))
@pytest.mark.parametrize("kind", NOISE_KINDS)
def test_pass_over_plans_of_unequal_length_matches_reference(n, kind):
    arr, plans = _side_by_side([_mixed_plans(n), _equal_dims_plans(n)])
    assert len({len(steps) for _, steps, _ in plans}) == 4
    for machine in _machines(kind):
        _assert_pass_matches_reference(machine, arr, plans)


def _record_passes(monkeypatch):
    """Record the plan count of every machine pass."""
    sizes = []
    original = MachineModel._pass

    def recorded(self, plans, *args):
        sizes.append(len(plans))
        return original(self, plans, *args)

    monkeypatch.setattr(MachineModel, "_pass", recorded)
    return sizes


def test_wide_batch_splits_into_bounded_passes(monkeypatch):
    """sum3's 4 plans x 4 calls over 3,000 rows exceed one pass."""
    expression = get_expression("sum3")
    arr = _instances(expression.n_dims, 1500, seed=2)
    assert arr.shape[0] == 3000
    plans = _plans(expression.algorithms(), arr)
    sizes = _record_passes(monkeypatch)
    template = paper_machine(seed=3)
    for reps in (5, 6):
        machine = MachineModel(template.spec, noise=template.noise, reps=reps)
        _assert_pass_matches_reference(machine, arr, plans)
    # 2 plans x 4 slots x 3,000 rows = 24,000 ids fit; 3 plans do not.
    assert sizes == [2, 2] * 4


@pytest.mark.parametrize(
    "bound, want",
    [
        # Widths 2, 14, 3, 4, 2, 14, 3, 4 over n = 5 rows: a pass's
        # ids are its widest plan's calls x its plans x n.
        (14 * 2 * 5, [2, 3, 2, 1]),
        (14 * 2 * 5 - 1, [1, 1, 3, 1, 2]),
        (14 * 3 * 5, [3, 3, 2]),
        # Five one-row blocks (1 // 14 rows, at least one) of 8
        # one-plan passes each.
        (1, [1] * 40),
        (14 * 8 * 5, [8]),
        (14 * 8 * 5 - 1, [7, 1]),
    ],
)
def test_pass_bound_counts_padded_ids(bound, want, monkeypatch):
    arr, plans = _mixed_plans(5)
    assert [len(steps) for _, steps, _ in plans] == [2, 14, 3, 4, 2, 14, 3, 4]
    monkeypatch.setattr(machine_module, "_PASS_IDS", bound)
    sizes = _record_passes(monkeypatch)
    machine = paper_machine(seed=1)
    _assert_pass_matches_reference(machine, arr, plans)
    assert sizes == want * 2  # measure, then predict


def _rays(n_dims: int, rays: int, steps: int, seed: int) -> np.ndarray:
    """Rays stacked: each origin tiled, with one column walked.

    Ray ``r`` walks column ``r % n_dims`` by ``steps`` distinct values,
    the shape of the region traversal's batches.  Calls not reading
    the walked column repeat the row above within a ray.
    """
    rng = np.random.default_rng(seed)
    origins = rng.integers(5, 1400, size=(rays, n_dims))
    rows = np.repeat(origins, steps, axis=0)
    walked = np.repeat(np.arange(rays) % n_dims, steps)
    rows[np.arange(rays * steps), walked] = np.tile(
        5 + 23 * np.arange(steps), rays
    )
    return rows


def _peak_over_outputs(arr, plans):
    """Traced peak of measuring ``arr`` with sum4's first ``plans``.

    Returns ``(peak, outputs)``: ``outputs`` is the ``(P, n)``
    predicted array the call fills.
    """
    algorithms = get_expression("sum4").algorithms()[:plans]
    names = [a.name for a in algorithms]
    steps = [a.plan.steps for a in algorithms]
    machine = paper_machine(seed=0)
    predicted = np.empty((len(algorithms), arr.shape[0]))
    machine.measure_plans_batch(arr, steps[:1], names[:1])  # warm caches
    tracemalloc.start()
    try:
        machine.measure_plans_batch(arr, steps, names, predicted=predicted)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, predicted.nbytes


def test_pass_memory_is_bounded_by_the_pass_constant():
    """A 5,000-row batch of sum4's 25 plans stays within a few passes.

    Unbounded, one pass would hold 25 x 6 x 5,000 = 750,000 ids and
    its temporaries (~58 MB traced).  Bounded, the peak is the
    ``(P, n)`` outputs plus a working set proportional to
    ``_PASS_IDS``: every per-id array is at most 8 bytes an id, and a
    pass holds fewer than 32 such arrays at once.
    """
    expression = get_expression("sum4")
    rng = np.random.default_rng(5)
    arr = rng.integers(5, 1400, size=(5000, expression.n_dims))
    peak, outputs = _peak_over_outputs(arr, 25)
    assert peak < outputs + 32 * 8 * machine_module._PASS_IDS


@pytest.mark.parametrize(
    "shape, plans",
    [("random", 3), ("rays", 3), ("random", 25), ("rays", 25)],
)
def test_wide_plan_memory_is_bounded_by_row_blocks(shape, plans):
    """The same bound holds for 20,000 rows, where one plan is wide.

    One sum4 plan over 20,000 rows holds 6 x 20,000 = 120,000 padded
    ids, more than ``_PASS_IDS``: only row blocks bound its pass.
    """
    expression = get_expression("sum4")
    if shape == "random":
        rng = np.random.default_rng(5)
        arr = rng.integers(5, 1400, size=(20000, expression.n_dims))
    else:
        arr = _rays(expression.n_dims, 400, 50, seed=5)
    peak, outputs = _peak_over_outputs(arr, plans)
    assert peak < outputs + 32 * 8 * machine_module._PASS_IDS


def _reference_interfered(machine, table, block, rows):
    """The per-pair loop: one penalty call and one multiply per pair."""
    out = np.empty((len(table.pairs), rows.shape[0]))
    offsets = block.offsets
    for q, (producer, consumer) in enumerate(table.pairs):
        base = block.bases[offsets[consumer]:offsets[consumer + 1]]
        if block.runs is not None:
            base = base[block.runs[consumer]]
        producer_kernel, producer_columns = table.slots[producer]
        consumer_kernel, consumer_columns = table.slots[consumer]
        penalty = machine.interference_penalty_batch(
            producer_kernel, rows[:, producer_columns],
            consumer_kernel, rows[:, consumer_columns],
        )
        np.multiply(base, 1.0 + penalty, out=out[q])
    return out


@pytest.mark.parametrize("family", ("sum4", "aatb", "gram3"))
@pytest.mark.parametrize("shape", ("distinct", "rays"))
@pytest.mark.parametrize("bound", (None, 60))
def test_block_interference_per_kernel_pair_matches_per_pair_loop(
    family, shape, bound, monkeypatch
):
    """One penalty call per (producer, consumer) kernel pair, whose
    pairs are stacked at most ``_PASS_IDS`` rows a call, gives the
    per-pair loop's bits, with run compression and without."""
    expression = get_expression(family)
    algorithms = expression.algorithms()
    if shape == "distinct":
        # Every column strictly increasing: every row heads every run.
        rng = np.random.default_rng(3)
        arr = np.sort(rng.integers(5, 1200, size=(30, expression.n_dims)),
                      axis=0) + np.arange(30)[:, None]
    else:
        arr = _rays(expression.n_dims, 3, 10, seed=3)
    if bound is not None:
        monkeypatch.setattr(machine_module, "_PASS_IDS", bound)
    machine = paper_machine(seed=2)
    table = machine_module._CallTable(
        machine,
        [a.plan.steps for a in algorithms],
        [a.name for a in algorithms],
    )
    calls = []
    original = machine.interference_penalty_batch

    def counted(producer, producer_dims, consumer, consumer_dims):
        calls.append((producer, consumer, len(producer_dims)))
        return original(producer, producer_dims, consumer, consumer_dims)

    monkeypatch.setattr(machine, "interference_penalty_batch", counted)
    block = machine_module._Block(machine, table, arr, True)
    assert (block.runs is None) == (shape == "distinct")
    got, kernel_pairs = block.interfered, len(table.pair_groups)
    assert len({(p, c) for p, c, _ in calls}) == kernel_pairs
    if bound is None:
        assert len(calls) == kernel_pairs
    assert max(rows for _, _, rows in calls) <= max(
        len(arr), bound or machine_module._PASS_IDS
    )
    monkeypatch.setattr(machine, "interference_penalty_batch", original)
    want = _reference_interfered(machine, table, block, arr)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_sum4_pairs_share_one_kernel_pair():
    """sum4's 18 (producer, consumer) slot pairs are all GEMM -> GEMM."""
    algorithms = get_expression("sum4").algorithms()
    machine = paper_machine(seed=0)
    table = machine_module._CallTable(
        machine,
        [a.plan.steps for a in algorithms],
        [a.name for a in algorithms],
    )
    assert len(table.pairs) == 18
    assert [group[:2] for group in table.pair_groups] == [
        (KernelName.GEMM, KernelName.GEMM)
    ]


def _run_batches(n_dims: int, seed: int):
    """Batches whose rows repeat in some calls' columns, 48 rows at most."""
    rng = np.random.default_rng(seed)
    a, b, c = rng.integers(5, 1400, size=(3, n_dims))
    b_one_column = a.copy()
    b_one_column[0] = b[0]
    return {
        "rays": _rays(n_dims, 4, 12, seed),
        "repeated-row": np.stack([a, b, b, c]),
        "all-equal": np.tile(a, (6, 1)),
        "one-row": a[None, :],
        "alternating": np.tile(np.stack([a, b]), (4, 1)),
        "alternating-one-column": np.tile(np.stack([a, b_one_column]), (4, 1)),
    }


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", NOISE_KINDS)
def test_run_shaped_batches_match_the_per_call_reference(family, kind):
    """Rows gathered from run heads equal their per-call reference.

    The reference is rowwise, so one reference over every batch's
    rows stacked serves them all; each batch is measured on its own.
    """
    expression = get_expression(family)
    algorithms = expression.algorithms()
    names = [a.name for a in algorithms]
    steps = [a.plan.steps for a in algorithms]
    batches = list(_run_batches(expression.n_dims, len(family)).values())
    stacked = np.concatenate(batches)
    calls = [_interpreted_calls(a, stacked) for a in algorithms]
    bounds = np.cumsum([0] + [len(batch) for batch in batches])
    for machine in _machines(kind):
        want = [reference_totals(machine, c, n) for c, n in zip(calls, names)]
        want_measured = np.array([m for m, _ in want])
        want_predicted = np.array([q for _, q in want])
        for batch, start, stop in zip(batches, bounds, bounds[1:]):
            rows = slice(start, stop)
            predicted = np.empty((len(algorithms), len(batch)))
            measured = machine.measure_plans_batch(
                batch, steps, names, predicted=predicted
            )
            assert np.array_equal(measured, want_measured[:, rows])
            assert np.array_equal(predicted, want_predicted[:, rows])
            assert np.array_equal(
                machine.predict_plans_batch(batch, steps, names),
                want_predicted[:, rows],
            )


def test_zero_row_batches_give_empty_totals():
    expression = get_expression("chain4")
    algorithms = expression.algorithms()
    names = [a.name for a in algorithms]
    arr = np.empty((0, expression.n_dims), dtype=np.int64)
    machine = paper_machine(seed=0)
    steps = [a.plan.steps for a in algorithms]
    predicted = np.empty((len(algorithms), 0))
    for got in (
        machine.measure_plans_batch(arr, steps, names, predicted=predicted),
        machine.predict_plans_batch(arr, steps, names),
    ):
        assert got.shape == (len(algorithms), 0)


@pytest.mark.parametrize("kind", NOISE_KINDS)
def test_kernel_medians_match_the_median_of_scaled_factors(kind):
    rng = random.Random(3)
    for machine in _machines(kind):
        for kernel in (KernelName.GEMM, KernelName.SYRK):
            dims = np.asarray(
                [
                    [rng.randint(5, 1400) for _ in range(KERNEL_ARITY[kernel])]
                    for _ in range(16)
                ],
                dtype=np.int64,
            )
            base = machine.kernel_seconds_batch(kernel, dims)
            ids = machine._measurement_ids(
                machine.noise.stream_base("kernel-benchmark"),
                None,
                kernel,
                dims,
            )
            factors = reference_factors(machine.noise, ids, machine.reps)
            assert np.array_equal(
                machine.measure_kernel_batch(kernel, dims),
                np.median(base[:, None] * factors, axis=1),
            )


# ----------------------------------------------------------------------
# Machine: one call table per plan set
# ----------------------------------------------------------------------


def _counting(counts, name, function):
    """``function``, counting its calls under ``name``."""

    def counted(*args, **kwargs):
        counts[name] += 1
        return function(*args, **kwargs)

    return counted


@pytest.mark.parametrize("family", ("sum4", "aatb"))
def test_one_row_pass_runs_as_array_operations(family, monkeypatch):
    """One fold per arity group and one draw, whatever the call count.

    sum4's 150 calls are all GEMMs; aatb mixes GEMM with SYRK and SYMM.
    A second call over the same plans reuses the compiled call table:
    it builds none and folds no per-call id head.
    """
    expression = get_expression(family)
    algorithms = expression.algorithms()
    steps = [a.plan.steps for a in algorithms]
    names = [a.name for a in algorithms]
    arities = {KERNEL_ARITY[step.kernel] for plan in steps for step in plan}
    arr = _instances(expression.n_dims, 1, seed=3)[:1]
    counts = Counter()
    for owner, name, key in (
        (machine_module, "fold_columns", "fold"),
        (machine_module, "_CallTable", "table"),
        (MachineModel, "_median_factors", "draw"),
        (MachineModel, "_id_head", "head"),
    ):
        wrapped = _counting(counts, key, getattr(owner, name))
        monkeypatch.setattr(owner, name, wrapped)
    machine = paper_machine(seed=0)
    first = machine.predict_plans_batch(arr, steps, names)
    assert counts == {"fold": len(arities), "draw": 1, "table": 1}
    counts.clear()
    again = machine.predict_plans_batch(arr, steps, names)
    assert counts == {"fold": len(arities), "draw": 1}
    assert np.array_equal(again, first)


def test_call_tables_are_cached_for_tuple_steps_only():
    """Identity keys hold only for immutable step sequences.

    A thousand calls over fresh step lists add no table; a list of
    steps mutated in place between two calls is measured as it stands
    each time.
    """
    expression = get_expression("aatb")
    algorithms = expression.algorithms()
    names = [a.name for a in algorithms]
    arr = _instances(expression.n_dims, 2, seed=1)
    machine = paper_machine(seed=0)
    machine.measure_plans_batch(
        arr, [a.plan.steps for a in algorithms], names
    )
    size = len(machine._tables)
    for _ in range(1000):
        machine.measure_plans_batch(
            arr, [list(a.plan.steps) for a in algorithms], names
        )
    assert len(machine._tables) == size
    steps = list(algorithms[0].plan.steps)
    for source in algorithms[:2]:
        steps[:] = source.plan.steps
        want_measured, want_predicted = reference_totals(
            machine, _interpreted_calls(source, arr), "mutated"
        )
        predicted = np.empty((1, len(arr)))
        measured = machine.measure_plans_batch(
            arr, [steps], ["mutated"], predicted=predicted
        )
        assert np.array_equal(measured[0], want_measured)
        assert np.array_equal(predicted[0], want_predicted)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", NOISE_KINDS)
def test_cached_call_tables_repeat_the_first_call(family, kind):
    """A repeated measurement over the same plans returns the same bits."""
    expression = get_expression(family)
    algorithms = expression.algorithms()
    steps = [a.plan.steps for a in algorithms]
    names = [a.name for a in algorithms]
    arr = _instances(expression.n_dims, 64, seed=len(family))
    for machine in _machines(kind):
        for rows in (arr[:1], arr):
            runs = []
            for _ in range(2):
                predicted = np.empty((len(steps), len(rows)))
                measured = machine.measure_plans_batch(
                    rows, steps, names, predicted=predicted
                )
                runs.append((measured, predicted))
            (measured, predicted), (again, again_predicted) = runs
            assert np.array_equal(again, measured)
            assert np.array_equal(again_predicted, predicted)


# ----------------------------------------------------------------------
# Backend: one memo row per (algorithm, instance)
# ----------------------------------------------------------------------


MEASURE, PREDICT = "measure_plans_batch", "predict_plans_batch"


class _Counting:
    """Wrap a machine method, recording the plans and rows of each call."""

    def __init__(self, monkeypatch, machine, name):
        self.rows = []
        self.plans = []
        original = getattr(machine, name)

        def counted(instances, plans, *args, **kwargs):
            self.plans.append(len(plans))
            self.rows.append(len(instances))
            return original(instances, plans, *args, **kwargs)

        monkeypatch.setattr(machine, name, counted)

    @property
    def calls(self) -> int:
        return len(self.rows)


def _fresh_predictions(algorithms, instances, seed):
    """Per-algorithm predictions, each from a fresh backend."""
    return np.stack(
        [
            SimulatedBackend(paper_machine(seed=seed)).predict_times(
                a, instances
            )
            for a in algorithms
        ],
        axis=1,
    )


def _fresh_measurements(algorithms, instances, seed):
    """Per-algorithm measurements, each from a fresh backend."""
    return np.stack(
        [
            SimulatedBackend(paper_machine(seed=seed)).time_algorithms(
                a, instances
            )
            for a in algorithms
        ],
        axis=1,
    )


@pytest.mark.parametrize("family", ("aatb", "chain4", "sum3"))
def test_time_algorithms_matrix_is_one_machine_call(family, monkeypatch):
    expression = get_expression(family)
    algorithms = expression.algorithms()
    instances = _instances(expression.n_dims, 20, seed=4)
    backend = SimulatedBackend(paper_machine(seed=3))
    measure = _Counting(monkeypatch, backend.machine, MEASURE)
    predict = _Counting(monkeypatch, backend.machine, PREDICT)
    got = backend.time_algorithms_matrix(algorithms, instances)
    assert measure.plans == [len(algorithms)]
    assert measure.rows == [len(instances)]
    assert np.array_equal(got, _fresh_measurements(algorithms, instances, 3))
    # Predicting the measured rows afterwards calls no machine code.
    assert np.array_equal(
        backend.predict_times_matrix(algorithms, instances),
        _fresh_predictions(algorithms, instances, 3),
    )
    assert measure.calls == 1 and predict.calls == 0


@pytest.mark.parametrize("family", ("aatb", "chain4", "sum3"))
def test_matrix_calls_over_a_partly_warm_memo_match_fresh_backends(
    family, monkeypatch
):
    expression = get_expression(family)
    algorithms = expression.algorithms()
    instances = _instances(expression.n_dims, 15, seed=7)
    rows = np.concatenate([instances, instances[:5]])
    backend = SimulatedBackend(paper_machine(seed=5))
    # Algorithm 0 measured on rows 0-9, algorithm 1 predicted only on
    # rows 5-14, the rest cold.
    backend.time_algorithms(algorithms[0], instances[:10])
    backend.predict_times(algorithms[1], instances[5:15])
    measure = _Counting(monkeypatch, backend.machine, MEASURE)
    predict = _Counting(monkeypatch, backend.machine, PREDICT)
    # Rows 0-9: algorithm 0 hits; the others miss some of the 10 rows.
    got = backend.predict_times_matrix(algorithms, instances[:10])
    assert predict.plans == [len(algorithms) - 1]
    assert predict.rows == [10]
    assert measure.calls == 0
    assert np.array_equal(
        got, _fresh_predictions(algorithms, instances[:10], 5)
    )
    # No algorithm has a measurement at every row: one call over all
    # 30 distinct rows, the 5 repeated rows computed once.
    got = backend.time_algorithms_matrix(algorithms, rows)
    assert measure.plans == [len(algorithms)]
    assert measure.rows == [30]
    assert np.array_equal(got, _fresh_measurements(algorithms, rows, 5))
    assert np.array_equal(
        backend.predict_times_matrix(algorithms, rows),
        _fresh_predictions(algorithms, rows, 5),
    )
    assert measure.calls == 1 and predict.calls == 1


@pytest.mark.parametrize("family", ("aatb", "chain4", "sum3"))
def test_predicting_measured_instances_calls_no_machine_code(
    family, monkeypatch
):
    expression = get_expression(family)
    algorithms = expression.algorithms()
    instances = _instances(expression.n_dims, 20, seed=5)
    backend = SimulatedBackend(paper_machine(seed=2))
    for algorithm in algorithms:
        backend.time_algorithms(algorithm, instances)
    predict = _Counting(monkeypatch, backend.machine, PREDICT)
    measure = _Counting(monkeypatch, backend.machine, MEASURE)
    got = backend.predict_times_matrix(algorithms, instances)
    assert predict.calls == 0 and measure.calls == 0
    assert np.array_equal(got, _fresh_predictions(algorithms, instances, 2))


@pytest.mark.parametrize("family", ("aatb", "chain4", "sum3"))
def test_predict_first_then_measure_matches_fresh_backends(
    family, monkeypatch
):
    expression = get_expression(family)
    algorithms = expression.algorithms()
    instances = _instances(expression.n_dims, 20, seed=6)
    backend = SimulatedBackend(paper_machine(seed=1))
    measure = _Counting(monkeypatch, backend.machine, MEASURE)
    # A prediction-only miss computes the prediction alone.
    predicted = backend.predict_times_matrix(algorithms, instances[:25])
    assert measure.calls == 0
    measured = np.stack(
        [backend.time_algorithms(a, instances) for a in algorithms], axis=1
    )
    assert measure.calls == len(algorithms)
    assert np.array_equal(
        predicted, _fresh_predictions(algorithms, instances[:25], 1)
    )
    assert np.array_equal(
        measured, _fresh_measurements(algorithms, instances, 1)
    )
    # The measured rows now serve the rest of the predictions.
    predict = _Counting(monkeypatch, backend.machine, PREDICT)
    assert np.array_equal(
        backend.predict_times_matrix(algorithms, instances),
        _fresh_predictions(algorithms, instances, 1),
    )
    assert predict.calls == 0


def test_scalar_calls_interleaved_with_batches_match_fresh_backends():
    expression = get_expression("aatb")
    algorithms = expression.algorithms()
    pool = [tuple(int(d) for d in row) for row in _instances(3, 12, seed=8)]
    want_measured = _fresh_measurements(algorithms, pool, 4)
    want_predicted = _fresh_predictions(algorithms, pool, 4)
    backend = SimulatedBackend(paper_machine(seed=4))
    rng = random.Random(9)
    for _ in range(300):
        op = rng.randrange(5)
        j = rng.randrange(len(algorithms))
        rows = sorted(rng.sample(range(len(pool)), rng.randint(1, 6)))
        chosen = [pool[i] for i in rows]
        if op == 0:
            got = backend.time_algorithm(algorithms[j], chosen[0])
            assert got == want_measured[rows[0], j]
        elif op == 1:
            got = backend.predict_time(algorithms[j], chosen[0])
            assert got == want_predicted[rows[0], j]
        elif op == 2:
            got = backend.time_algorithms(algorithms[j], chosen)
            assert np.array_equal(got, want_measured[rows, j])
        elif op == 3:
            got = backend.predict_times(algorithms[j], chosen)
            assert np.array_equal(got, want_predicted[rows, j])
        else:
            got = backend.predict_times_matrix(algorithms, chosen)
            assert np.array_equal(got, want_predicted[rows])


def _reference_predictions(machine, algorithms, arr):
    """``(n, A)`` per-call median predictions of the interpreter's calls."""
    return np.stack([
        reference_totals(machine, _interpreted_calls(a, arr), a.name)[1]
        for a in algorithms
    ], axis=1)


@pytest.mark.parametrize("family", ("aatb", "chain4", "sum4"))
def test_unseen_predictions_go_straight_to_the_machine(family, monkeypatch):
    """Rows without memo rows are predicted as the batch holds them:
    duplicates and all, with no id assigned; a batch mixing measured
    and unseen rows keeps the memo path, and assigns no id either."""
    expression = get_expression(family)
    algorithms = expression.algorithms()
    instances = _instances(expression.n_dims, 6, seed=9)
    doubled = np.concatenate([instances, instances[::-1], instances[:3]])
    backend = SimulatedBackend(paper_machine(seed=6))
    want = _reference_predictions(backend.machine, algorithms, doubled)
    predict = _Counting(monkeypatch, backend.machine, PREDICT)
    got = backend.predict_times_matrix(algorithms, doubled)
    assert predict.rows == [len(doubled)]
    assert predict.plans == [len(algorithms)]
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    memo = backend._algorithm_memos[expression.name]
    empty = np.empty((0, expression.n_dims), dtype=np.int64)
    assert backend.predict_times_matrix(algorithms, empty).shape == (
        0, len(algorithms)
    )
    assert backend.predict_times(algorithms[0], empty).shape == (0,)
    assert len(memo._ids) == 0 and not memo._tables
    # Measure four rows, then predict them mixed with unseen ones.
    backend.time_algorithms_matrix(algorithms, instances[:4])
    assert len(memo._ids) == 4
    mixed = np.concatenate([instances[2:], instances[:4], instances[5:]])
    got = backend.predict_times_matrix(algorithms, mixed)
    want = _reference_predictions(backend.machine, algorithms, mixed)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert len(memo._ids) == 4


def test_duplicate_instances_are_computed_once(monkeypatch):
    expression = get_expression("chain4")
    algorithm = expression.algorithms()[0]
    instances = _instances(expression.n_dims, 4, seed=3)
    doubled = np.concatenate([instances, instances[::-1]])
    backend = SimulatedBackend(paper_machine(seed=0))
    measure = _Counting(monkeypatch, backend.machine, MEASURE)
    got = backend.time_algorithms(algorithm, doubled)
    assert measure.rows == [len(instances)]
    assert np.array_equal(got[: len(instances)], got[len(instances):][::-1])
    assert np.array_equal(backend.time_algorithms(algorithm, doubled), got)
    assert measure.rows == [len(instances)]


def test_ray_batches_draw_noise_only_at_run_heads(monkeypatch):
    """The backend's ray batches draw one noise id per call and run.

    A call's run heads are the rows where one of the instance columns
    it reads changed (and the first row).  Without the run collapse
    every call would draw an id at every row.
    """
    expression = get_expression("sum4")
    algorithms = expression.algorithms()
    arr = _rays(expression.n_dims, 8, 30, seed=3)
    assert len(np.unique(arr, axis=0)) == len(arr)
    drawn = []
    original = MachineModel._median_factors

    def counted(self, ids):
        drawn.append(ids.shape[0])
        return original(self, ids)

    monkeypatch.setattr(MachineModel, "_median_factors", counted)
    backend = SimulatedBackend(paper_machine(seed=2))
    got = backend.time_algorithms_matrix(algorithms, arr)
    ids = sum(drawn)
    assert np.array_equal(got, _fresh_measurements(algorithms, arr, 2))
    calls = heads = 0
    for algorithm in algorithms:
        for step in algorithm.plan.steps:
            columns = arr[:, step.dims]
            calls += 1
            heads += 1 + np.count_nonzero(
                (columns[1:] != columns[:-1]).any(axis=1)
            )
    assert ids == heads
    assert heads < calls * len(arr)


def test_memo_tables_grow_past_their_first_capacity():
    """Batches wider than a table's first capacity land in grown tables."""
    rng = np.random.default_rng(4)
    dims = rng.integers(5, 1400, size=(3000, 2), dtype=np.int64)
    instances = rng.integers(5, 1400, size=(2500, 3), dtype=np.int64)
    algorithm = get_expression("aatb").algorithms()[0]
    wide = SimulatedBackend(paper_machine(seed=0))
    narrow = SimulatedBackend(paper_machine(seed=0))
    chunks = range(0, 3000, 500)
    assert np.array_equal(
        wide.time_kernels(KernelName.SYRK, dims),
        np.concatenate([
            narrow.time_kernels(KernelName.SYRK, dims[i:i + 500])
            for i in chunks
        ]),
    )
    assert np.array_equal(
        wide.time_algorithms(algorithm, instances),
        np.concatenate([
            narrow.time_algorithms(algorithm, instances[i:i + 500])
            for i in chunks
        ]),
    )
