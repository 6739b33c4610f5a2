"""Algorithm compiler: lower an expression IR to kernel-call plans.

The pipeline per expression (the capture→lower shape of
torchdynamo/torchinductor, scaled to five BLAS-style kernels; a
worked walkthrough lives in ``docs/compiler.md``):

0. **Cost-guided pruning** (optional, :class:`PruneConfig`) — when a
   family's tree cross-product explodes (a sum of two ``k``-chains has
   ``Catalan(k-1)²`` combinations), trees/combinations are ranked by
   the FLOP cost of their unrewritten lowering evaluated at a probe
   instance (by default staggered across the paper box — see
   :meth:`PruneConfig.resolve_centroid`), and only the cheapest
   ``budget`` survive to the passes below.  Ties break to enumeration
   order, so the pruned set is always a prefix of the stable
   cost-ranked full enumeration.
1. **Parenthesisation enumeration** — every full binary tree over each
   product's factors (:func:`repro.expressions.trees.enumerate_trees`),
   or a family-supplied tree list when presentation order matters.
2. **Common-subexpression elimination** — structurally identical
   subproducts (same operands, same transposes) compile to one kernel
   call whose result is reused.
3. **Kernel-rewrite passes** — ``X·Xᵀ``/``Xᵀ·X`` products lower to
   SYRK (with GEMM as the unrewritten variant), and products whose
   left operand is symmetric (a SYRK output or a symmetric leaf) lower
   to SYMM (again with GEMM as the variant).  Variant order pairs
   symmetry-exploiting consumers with symmetry-exploiting producers
   first — the paper's Figure 4 order.  A product whose left factor is
   a triangular-inverse leaf lowers to TRSM (no variant: the operand
   is never inverted explicitly), and an :class:`AddExpr` factor is
   materialised by ADD calls immediately before its first consumer.
4. **Storage resolution** — SYRK writes a lower triangle; a consumer
   other than SYMM's symmetric operand forces a FLOP-free copy to full
   storage on the producer (the paper's ``syrk+copy+gemm`` variant).
5. **Schedules** — a product root with two distinct internal children
   admits left-first and right-first call orders (same FLOPs,
   different inter-kernel locality), exactly the paper's chain
   schedules.

Every resulting :class:`Plan` serves three consumers from one
structure: ``kernel_calls`` over concrete, symbolic (polynomial) or
column-batched dims; a NumPy/BLAS executor for the real backend; and
FLOP counts that are exact sums of the emitted calls.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.expressions import blas
from repro.expressions.base import Algorithm, Expression
from repro.expressions.shapes import SizeExpr, dim_symbol
from repro.expressions.ir import (
    AddExpr,
    Factor,
    Leaf,
    MatrixExpr,
    OperandSpec,
    ProductExpr,
    Signature,
    SumExpr,
    expr_n_dims,
    expr_terms,
    operand_table,
    transpose_signature,
)
from repro.expressions.trees import Tree, enumerate_trees
from repro.kernels.flops import kernel_flops
from repro.kernels.types import KernelCall, KernelName

#: Copy note rendered on a SYRK call whose triangle is re-read as a
#: full matrix by a GEMM consumer (the paper's explicit-copy variant).
COPY_NOTE = "then copy to full"

#: Note on a kernel call that folds the sum accumulation into its
#: output write (``beta = 1``) — FLOP-free, like the copy.
ACCUMULATE_NOTE = "accumulates into the running sum"


@dataclass(frozen=True)
class PruneConfig:
    """Cost-guided pruning of the parenthesisation cross-product.

    ``budget`` counts *trees* (for a sum: per-term tree combinations);
    every kernel variant and schedule of a kept tree survives — the
    kernel choice is the performance question under study, association
    is what explodes combinatorially.  Trees are ranked by the FLOP
    cost of their unrewritten (GEMM/TRSM, plus ADD-factor) lowering
    evaluated at ``centroid`` — one concrete size per instance dim —
    with CSE ignored and ties broken to enumeration order, so the kept
    set is a prefix of the stable cost-ranked full enumeration.

    The default probe *staggers* the dims across the paper box
    (distinct sizes, linearly spaced) rather than using the literal
    midpoint: at an all-equal point every association of a chain costs
    exactly the same and the "ranking" would collapse to enumeration
    order.  Distinct per-dim sizes make tree costs genuinely differ,
    so the budget keeps associations that are cheap *somewhere real*
    in the box.
    """

    budget: int
    centroid: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError("prune budget must be >= 1")

    def resolve_centroid(self, n_dims: int) -> Tuple[int, ...]:
        if self.centroid is not None:
            if len(self.centroid) != n_dims:
                raise ValueError(
                    f"centroid has {len(self.centroid)} dims, "
                    f"expression has {n_dims}"
                )
            return self.centroid
        from repro.core.searchspace import PAPER_HIGH, PAPER_LOW

        span = PAPER_HIGH - PAPER_LOW
        return tuple(
            PAPER_LOW + (i + 1) * span // (n_dims + 1)
            for i in range(n_dims)
        )


def _tree_cost_expr(
    factors: Tuple[Factor, ...],
    tree: Tree,
    offset: int = 0,
) -> SizeExpr:
    """Symbolic FLOPs of one tree's unrewritten lowering.

    GEMM cost per product node, TRSM for a triangular-inverse left
    leaf, ADD for add factors; CSE and the SYRK/SYMM rewrites are
    ignored — this is a ranking key, not an exact plan cost (for
    GEMM-only families the two coincide).  The result is a
    :class:`~repro.expressions.shapes.SizeExpr` over the instance-dim
    symbols, probed at concrete centroids via ``size_hint``.
    """

    def walk(node) -> Tuple[SizeExpr, SizeExpr, SizeExpr, bool]:
        if isinstance(node, int):
            factor = factors[node + offset]
            rows = dim_symbol(factor.rows)
            cols = dim_symbol(factor.cols)
            cost = SizeExpr.constant(0)
            if isinstance(factor, AddExpr):
                cost = (len(factor.leaves) - 1) * rows * cols
            return rows, cols, cost, factor.triangular
        l_rows, l_cols, l_cost, l_triangular = walk(node[0])
        _r_rows, r_cols, r_cost, _ = walk(node[1])
        if l_triangular:
            node_cost = l_rows * l_rows * r_cols
        else:
            node_cost = 2 * l_rows * r_cols * l_cols
        return l_rows, r_cols, l_cost + r_cost + node_cost, False

    return walk(tree)[2]


def _tree_cost(
    factors: Tuple[Factor, ...],
    tree: Tree,
    centroid: Sequence[int],
    offset: int = 0,
) -> int:
    """FLOPs of one tree's unrewritten lowering at concrete dims.

    Exact integer evaluation of :func:`_tree_cost_expr` at the probe
    instance; equal to the old direct float walk value for value
    (products of paper-box ints stay far below 2**53), so rankings —
    and hence pruned plan sets — are unchanged.
    """
    return _tree_cost_expr(factors, tree, offset).size_hint(centroid)


@dataclass(frozen=True)
class ValueRef:
    """Reference to a value: a leaf factor or a prior step's output.

    ``sub`` addresses one summand inside an :class:`AddExpr` factor
    slot (None for plain leaves and steps).
    """

    kind: str  # "leaf" | "step"
    index: int
    sub: Optional[int] = None

    @property
    def is_step(self) -> bool:
        return self.kind == "step"


@dataclass(frozen=True)
class PlanStep:
    """One kernel call plus the executor recipe that realises it.

    ``dims`` are indices into the instance dim vector, so the same
    step evaluates over ints, polynomials, or whole instance columns.
    """

    kernel: KernelName
    dims: Tuple[int, ...]
    left: ValueRef
    right: Optional[ValueRef]
    reads_previous: bool = False
    copy_to_full: bool = False
    accumulate: Optional[int] = None
    symmetric: bool = False
    note: str = ""


@dataclass(frozen=True)
class Plan:
    """One lowered evaluation strategy for an expression."""

    expression: str
    n_dims: int
    leaves: Tuple[Factor, ...]
    steps: Tuple[PlanStep, ...]
    tree_index: int
    tree_label: str
    schedule: str = ""
    n_tree_variants: int = 1

    @property
    def kernel_tokens(self) -> Tuple[str, ...]:
        """Kernel sequence with copy steps spelled out: ``syrk+copy+gemm``."""
        tokens: List[str] = []
        for step in self.steps:
            tokens.append(step.kernel.value)
            if step.copy_to_full:
                tokens.append("copy")
        return tuple(tokens)

    def kernel_calls(self, instance: Sequence[Any]) -> Tuple[KernelCall, ...]:
        return tuple(
            KernelCall(
                step.kernel,
                tuple(instance[i] for i in step.dims),
                reads_previous=step.reads_previous,
                note=step.note,
            )
            for step in self.steps
        )

    def flops(self, instance: Sequence[Any]) -> Any:
        total: Any = 0
        for step in self.steps:
            total = total + kernel_flops(
                step.kernel, tuple(instance[i] for i in step.dims)
            )
        return total

    def execute(self, operands: Sequence[np.ndarray]) -> np.ndarray:
        """Run the plan on real operands through the BLAS wrappers.

        The one executor: ``Algorithm.execute`` and
        :class:`~repro.backends.real.RealBlasBackend` run this loop, so
        a new kernel's execution recipe is one branch here.
        """
        values: List[Optional[np.ndarray]] = [None] * len(self.steps)

        def resolve(ref: ValueRef) -> np.ndarray:
            if ref.is_step:
                return values[ref.index]
            factor = self.leaves[ref.index]
            leaf = factor.leaves[ref.sub] if ref.sub is not None else factor
            operand = operands[leaf.operand]
            return operand.T if leaf.transposed else operand

        for i, step in enumerate(self.steps):
            if step.kernel is KernelName.SYRK:
                if step.left.is_step:
                    value = blas.syrk_lower(values[step.left.index])
                else:
                    leaf = self.leaves[step.left.index]
                    value = blas.syrk_lower(
                        operands[leaf.operand], trans=leaf.transposed
                    )
            elif step.kernel is KernelName.SYMM:
                value = blas.symm_lower(resolve(step.left), resolve(step.right))
            elif step.kernel is KernelName.TRSM:
                leaf = self.leaves[step.left.index]
                value = blas.trsm(operands[leaf.operand], resolve(step.right))
            elif step.kernel is KernelName.ADD:
                value = blas.add(resolve(step.left), resolve(step.right))
            else:
                value = blas.gemm(resolve(step.left), resolve(step.right))
            if step.copy_to_full:
                value = blas.fill_symmetric_from_lower(value)
            if step.accumulate is not None:
                value = values[step.accumulate] + value
            values[i] = value
        return values[-1]


#: Maps a plan and its 1-based position in the algorithm list to a name.
PlanNamer = Callable[[Plan, int], str]


def default_plan_namer(plan: Plan, ordinal: int) -> str:
    """``<expr>-<tree#>:<label>[/<kernels>][/<schedule>]``.

    The kernel-token segment appears only when the tree admits more
    than one kernel variant, so GEMM-only families (the chains) keep
    their plain ``chain4-3:(AB)(CD)/left-first`` names.
    """
    label = plan.tree_label
    if plan.n_tree_variants > 1:
        label += "/" + "+".join(plan.kernel_tokens)
    if plan.schedule:
        label += "/" + plan.schedule
    return f"{plan.expression}-{plan.tree_index + 1}:{label}"


# ----------------------------------------------------------------------
# Tree analysis: CSE node table + rewrite opportunities
# ----------------------------------------------------------------------


@dataclass
class _Node:
    """One unique product in a tree/sum DAG (post-CSE)."""

    signature: Signature
    left: ValueRef
    right: ValueRef
    rows: int  # dim index
    cols: int  # dim index
    inner: int  # dim index of the contracted extent
    syrk_pattern: bool
    trsm_pattern: bool
    symmetric: bool
    internal_children: int


class _NodeTable:
    """Unique-product table shared across the trees of one lowering."""

    def __init__(self, leaves: Tuple[Factor, ...]) -> None:
        self.leaves = leaves
        self.nodes: List[_Node] = []
        self._by_signature: Dict[Signature, int] = {}

    def ref_signature(self, ref: ValueRef) -> Signature:
        if ref.is_step:
            return self.nodes[ref.index].signature
        return self.leaves[ref.index].signature()

    def ref_shape(self, ref: ValueRef) -> Tuple[int, int]:
        if ref.is_step:
            node = self.nodes[ref.index]
            return node.rows, node.cols
        leaf = self.leaves[ref.index]
        return leaf.rows, leaf.cols

    def ref_symmetric(self, ref: ValueRef) -> bool:
        if ref.is_step:
            return self.nodes[ref.index].symmetric
        return self.leaves[ref.index].symmetric

    def ref_triangular(self, ref: ValueRef) -> bool:
        """Whether a ref is a triangular-inverse leaf (TRSM trigger)."""
        return not ref.is_step and self.leaves[ref.index].triangular

    def add(self, tree: Tree, leaf_offset: int = 0) -> ValueRef:
        """Intern a parenthesisation tree; returns the root's ref."""
        if isinstance(tree, int):
            return ValueRef("leaf", tree + leaf_offset)
        left = self.add(tree[0], leaf_offset)
        right = self.add(tree[1], leaf_offset)
        signature = ("prod", self.ref_signature(left), self.ref_signature(right))
        existing = self._by_signature.get(signature)
        if existing is not None:
            return ValueRef("step", existing)
        l_rows, l_cols = self.ref_shape(left)
        r_rows, r_cols = self.ref_shape(right)
        if l_cols != r_rows:
            raise ValueError(
                f"tree does not chain: inner dims {l_cols} vs {r_rows}"
            )
        if self.ref_triangular(right):
            raise ValueError(
                "a triangular (inverse) leaf can only be applied from "
                "the left (TRSM is a left solve)"
            )
        trsm_pattern = self.ref_triangular(left)
        syrk_pattern = not trsm_pattern and self.ref_signature(
            right
        ) == transpose_signature(self.ref_signature(left))
        node = _Node(
            signature=signature,
            left=left,
            right=right,
            rows=l_rows,
            cols=r_cols,
            inner=l_cols,
            syrk_pattern=syrk_pattern,
            trsm_pattern=trsm_pattern,
            symmetric=syrk_pattern,
            internal_children=int(left.is_step) + int(right.is_step),
        )
        self._by_signature[signature] = len(self.nodes)
        self.nodes.append(node)
        return ValueRef("step", len(self.nodes) - 1)


def _kernel_choices(
    table: _NodeTable, node: _Node, chosen: Dict[int, KernelName]
) -> Tuple[KernelName, ...]:
    """Kernel options for one product node, in canonical variant order.

    TRSM-pattern products (triangular-inverse left leaf) have no
    variant — the operand is never inverted explicitly.  SYRK-pattern
    products offer [SYRK, GEMM].  Products with a symmetric left
    operand offer SYMM and GEMM, symmetry-exploiting pairing first:
    [SYMM, GEMM] after a SYRK producer or a symmetric leaf,
    [GEMM, SYMM] after a GEMM producer (Figure 4's order).
    """
    if node.trsm_pattern:
        return (KernelName.TRSM,)
    if node.syrk_pattern:
        return (KernelName.SYRK, KernelName.GEMM)
    if table.ref_symmetric(node.left):
        if node.left.is_step:
            producer_exploits = (
                chosen[node.left.index] is KernelName.SYRK
            )
        else:
            producer_exploits = True  # symmetric leaf
        if producer_exploits:
            return (KernelName.SYMM, KernelName.GEMM)
        return (KernelName.GEMM, KernelName.SYMM)
    return (KernelName.GEMM,)


def _enumerate_variants(
    table: _NodeTable, node_order: List[int]
) -> List[Dict[int, KernelName]]:
    """All kernel assignments over ``node_order``, canonical order."""
    variants: List[Dict[int, KernelName]] = []

    def expand(position: int, chosen: Dict[int, KernelName]) -> None:
        if position == len(node_order):
            variants.append(dict(chosen))
            return
        index = node_order[position]
        for kernel in _kernel_choices(table, table.nodes[index], chosen):
            chosen[index] = kernel
            expand(position + 1, chosen)
            del chosen[index]

    expand(0, {})
    return variants


# ----------------------------------------------------------------------
# Lowering: node table + kernel assignment + schedule → steps
# ----------------------------------------------------------------------


@dataclass
class _MutableStep:
    kernel: KernelName
    dims: Tuple[int, ...]
    left: ValueRef
    right: Optional[ValueRef]
    copy_to_full: bool = False
    accumulate: Optional[int] = None
    symmetric: bool = False
    produces_triangle: bool = False
    consumed: List[ValueRef] = field(default_factory=list)


class _Lowering:
    """Emits steps for trees sharing one node table (and its CSE)."""

    def __init__(self, table: _NodeTable) -> None:
        self.table = table
        self.steps: List[_MutableStep] = []
        self._step_of_node: Dict[int, int] = {}
        # Materialised AddExpr factors, keyed by signature so a factor
        # repeated across terms/trees of one plan is summed once.
        self._step_of_add: Dict[Signature, int] = {}

    def _require_full(self, ref: ValueRef) -> None:
        """Force full storage on a triangular producer (FLOP-free copy)."""
        if ref.is_step:
            producer = self.steps[ref.index]
            if producer.produces_triangle:
                producer.copy_to_full = True
                producer.produces_triangle = False

    def emit_tree(
        self,
        root: ValueRef,
        kernels: Dict[int, KernelName],
        right_first_root: bool = False,
    ) -> Optional[int]:
        """Emit one tree's calls; returns the root's step index.

        Returns None when the root is a leaf reference (no calls) or
        was already emitted by an earlier tree (full-tree CSE).
        """

        def visit(ref: ValueRef, swap: bool) -> None:
            if not ref.is_step or ref.index in self._step_of_node:
                return
            node = self.table.nodes[ref.index]
            if kernels[ref.index] is KernelName.SYRK:
                # SYRK reads only X of X·Xᵀ — the right subtree is
                # dead code and is never computed.
                visit(node.left, False)
            elif swap:
                visit(node.right, False)
                visit(node.left, False)
            else:
                visit(node.left, False)
                visit(node.right, False)
            self._emit_node(ref.index, kernels[ref.index])

        already = root.is_step and root.index in self._step_of_node
        visit(root, right_first_root)
        if not root.is_step or already:
            return None
        return self._step_of_node[root.index]

    def _resolve(self, ref: ValueRef) -> ValueRef:
        """Node-space ref → step-space ref.

        Plain leaves pass through; an :class:`AddExpr` factor is
        materialised here — a chain of ADD calls emitted immediately
        before its first consumer — and resolves to its final ADD
        step (shared by every later consumer).
        """
        if ref.is_step:
            return ValueRef("step", self._step_of_node[ref.index])
        factor = self.table.leaves[ref.index]
        if isinstance(factor, AddExpr):
            return ValueRef("step", self._emit_add(ref.index, factor))
        return ref

    def _emit_add(self, leaf_index: int, factor: AddExpr) -> int:
        signature = factor.signature()
        existing = self._step_of_add.get(signature)
        if existing is not None:
            return existing
        running: Optional[int] = None
        for ordinal in range(1, len(factor.leaves)):
            left = (
                ValueRef("leaf", leaf_index, sub=0)
                if running is None
                else ValueRef("step", running)
            )
            right = ValueRef("leaf", leaf_index, sub=ordinal)
            step = _MutableStep(
                kernel=KernelName.ADD,
                dims=(factor.rows, factor.cols),
                left=left,
                right=right,
                consumed=[left, right],
            )
            self.steps.append(step)
            running = len(self.steps) - 1
        self._step_of_add[signature] = running
        return running

    def _emit_node(self, node_index: int, kernel: KernelName) -> None:
        node = self.table.nodes[node_index]
        if kernel is KernelName.TRSM:
            # Left is the triangular-inverse leaf itself — the step
            # references the stored L, never an explicit inverse.
            right = self._resolve(node.right)
            step = _MutableStep(
                kernel=kernel,
                dims=(node.rows, node.cols),
                left=node.left,
                right=right,
                consumed=[right],
            )
            self._require_full(right)
            self.steps.append(step)
            self._step_of_node[node_index] = len(self.steps) - 1
            return
        left = self._resolve(node.left)
        # The right operand of a SYRK node is dead code (same data as
        # the left) and may never have been emitted — resolve lazily.
        if kernel is KernelName.SYRK:
            # Result = X·Xᵀ over the left value; the right operand is
            # the same data and is not read separately.
            step = _MutableStep(
                kernel=kernel,
                dims=(node.rows, node.inner),
                left=left,
                right=None,
                symmetric=True,
                produces_triangle=True,
                consumed=[left],
            )
            self._require_full(left)
        elif kernel is KernelName.SYMM:
            # Symmetric left operand; SYMM reads its lower triangle,
            # so a triangular producer needs no copy.
            right = self._resolve(node.right)
            step = _MutableStep(
                kernel=kernel,
                dims=(node.rows, node.cols),
                left=left,
                right=right,
                symmetric=node.symmetric,
                consumed=[left, right],
            )
            self._require_full(right)
        else:
            right = self._resolve(node.right)
            step = _MutableStep(
                kernel=kernel,
                dims=(node.rows, node.cols, node.inner),
                left=left,
                right=right,
                symmetric=node.symmetric,
                consumed=[left, right],
            )
            self._require_full(left)
            self._require_full(right)
        self.steps.append(step)
        self._step_of_node[node_index] = len(self.steps) - 1

    def accumulate_into(self, step_index: int, target: int) -> None:
        step = self.steps[step_index]
        # Accumulation adds full matrices; a triangular term result
        # must be copied out first.
        self._require_full(ValueRef("step", target))
        self._require_full(ValueRef("step", step_index))
        step.accumulate = target
        step.consumed.append(ValueRef("step", target))

    def freeze(self) -> Tuple[PlanStep, ...]:
        # The expression's *result* is a full matrix; a triangular
        # root (SYRK) ends with the FLOP-free copy, like any other
        # full-storage consumer.
        if self.steps:
            self._require_full(ValueRef("step", len(self.steps) - 1))
        frozen: List[PlanStep] = []
        for i, step in enumerate(self.steps):
            reads_previous = any(
                ref.is_step and ref.index == i - 1 for ref in step.consumed
            )
            note = ""
            if step.copy_to_full:
                note = COPY_NOTE
            elif step.accumulate is not None:
                note = ACCUMULATE_NOTE
            frozen.append(
                PlanStep(
                    kernel=step.kernel,
                    dims=step.dims,
                    left=step.left,
                    right=step.right,
                    reads_previous=reads_previous,
                    copy_to_full=step.copy_to_full,
                    accumulate=step.accumulate,
                    symmetric=step.symmetric,
                    note=note,
                )
            )
        return tuple(frozen)


# ----------------------------------------------------------------------
# Compilation entry points
# ----------------------------------------------------------------------


def _tree_label(leaves: Tuple[Factor, ...], tree: Tree, offset: int = 0) -> str:
    def render(node: Tree, top: bool) -> str:
        if isinstance(node, int):
            return leaves[node + offset].render()
        inner = render(node[0], False) + render(node[1], False)
        return inner if top else f"({inner})"

    return render(tree, True)


def _root_schedules(
    table: _NodeTable, root: ValueRef
) -> Tuple[Tuple[str, bool], ...]:
    """Chain-style schedules: two orders for a two-internal-child root.

    When CSE makes both children the same subproduct, the orders
    collapse to one call sequence, so only one schedule is emitted.
    """
    node = table.nodes[root.index]
    if node.internal_children == 2 and (
        table.ref_signature(node.left) != table.ref_signature(node.right)
    ):
        return (("left-first", False), ("right-first", True))
    return (("", False),)


def compile_product_plans(
    expression_name: str,
    product: ProductExpr,
    trees: Optional[Sequence[Tree]] = None,
    prune: Optional[PruneConfig] = None,
) -> List[Plan]:
    """Lower one product to plans: trees × kernel variants × schedules.

    With ``prune``, only the ``budget`` centroid-cheapest trees are
    lowered, in cost-rank order; ``tree_index`` (and hence plan names)
    keep their full-enumeration positions.
    """
    leaves = product.factors
    n_dims = expr_n_dims(product)
    if trees is None:
        trees = enumerate_trees(len(leaves))
    trees = list(trees)
    tree_order: Sequence[int] = range(len(trees))
    if prune is not None and len(trees) > prune.budget:
        centroid = prune.resolve_centroid(n_dims)
        costs = [_tree_cost(leaves, tree, centroid) for tree in trees]
        ranked = sorted(range(len(trees)), key=lambda i: (costs[i], i))
        tree_order = ranked[: prune.budget]
    plans: List[Plan] = []
    for tree_index in tree_order:
        tree = trees[tree_index]
        probe = _NodeTable(leaves)
        root = probe.add(tree)
        node_order = [
            i for i in range(len(probe.nodes))
        ]  # post-order = interning order
        label = _tree_label(leaves, tree)

        def lower(kernels, right_first: bool) -> Tuple[PlanStep, ...]:
            table = _NodeTable(leaves)
            lowering = _Lowering(table)
            lowering.emit_tree(table.add(tree), kernels, right_first)
            return lowering.freeze()

        # Variants differing only in a dead (SYRK-elided) subtree
        # lower to identical calls — keep the first of each class,
        # along with its already-lowered left-first steps.
        variants: List[Tuple[Dict[int, KernelName], Tuple[PlanStep, ...]]] = []
        seen_steps: set = set()
        for kernels in _enumerate_variants(probe, node_order):
            steps = lower(kernels, False)
            if steps not in seen_steps:
                seen_steps.add(steps)
                variants.append((kernels, steps))
        for kernels, left_first_steps in variants:
            scheduled = [
                (
                    schedule,
                    left_first_steps
                    if not right_first
                    else lower(kernels, right_first),
                )
                for schedule, right_first in _root_schedules(probe, root)
            ]
            if len(scheduled) > 1 and all(
                steps == scheduled[0][1] for _, steps in scheduled[1:]
            ):
                # Dead-code elimination (a SYRK root) can leave both
                # orders with the same calls — one schedule, no suffix.
                scheduled = [("", scheduled[0][1])]
            for schedule, steps in scheduled:
                plans.append(
                    Plan(
                        expression=expression_name,
                        n_dims=n_dims,
                        leaves=leaves,
                        steps=steps,
                        tree_index=tree_index,
                        tree_label=label,
                        schedule=schedule,
                        n_tree_variants=len(variants),
                    )
                )
    return plans


def compile_sum_plans(
    expression_name: str,
    sum_expr: SumExpr,
    trees_per_term: Optional[Sequence[Sequence[Tree]]] = None,
    prune: Optional[PruneConfig] = None,
) -> List[Plan]:
    """Lower a sum: per-term tree combinations, accumulation folded.

    Terms are lowered in order into one shared node table, so a
    subproduct repeated across terms compiles once.  Each term's root
    call after the first accumulates into the running sum (FLOP-free,
    like the paper's copy).  Kernel variants are enumerated over the
    union of the combination's unique nodes.

    The tree cross-product is quadratic in the per-term Catalan
    numbers; with ``prune``, combinations are ranked by the sum of
    their per-term centroid tree costs *before* any lowering happens,
    and only the ``budget`` cheapest are lowered (in cost-rank order,
    keeping their full-enumeration ``combo_index`` for naming) — this
    is what lifts the ``sum<k>`` registry cap.
    """
    terms = sum_expr.terms
    leaves = tuple(leaf for term in terms for leaf in term.factors)
    n_dims = expr_n_dims(sum_expr)
    offsets = list(
        itertools.accumulate([0] + [len(t.factors) for t in terms[:-1]])
    )
    if trees_per_term is None:
        trees_per_term = [enumerate_trees(len(t.factors)) for t in terms]
    term_trees = [list(trees) for trees in trees_per_term]
    counts = [len(trees) for trees in term_trees]
    total = 1
    for count in counts:
        total *= count

    def combo_picks(combo_index: int) -> List[int]:
        """Flat itertools.product position → one tree index per term."""
        picks: List[int] = []
        remainder = combo_index
        for count in reversed(counts):
            remainder, pick = divmod(remainder, count)
            picks.append(pick)
        picks.reverse()
        return picks

    def combo_at(combo_index: int) -> Tuple[Tree, ...]:
        return tuple(
            term_trees[t][pick]
            for t, pick in enumerate(combo_picks(combo_index))
        )

    combo_order: Sequence[int] = range(total)
    if prune is not None and total > prune.budget:
        centroid = prune.resolve_centroid(n_dims)
        term_costs = [
            [_tree_cost(leaves, tree, centroid, offsets[t]) for tree in trees]
            for t, trees in enumerate(term_trees)
        ]

        def combo_cost(combo_index: int) -> float:
            return sum(
                term_costs[t][pick]
                for t, pick in enumerate(combo_picks(combo_index))
            )

        ranked = sorted(range(total), key=lambda i: (combo_cost(i), i))
        combo_order = ranked[: prune.budget]

    plans: List[Plan] = []
    for combo_index in combo_order:
        combo = combo_at(combo_index)
        probe = _NodeTable(leaves)
        roots = [
            probe.add(tree, offsets[t]) for t, tree in enumerate(combo)
        ]
        for t, root in enumerate(roots):
            if not root.is_step:
                raise ValueError(
                    f"sum term {t} of {expression_name} lowers to no "
                    "kernel call; the accumulation has nothing to fold "
                    "into"
                )
        if len({root.index for root in roots}) != len(roots):
            raise ValueError(
                f"sum terms of {expression_name} must be distinct "
                "subexpressions"
            )
        label = "+".join(
            _tree_label(leaves, tree, offsets[t])
            for t, tree in enumerate(combo)
        )

        def lower(kernels) -> Tuple[PlanStep, ...]:
            table = _NodeTable(leaves)
            lowering = _Lowering(table)
            previous: Optional[int] = None
            for t, tree in enumerate(combo):
                step_index = lowering.emit_tree(
                    table.add(tree, offsets[t]), kernels
                )
                if step_index is None:
                    raise ValueError(
                        f"sum term {t} of {expression_name} is a "
                        "subexpression of an earlier term; the "
                        "accumulation has no call to fold into"
                    )
                if previous is not None:
                    lowering.accumulate_into(step_index, previous)
                previous = step_index
            return lowering.freeze()

        # Same dead-variant dedupe as the product path.
        lowered: List[Tuple[PlanStep, ...]] = []
        seen_steps: set = set()
        for kernels in _enumerate_variants(
            probe, list(range(len(probe.nodes)))
        ):
            steps = lower(kernels)
            if steps not in seen_steps:
                seen_steps.add(steps)
                lowered.append(steps)
        for steps in lowered:
            plans.append(
                Plan(
                    expression=expression_name,
                    n_dims=n_dims,
                    leaves=leaves,
                    steps=steps,
                    tree_index=combo_index,
                    tree_label=label,
                    n_tree_variants=len(lowered),
                )
            )
    return plans


def compile_add_plans(expression_name: str, expr: AddExpr) -> List[Plan]:
    """Lower a standalone elementwise sum: one plan, a chain of ADDs.

    There is nothing to associate (elementwise addition has one
    shape), so the family is a single algorithm — the degenerate but
    now *expressible* "sum of stored matrices" case.
    """
    leaves: Tuple[Factor, ...] = (expr,)
    table = _NodeTable(leaves)
    lowering = _Lowering(table)
    lowering._emit_add(0, expr)
    steps = lowering.freeze()
    return [
        Plan(
            expression=expression_name,
            n_dims=expr_n_dims(expr),
            leaves=leaves,
            steps=steps,
            tree_index=0,
            tree_label=expr.render(),
        )
    ]


def compile_plans(
    expression_name: str,
    expr: MatrixExpr,
    trees: Optional[Sequence] = None,
    prune: Optional[PruneConfig] = None,
) -> List[Plan]:
    if isinstance(expr, ProductExpr):
        return compile_product_plans(expression_name, expr, trees, prune)
    if isinstance(expr, AddExpr):
        return compile_add_plans(expression_name, expr)
    return compile_sum_plans(expression_name, expr, trees, prune)


# ----------------------------------------------------------------------
# Expression base class over compiled plans
# ----------------------------------------------------------------------


class CompiledExpression(Expression):
    """An Expression whose algorithms are generated by the compiler.

    Subclasses (or callers) provide the IR, optionally a tree order
    and a plan namer; ``make_operands`` and ``reference`` are derived
    from the IR, so a new family is one IR description away.
    """

    def __init__(
        self,
        name: str,
        expr: MatrixExpr,
        trees: Optional[Sequence] = None,
        namer: Optional[PlanNamer] = None,
        prune: Optional[PruneConfig] = None,
    ) -> None:
        self.name = name
        self.ir = expr
        self.prune = prune
        self.n_dims = expr_n_dims(expr)
        self.operands: Tuple[OperandSpec, ...] = operand_table(expr)
        self.operand_labels = "".join(spec.label for spec in self.operands)
        namer = namer or default_plan_namer
        # Kept so the expression can be recompiled under a different
        # pruning config (the ablation harness's budget sweeps).
        self._trees_arg = trees
        self._namer_arg = namer
        self._plans = tuple(compile_plans(name, expr, trees, prune))
        self._algorithms = tuple(
            Algorithm(namer(plan, ordinal), name, plan)
            for ordinal, plan in enumerate(self._plans, 1)
        )

    def with_prune(
        self, prune: Optional[PruneConfig]
    ) -> "CompiledExpression":
        """This expression recompiled under a different pruning config.

        The rebuilt expression shares the IR, tree order and plan
        namer, so with ``prune=None`` (or a budget at least the tree
        count) the plans are exactly the originals; a tighter budget
        keeps the cost-ranked prefix.  The result is *not* registered:
        it exists for side-by-side comparisons (the ablation harness's
        ``prune-budget-<n>`` components), never as the registry's view
        of the family.
        """
        return CompiledExpression(
            self.name,
            self.ir,
            trees=self._trees_arg,
            namer=self._namer_arg,
            prune=prune,
        )

    def plans(self) -> Tuple[Plan, ...]:
        return self._plans

    def algorithms(self) -> Tuple[Algorithm, ...]:
        return self._algorithms

    def make_operands(
        self, instance: Sequence[int], rng: np.random.Generator
    ) -> List[np.ndarray]:
        if len(instance) != self.n_dims:
            raise ValueError(
                f"{self.name} takes {self.n_dims} dims, got {instance!r}"
            )
        out: List[np.ndarray] = []
        for spec in self.operands:
            shape = (instance[spec.rows], instance[spec.cols])
            matrix = rng.standard_normal(shape)
            if spec.symmetric:
                matrix = matrix + matrix.T
            elif spec.triangular:
                # Well-conditioned lower-triangular: unit-dominant
                # diagonal, damped off-diagonal mass.  Only the lower
                # triangle is ever read (TRSM semantics), so the upper
                # part is simply zeroed.
                matrix = np.tril(matrix, -1) / shape[0] ** 0.5 + np.diag(
                    1.0 + np.abs(np.diag(matrix))
                )
            out.append(np.asfortranarray(matrix))
        return out

    def reference(self, operands: Sequence[np.ndarray]) -> np.ndarray:
        def leaf_value(leaf: Leaf) -> np.ndarray:
            operand = operands[leaf.operand]
            return operand.T if leaf.transposed else operand

        def factor_value(factor) -> np.ndarray:
            if isinstance(factor, AddExpr):
                total = leaf_value(factor.leaves[0])
                for leaf in factor.leaves[1:]:
                    total = total + leaf_value(leaf)
                return total
            return leaf_value(factor)

        def term_value(term: ProductExpr) -> np.ndarray:
            factors = term.factors
            # A triangular-inverse head is applied last, as one solve
            # against the rest of the product.
            start = 1 if factors[0].triangular else 0
            value = factor_value(factors[start])
            for factor in factors[start + 1 :]:
                value = value @ factor_value(factor)
            if start:
                lower = np.tril(operands[factors[0].operand])
                value = np.linalg.solve(lower, value)
            return value

        if isinstance(self.ir, AddExpr):
            return factor_value(self.ir)
        terms = expr_terms(self.ir)
        total = term_value(terms[0])
        for term in terms[1:]:
            total = total + term_value(term)
        return total
