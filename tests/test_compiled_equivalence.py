"""Compiler-generated chain4/aatb ≡ the PR-1 hand-coded algorithms.

The ISSUE-4 acceptance bar: regenerating the paper's two families
through the expression compiler must reproduce the hand-written
implementations *exactly* — same algorithm names in the same order,
same kernel-call sequences (dims, ``reads_previous``, notes), same
FLOP polynomials, and byte-identical quick-scale study payloads.

The payload digests below were recorded from the pre-refactor
implementation (PR 3 tree).  They pin the full deterministic pipeline;
if a later PR intentionally changes machine/experiment semantics it
must bump ``repro.figures.cache.SCHEMA_VERSION`` *and* refresh these
digests in the same commit.
"""

import hashlib

import pytest

from repro.core.symbolic import flop_polynomial
from repro.expressions.registry import get_expression
from repro.figures.cache import StudyKey, encode_study
from repro.figures.common import FigureConfig, compute_study_results
from repro.kernels.types import KernelName

#: The hand-coded chain4 call tables at dims (2, 3, 5, 7, 11):
#: (name, [(kernel, dims, reads_previous)]).
CHAIN4_EXPECTED = (
    ("chain4-1:A(B(CD))",
     [("gemm", (5, 11, 7), False), ("gemm", (3, 11, 5), True),
      ("gemm", (2, 11, 3), True)]),
    ("chain4-2:A((BC)D)",
     [("gemm", (3, 7, 5), False), ("gemm", (3, 11, 7), True),
      ("gemm", (2, 11, 3), True)]),
    ("chain4-3:(AB)(CD)/left-first",
     [("gemm", (2, 5, 3), False), ("gemm", (5, 11, 7), False),
      ("gemm", (2, 11, 5), True)]),
    ("chain4-3:(AB)(CD)/right-first",
     [("gemm", (5, 11, 7), False), ("gemm", (2, 5, 3), False),
      ("gemm", (2, 11, 5), True)]),
    ("chain4-4:(A(BC))D",
     [("gemm", (3, 7, 5), False), ("gemm", (2, 7, 3), True),
      ("gemm", (2, 11, 7), True)]),
    ("chain4-5:((AB)C)D",
     [("gemm", (2, 5, 3), False), ("gemm", (2, 7, 5), True),
      ("gemm", (2, 11, 7), True)]),
)

#: The hand-coded aatb call tables at dims (2, 3, 5).
AATB_EXPECTED = (
    ("aatb-1:syrk+symm",
     [("syrk", (2, 3), False), ("symm", (2, 5), True)]),
    ("aatb-2:syrk+copy+gemm",
     [("syrk", (2, 3), False), ("gemm", (2, 5, 2), True)]),
    ("aatb-3:gemm+gemm",
     [("gemm", (2, 2, 3), False), ("gemm", (2, 5, 2), True)]),
    ("aatb-4:gemm+symm",
     [("gemm", (2, 2, 3), False), ("symm", (2, 5), True)]),
    ("aatb-5:gemm+gemm-right",
     [("gemm", (3, 5, 2), False), ("gemm", (2, 5, 3), True)]),
)

#: Pre-refactor quick-scale study payload digests (seed 0, paper box).
PAYLOAD_SHA256 = {
    "chain4": "8b746c94b2bd6485177f980e500570ad939162b0db74a7dba77509e29465f9a7",
    "aatb": "e1cdf267c9add45efc29bc62fa13cec71c938521aec8f0a54b727c5ccd984049",
}

#: Hand-derived FLOP polynomials of the paper's five aatb algorithms.
AATB_POLYS = {
    "aatb-1:syrk+symm": "d0^2*d1 + 2*d0^2*d2 + d0*d1",
    "aatb-2:syrk+copy+gemm": "d0^2*d1 + 2*d0^2*d2 + d0*d1",
    "aatb-3:gemm+gemm": "2*d0^2*d1 + 2*d0^2*d2",
    "aatb-4:gemm+symm": "2*d0^2*d1 + 2*d0^2*d2",
    "aatb-5:gemm+gemm-right": "4*d0*d1*d2",
}


@pytest.mark.parametrize(
    "expression_name,dims,expected",
    [("chain4", (2, 3, 5, 7, 11), CHAIN4_EXPECTED),
     ("aatb", (2, 3, 5), AATB_EXPECTED)],
)
def test_generated_names_and_calls_match_hand_coded(
    expression_name, dims, expected
):
    algorithms = get_expression(expression_name).algorithms()
    assert [a.name for a in algorithms] == [name for name, _ in expected]
    for algorithm, (_, calls) in zip(algorithms, expected):
        got = [
            (call.kernel.value, call.dims, call.reads_previous)
            for call in algorithm.kernel_calls(dims)
        ]
        assert got == calls, algorithm.name


def test_aatb_copy_note_preserved():
    algorithms = {a.name: a for a in get_expression("aatb").algorithms()}
    calls = algorithms["aatb-2:syrk+copy+gemm"].kernel_calls((2, 3, 5))
    assert calls[0].kernel is KernelName.SYRK
    assert calls[0].note == "then copy to full"


def test_aatb_flop_polynomials_match_hand_derivation():
    for algorithm in get_expression("aatb").algorithms():
        poly = flop_polynomial(algorithm)
        assert poly.render(("d0", "d1", "d2")) == AATB_POLYS[algorithm.name]


@pytest.mark.parametrize("expression_name", sorted(PAYLOAD_SHA256))
def test_quick_study_payloads_byte_identical_to_pre_refactor(expression_name):
    # The runtime path must hit the *same* pre-refactor digest the
    # interpreted implementation recorded: FLOP counts, machine times
    # and profile predictions all read the plans' call slots, and no
    # such layer may change a payload byte.
    key = StudyKey("quick", 0, expression_name)
    config = FigureConfig(scale="quick", seed=0)
    text = encode_study(key, *compute_study_results(config, expression_name))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == PAYLOAD_SHA256[expression_name]
