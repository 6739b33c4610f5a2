"""Symbolic FLOP polynomials and compile-time shortlisting."""

import pytest

from repro.core.symbolic import flop_polynomial, possibly_cheapest
from repro.expressions.registry import get_expression
from repro.expressions.shapes import SizeExpr, dim_symbols


def test_poly_arithmetic_and_evaluate():
    n, k = dim_symbols(2)
    p = n * (n + 1) * k  # the SYRK FLOP formula
    assert p.size_hint((3, 5)) == 60
    # Exact at any size: no float rounding past 2**53.
    big = 10**9 + 7
    assert p.size_hint((big, 3)) == big * (big + 1) * 3


def test_poly_render_orders_terms_by_degree():
    d0, d1, _d2 = dim_symbols(3)
    p = 2 * d0 * d0 * d1 + 3 * d1 + 1
    assert p.render(("d0", "d1", "d2")) == "2*d0^2*d1 + 3*d1 + 1"
    assert SizeExpr.constant(0).render(("d0",)) == "0"
    with pytest.raises(ValueError, match="one name per dim"):
        p.render(("d0",))


def test_flop_polynomial_matches_concrete_flops():
    algorithms = get_expression("aatb").algorithms()
    instance = (31, 57, 83)
    for algorithm in algorithms:
        poly = flop_polynomial(algorithm)
        assert poly.size_hint(instance) == algorithm.flops(instance)


def test_possibly_cheapest_finds_known_crossover():
    # With d1 = d2 = 400: f(syrk-based) = 1200 d0^2 + 400 d0 and
    # f(right-assoc) = 640000 d0, equal exactly at d0 = 533; gemm+gemm
    # variants (1600 d0^2) can never win.
    algorithms = get_expression("aatb").algorithms()
    result = possibly_cheapest(
        algorithms, {1: 400, 2: 400}, (20, 20, 20), (1200, 1200, 1200)
    )
    assert result.exact
    names = [algorithms[i].name for i in result.certain]
    assert names == [
        "aatb-1:syrk+symm",
        "aatb-2:syrk+copy+gemm",
        "aatb-5:gemm+gemm-right",
    ]
    assert result.candidates == result.certain
    # Below the crossover the SYRK pair wins, above it the right-assoc.
    below = possibly_cheapest(
        algorithms, {1: 400, 2: 400}, (20, 20, 20), (532, 1200, 1200)
    )
    assert [algorithms[i].name for i in below.certain] == [
        "aatb-1:syrk+symm",
        "aatb-2:syrk+copy+gemm",
    ]
    above = possibly_cheapest(
        algorithms, {1: 400, 2: 400}, (534, 20, 20), (1200, 1200, 1200)
    )
    assert [algorithms[i].name for i in above.certain] == [
        "aatb-5:gemm+gemm-right"
    ]


def test_possibly_cheapest_tie_at_exact_crossover():
    algorithms = get_expression("aatb").algorithms()
    result = possibly_cheapest(
        algorithms, {1: 400, 2: 400}, (533, 20, 20), (533, 1200, 1200)
    )
    # All three tie at exactly d0 = 533.
    assert [algorithms[i].name for i in result.certain] == [
        "aatb-1:syrk+symm",
        "aatb-2:syrk+copy+gemm",
        "aatb-5:gemm+gemm-right",
    ]


@pytest.mark.parametrize(
    "d0,d12", [(40_000_001, 30_000_001), (400_000_001, 300_000_001)]
)
def test_possibly_cheapest_tie_is_exact_past_2_53(d0, d12):
    # With d1 = d2 = m and d0 = (4m - 1) / 3, the SYRK pair and the
    # right-associated GEMMs tie exactly: 3m·d0² + m·d0 = 4m²·d0.
    # The counts are far past 2**53, where float evaluation used to
    # drop one side of the tie.
    algorithms = get_expression("aatb").algorithms()
    assert 3 * d0 == 4 * d12 - 1
    assert algorithms[0].flops((d0, d12, d12)) > 2**53
    result = possibly_cheapest(
        algorithms, {1: d12, 2: d12}, (d0, 1, 1), (d0, 1, 1)
    )
    assert result.exact
    assert result.certain == (0, 1, 4)


def test_possibly_cheapest_handles_degenerate_axis_in_sampled_mode():
    # One free dim pinned via equal bounds (not `fixed`) while the
    # remaining space is large enough to force the sampled path.
    algorithms = get_expression("aatb").algorithms()
    result = possibly_cheapest(
        algorithms, {}, (92, 20, 20), (92, 1200, 1200)
    )
    assert not result.exact
    assert result.certain  # and, regression: no ZeroDivisionError


def test_possibly_cheapest_validates_input():
    algorithms = get_expression("aatb").algorithms()
    with pytest.raises(ValueError):
        possibly_cheapest(algorithms, {9: 4}, (20,) * 3, (30,) * 3)
    with pytest.raises(ValueError):
        possibly_cheapest([], {}, (20,), (30,))
