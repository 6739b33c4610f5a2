"""Symbolic sizes: one shape language for FLOPs and pruning probes.

A :class:`SizeExpr` is an exact integer polynomial over *dimension
symbols* — interned stand-ins for positions in an instance dim vector
(the ``SizeVarAllocator`` idea from torchinductor's ``sizevars``,
without the sympy dependency).  Feeding :func:`dim_symbols` through
any FLOP formula or cost walk yields one canonical object that every
consumer substitutes its own way:

* :meth:`SizeExpr.size_hint` — exact integer value at a concrete
  instance (the pruning probe and the compile-time FLOP analysis in
  :mod:`repro.core.symbolic`);
* :meth:`SizeExpr.render` — the expanded, human-readable form.

Monomials are canonical sorted tuples of dim indices *with
repetition*: ``(0, 1, 1)`` is ``d0·d1²`` and ``()`` is the constant
term.  All arithmetic is exact over Python ints; every value the
paper box can produce stays far below 2**53, so downstream int64 /
float64 evaluation is lossless.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

#: A monomial: dim indices with repetition, sorted. ``()`` = constant.
Monomial = Tuple[int, ...]

#: Interned bare symbols, one per dim index.
_SYMBOLS: Dict[int, "SizeExpr"] = {}


class SizeExpr:
    """An exact integer polynomial over instance-dim symbols.

    Supports ``+`` and ``*`` with ints and other :class:`SizeExpr`
    instances — enough to flow through every FLOP formula and cost
    walk in the compiler.  Instances are immutable in practice (the
    coefficient dict is never mutated after construction) and hash by
    canonical content, so structurally equal expressions — however
    they were built — compare and intern identically.
    """

    __slots__ = ("coeffs", "_key")

    def __init__(self, coeffs: Dict[Monomial, int]) -> None:
        self.coeffs = {m: c for m, c in coeffs.items() if c}
        self._key: Tuple[Tuple[Monomial, int], ...] = tuple(
            sorted(self.coeffs.items())
        )

    # -- construction ---------------------------------------------------

    @classmethod
    def constant(cls, value: int) -> "SizeExpr":
        return cls({(): int(value)})

    # -- canonical identity ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SizeExpr):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other) -> "SizeExpr":
        if isinstance(other, SizeExpr):
            return other
        if isinstance(other, (int, np.integer)):
            return SizeExpr.constant(int(other))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "SizeExpr":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for mono, coeff in other.coeffs.items():
            out[mono] = out.get(mono, 0) + coeff
        return SizeExpr(out)

    __radd__ = __add__

    def __mul__(self, other) -> "SizeExpr":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: Dict[Monomial, int] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                mono = tuple(sorted(m1 + m2))
                out[mono] = out.get(mono, 0) + c1 * c2
        return SizeExpr(out)

    __rmul__ = __mul__

    # -- queries --------------------------------------------------------

    def used_dims(self) -> Tuple[int, ...]:
        """Dim indices the expression actually depends on, sorted."""
        dims = set()
        for mono in self.coeffs:
            dims.update(mono)
        return tuple(sorted(dims))

    def size_hint(self, instance: Sequence[int]) -> int:
        """Exact integer value at one concrete instance."""
        total = 0
        for mono, coeff in self.coeffs.items():
            term = coeff
            for dim in mono:
                term *= int(instance[dim])
            total += term
        return total

    def render(self, names: Sequence[str]) -> str:
        """Human-readable expanded form, highest-degree terms first.

        ``names[i]`` names dim ``i``; ``2*d0^2*d1 + 3*d1 + 1`` is the
        shape of the output.
        """
        if any(dim >= len(names) for dim in self.used_dims()):
            raise ValueError("need one name per dim")
        if not self.coeffs:
            return "0"
        exponents = {
            mono: tuple(mono.count(dim) for dim in range(len(names)))
            for mono in self.coeffs
        }
        parts = []
        for mono in sorted(
            self.coeffs,
            key=lambda m: (-len(m), tuple(-e for e in exponents[m])),
        ):
            coeff = self.coeffs[mono]
            factors = [] if coeff == 1 and mono else [str(coeff)]
            for name, exponent in zip(names, exponents[mono]):
                if exponent == 1:
                    factors.append(name)
                elif exponent > 1:
                    factors.append(f"{name}^{exponent}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        width = max(self.used_dims(), default=-1) + 1
        return f"SizeExpr({self.render([f'd{dim}' for dim in range(width)])})"


def dim_symbol(index: int) -> SizeExpr:
    """The interned symbol for one instance-dim index."""
    if index < 0:
        raise ValueError(f"dim index must be non-negative, got {index}")
    symbol = _SYMBOLS.get(index)
    if symbol is None:
        symbol = _SYMBOLS[index] = SizeExpr({(index,): 1})
    return symbol


def dim_symbols(n_dims: int) -> Tuple[SizeExpr, ...]:
    """One interned symbol per dim of an ``n_dims``-instance vector."""
    return tuple(dim_symbol(i) for i in range(n_dims))
