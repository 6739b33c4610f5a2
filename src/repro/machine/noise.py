"""Measurement-noise model for the simulated machine.

Real timings fluctuate (DVFS, co-scheduled daemons, page faults); the
paper counters this with pinned cores, cache flushing and median-of-k
repetitions, plus the §3.4.2 hole-tolerance rule when traversing
regions.  The simulated counterpart is *stateless*: the noise factor
for a measurement is a pure function of ``(seed, measurement id,
rep)``, so a measurement repeated anywhere in a pipeline reproduces
exactly — order-independent determinism, which the experiment code
relies on.

The model is batch-first.  A *measurement id* is a 64-bit integer
built by hashing the stream context once (:meth:`NoiseModel.stream_base`)
and then :func:`fold`-ing the discrete measurement coordinates (call
index, kernel, dims) into it with a SplitMix64-style mixer — pure
``uint64`` arithmetic that NumPy evaluates elementwise over whole
arrays of measurements at once.  Per-repetition uniforms come from the
same mixer, so the scalar path (:meth:`NoiseModel.factor`) is exactly
the batch path run on a one-element array: integer mixing is exact and
the float pipeline uses the same NumPy ufunc loops regardless of batch
size, which makes scalar and batched noise bit-for-bit identical.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

#: SplitMix64 increment and finalizer multipliers (Steele et al.).
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

#: Stream-separation constants (hex digits of pi): one independent
#: uniform stream per role a measurement needs.
_STREAM_U = np.uint64(0x243F6A8885A308D3)  # log-normal, first uniform
_STREAM_V = np.uint64(0x13198A2E03707344)  # log-normal, second uniform
_STREAM_S = np.uint64(0xA4093822299F31D0)  # spike occurrence
_STREAM_M = np.uint64(0x082EFA98EC4E6C89)  # spike magnitude

_SHIFT_30 = np.uint64(30)
_SHIFT_27 = np.uint64(27)
_SHIFT_31 = np.uint64(31)
_SHIFT_11 = np.uint64(11)
_TWO_POW_MINUS_53 = 2.0**-53


def mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, elementwise over ``uint64`` arrays."""
    x = (x ^ (x >> _SHIFT_30)) * _MIX1
    x = (x ^ (x >> _SHIFT_27)) * _MIX2
    return x ^ (x >> _SHIFT_31)


def fold(h: np.ndarray, value) -> np.ndarray:
    """Absorb one integer field into a measurement id (elementwise).

    ``value`` may be a Python int, a NumPy scalar, or an array
    broadcastable against ``h``; it is reduced mod 2**64.
    """
    value = np.asarray(value)
    if value.dtype != np.uint64:
        value = value.astype(np.int64).view(np.uint64)
    return mix64((h + _GAMMA) ^ value)


def fold_columns(head, matrix: np.ndarray) -> np.ndarray:
    """``(n,)`` ids: ``head`` with each row's fields folded in, in order.

    Equal to chaining :func:`fold` over the columns of the ``(n, m)``
    integer ``matrix`` starting from ``head``, computed in place.
    ``head`` is one ``uint64`` id shared by every row, or an ``(n,)``
    array of per-row ids (left unmodified).
    """
    ids = np.empty(matrix.shape[0], dtype=np.uint64)
    ids[...] = head
    scratch = np.empty_like(ids)
    for j in range(matrix.shape[1]):
        column = np.asarray(matrix[:, j], dtype=np.int64).view(np.uint64)
        np.add(ids, _GAMMA, out=ids)
        np.bitwise_xor(ids, column, out=ids)
        _mix64_in_place(ids, scratch)
    return ids


def _unit(bits: np.ndarray) -> np.ndarray:
    """Map ``uint64`` bits to U(0, 1) floats, never exactly 0 or 1."""
    return ((bits >> _SHIFT_11).astype(np.float64) + 0.5) * _TWO_POW_MINUS_53


def _mix64_in_place(bits: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """:func:`mix64` of ``bits`` written back into ``bits``.

    ``scratch`` is a ``uint64`` buffer shaped like ``bits``.  Integer
    mixing wraps mod 2**64 in place exactly as out of place.
    """
    for shift, multiplier in ((_SHIFT_30, _MIX1), (_SHIFT_27, _MIX2)):
        np.right_shift(bits, shift, out=scratch)
        np.bitwise_xor(bits, scratch, out=bits)
        np.multiply(bits, multiplier, out=bits)
    np.right_shift(bits, _SHIFT_31, out=scratch)
    np.bitwise_xor(bits, scratch, out=bits)
    return bits


def _stream_unit(
    rep_ids: np.ndarray,
    stream: np.uint64,
    bits: np.ndarray,
    scratch: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``_unit(mix64(rep_ids ^ stream))`` through caller-owned buffers.

    ``bits`` and ``scratch`` are ``uint64`` arrays shaped like
    ``rep_ids``; ``out`` (allocated when None) receives the floats.
    The shifted bits are below 2**53, so reading them as ``int64``
    converts to the same floats as ``uint64`` does, on a faster loop.
    """
    np.bitwise_xor(rep_ids, stream, out=bits)
    _mix64_in_place(bits, scratch)
    np.right_shift(bits, _SHIFT_11, out=bits)
    if out is None:
        out = np.empty(bits.shape)
    np.copyto(out, bits.view(np.int64), casting="unsafe")
    np.add(out, 0.5, out=out)
    np.multiply(out, _TWO_POW_MINUS_53, out=out)
    return out


@dataclass(frozen=True)
class NoiseModel:
    """Multiplicative log-normal jitter plus occasional spikes.

    ``sigma``              log-std of the per-measurement factor.
    ``spike_probability``  chance a measurement is hit by an external
                           event, multiplying time by up to 3x (spikes
                           only slow down — they never speed up).
    ``seed``               stream selector; two models with different
                           seeds are independent.
    """

    sigma: float = 0.0
    spike_probability: float = 0.0
    seed: int = 0

    @property
    def silent(self) -> bool:
        """True when every factor is exactly 1.0."""
        return self.sigma == 0.0 and self.spike_probability == 0.0

    def stream_base(self, context: str) -> int:
        """Root measurement id of one noise stream (seed + context)."""
        digest = hashlib.blake2b(
            f"{self.seed}|{context}".encode(), digest_size=8
        ).digest()
        return struct.unpack("<Q", digest)[0]

    def factors_from_ids(self, ids, reps: int) -> np.ndarray:
        """Noise factors for ``reps`` repetitions of each measurement.

        ``ids`` is a ``(n,)`` array-like of ``uint64`` measurement ids;
        the result has shape ``(n, reps)`` (a transposed view of
        :meth:`rep_factors`).
        """
        return self.rep_factors(ids, reps).T

    def rep_factors(self, ids, reps: int) -> np.ndarray:
        """Noise factors laid out rep-major: a C-contiguous ``(reps, n)``.

        Row ``r`` holds repetition ``r`` of every measurement, so a
        consumer can treat each repetition as one contiguous column.
        Every step writes into buffers allocated once per call, with
        the same ufuncs in the same order as the allocating formula,
        so the bits match it.  Spike magnitudes are drawn only where
        a spike fires; each value is still ``value * (1 + 2m)`` from
        the same magnitude bits.
        """
        ids = np.asarray(ids, dtype=np.uint64).reshape(-1)
        if self.silent:
            return np.ones((reps, ids.shape[0]))
        # rep_ids[r] == fold(ids, r), the repetition's own id.
        rep_ids = np.empty((reps, ids.shape[0]), dtype=np.uint64)
        np.bitwise_xor(
            (ids + _GAMMA)[None, :],
            np.arange(reps, dtype=np.uint64)[:, None],
            out=rep_ids,
        )
        bits = np.empty_like(rep_ids)
        scratch = np.empty_like(rep_ids)
        _mix64_in_place(rep_ids, scratch)
        value = _stream_unit(rep_ids, _STREAM_U, bits, scratch)
        # Box-Muller from the two uniforms: value becomes
        # exp(sigma * sqrt(-2 log u) * cos(2 pi v)).
        np.log(value, out=value)
        np.multiply(value, -2.0, out=value)
        np.sqrt(value, out=value)
        angle = _stream_unit(rep_ids, _STREAM_V, bits, scratch)
        np.multiply(angle, 2.0 * np.pi, out=angle)
        np.cos(angle, out=angle)
        np.multiply(value, angle, out=value)
        np.multiply(value, self.sigma, out=value)
        np.exp(value, out=value)
        if self.spike_probability > 0.0:
            spike = _stream_unit(rep_ids, _STREAM_S, bits, scratch, out=angle)
            fired = np.flatnonzero(spike < self.spike_probability)
            if fired.size:
                flat = value.reshape(-1)
                m = _unit(mix64(rep_ids.reshape(-1)[fired] ^ _STREAM_M))
                flat[fired] = flat[fired] * (1.0 + 2.0 * m)
        return value

    def factors(self, key: str, reps: int) -> np.ndarray:
        """All ``reps`` factors of one string-keyed measurement."""
        ids = np.array([self.stream_base(key)], dtype=np.uint64)
        return self.factors_from_ids(ids, reps)[0]

    def factor(self, key: str, rep: int) -> float:
        """Deterministic noise factor (> 0) for one measurement."""
        if self.silent:
            return 1.0
        return float(self.factors(key, rep + 1)[rep])
