"""Fixed-point EXP / LN units (Table 1: "2 x 32-bit fixed-point EXP unit").

The PEC and the Probability Generator evaluate ``exp`` and the DAG
broadcasts ``ln(denominator)`` — in hardware these are LUT-based
fixed-point units, not IEEE floats.  For the pruning certificate to
survive approximate arithmetic the rounding must be *directional*:

* denominator terms ``exp(s_min)`` rounded **down**  ->  D_hw <= D_true,
* ``ln(D_hw)`` rounded **down**                       ->  ln_hw <= ln(D_true),
* so the predicate ``s_max - ln_hw(D_hw) <= ln(thr)`` is *harder* to
  satisfy than the exact one: anything the hardware prunes, exact
  arithmetic would also have pruned.  Safety is preserved; only a little
  pruning opportunity is lost (bounded by the LUT step).

Implementation: 32-bit two's-complement inputs in Q8.24, ``exp`` via the
``2^i * 2^f`` decomposition with a 256-entry staircase LUT for ``2^f``
(monotone, relative error < 2^(1/256)-1 ~ 0.27% per rounding direction),
``ln`` via leading-one detection plus a mantissa LUT.  All arithmetic is
integer; floats only appear at the interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

Rounding = Literal["down", "up"]

LOG2_E = math.log2(math.e)
LN_2 = math.log(2.0)


@dataclass(frozen=True)
class FixedPointFormat:
    """Two's-complement fixed point with ``int_bits.frac_bits`` layout."""

    int_bits: int = 8
    frac_bits: int = 24

    def __post_init__(self) -> None:
        if self.int_bits < 1 or self.frac_bits < 0:
            raise ValueError("need int_bits >= 1 and frac_bits >= 0")

    @property
    def total_bits(self) -> int:
        return self.int_bits + self.frac_bits

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits

    @property
    def max_value(self) -> float:
        return ((1 << (self.total_bits - 1)) - 1) / self.scale

    @property
    def min_value(self) -> float:
        return -(1 << (self.total_bits - 1)) / self.scale


class Pow2LUT:
    """Staircase lookup of ``2^f`` for ``f`` in [0, 1).

    ``entries`` segments; 'down' returns the segment's left-endpoint value
    (an underestimate, since 2^f is increasing), 'up' the right endpoint.
    Values are stored as integers in Q2.30.
    """

    FRAC_BITS = 30

    def __init__(self, entries: int = 256) -> None:
        if entries < 2:
            raise ValueError("entries must be >= 2")
        self.entries = entries
        scale = 1 << self.FRAC_BITS
        # left endpoints rounded down, right endpoints rounded up
        self._down = np.array(
            [math.floor((2.0 ** (i / entries)) * scale) for i in range(entries)],
            dtype=np.int64,
        )
        self._up = np.array(
            [math.ceil((2.0 ** ((i + 1) / entries)) * scale) for i in range(entries)],
            dtype=np.int64,
        )

    def lookup(self, frac_q30: int, rounding: Rounding) -> int:
        """``2^f`` in Q2.30 for ``f`` given in Q0.30."""
        if not 0 <= frac_q30 < (1 << self.FRAC_BITS):
            raise ValueError("fraction out of [0, 1) range")
        index = frac_q30 >> (self.FRAC_BITS - int(math.log2(self.entries)))
        table = self._down if rounding == "down" else self._up
        return int(table[index])


class FixedPointExp:
    """LUT-based ``exp`` with directional rounding.

    Output is a float reconstructed from the integer datapath (the
    simulator consumes floats); the *value* is exactly what the integer
    unit would produce, including saturation at the format limits.
    """

    def __init__(
        self,
        fmt: FixedPointFormat = FixedPointFormat(),
        lut_entries: int = 256,
    ) -> None:
        self.fmt = fmt
        self.lut = Pow2LUT(lut_entries)

    def __call__(self, x: float, rounding: Rounding = "down") -> float:
        if rounding not in ("down", "up"):
            raise ValueError("rounding must be 'down' or 'up'")
        if x != x:  # NaN guard
            raise ValueError("exp input is NaN")
        # clamp to the representable input range
        x = min(max(x, self.fmt.min_value), self.fmt.max_value)
        # y = x * log2(e) with directional rounding in Q(fmt)
        y = x * LOG2_E
        y_raw = (
            math.floor(y * self.fmt.scale)
            if rounding == "down"
            else math.ceil(y * self.fmt.scale)
        )
        i, frac_raw = divmod(y_raw, self.fmt.scale)
        # fraction to Q0.30
        frac_q30 = (frac_raw << Pow2LUT.FRAC_BITS) // self.fmt.scale
        frac_q30 = min(frac_q30, (1 << Pow2LUT.FRAC_BITS) - 1)
        mant = self.lut.lookup(frac_q30, rounding)  # Q2.30
        value = math.ldexp(mant / (1 << Pow2LUT.FRAC_BITS), i)
        if value == 0.0 and rounding == "up":
            value = math.ldexp(1.0, -(1 << (self.fmt.int_bits - 1)))
        return value


class FixedPointLn:
    """LUT-based natural log with directional rounding (positive inputs)."""

    def __init__(self, lut_entries: int = 256) -> None:
        if lut_entries < 2:
            raise ValueError("lut_entries must be >= 2")
        self.entries = lut_entries
        scale = 1 << 30
        # ln(m) for mantissa segments m in [1, 2): staircase endpoints
        self._down = np.array(
            [math.floor(math.log(1.0 + i / lut_entries) * scale)
             for i in range(lut_entries)],
            dtype=np.int64,
        )
        self._up = np.array(
            [math.ceil(math.log(1.0 + (i + 1) / lut_entries) * scale)
             for i in range(lut_entries)],
            dtype=np.int64,
        )

    def __call__(self, y: float, rounding: Rounding = "down") -> float:
        if rounding not in ("down", "up"):
            raise ValueError("rounding must be 'down' or 'up'")
        if y <= 0.0 or y != y:
            raise ValueError("ln input must be positive")
        mant, exp = math.frexp(y)  # y = mant * 2^exp, mant in [0.5, 1)
        mant, exp = mant * 2.0, exp - 1  # mant in [1, 2)
        frac = mant - 1.0
        index = min(int(frac * self.entries), self.entries - 1)
        table = self._down if rounding == "down" else self._up
        ln_mant = table[index] / (1 << 30)
        # directional rounding of the exponent term
        e_term = exp * LN_2
        eps = 2.0**-30
        e_term = e_term - eps if rounding == "down" else e_term + eps
        return e_term + ln_mant


class ConservativeExpUnit:
    """The pair of units a PE lane carries, wired for certificate safety.

    * :meth:`exp_lower` — for denominator terms (never overestimates),
    * :meth:`ln_lower` — for the broadcast ``ln(denominator)``.
    """

    def __init__(self, lut_entries: int = 256) -> None:
        self._exp = FixedPointExp(lut_entries=lut_entries)
        self._ln = FixedPointLn(lut_entries=lut_entries)
        self.lut_entries = lut_entries

    def exp_lower(self, x: float) -> float:
        return self._exp(x, rounding="down")

    def ln_lower(self, y: float) -> float:
        return self._ln(y, rounding="down")
