"""Sign/exponent/mantissa arithmetic for amplitudes far outside double range.

Quantities carrying factors exp(+-sqrt(lambda1)/eps) overflow (or underflow)
IEEE doubles once eps drops below ~0.0034.  A ScaledAmplitude stores the
value as sign * mantissa * e**exponent with mantissa in [1, e), so products
and quotients are exact in the exponent and only the mantissa sees rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ScaledAmplitude"]

_LOG_HUGE = 700.0  # exp() overflow threshold, with margin


@dataclass(frozen=True)
class ScaledAmplitude:
    sign: int
    exponent: float
    mantissa: float

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")
        if self.sign == 0:
            object.__setattr__(self, "exponent", 0.0)
            object.__setattr__(self, "mantissa", 0.0)
        elif not (1.0 <= self.mantissa < math.e):
            raise ValueError(f"mantissa {self.mantissa} outside [1, e)")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "ScaledAmplitude":
        return cls(0, 0.0, 0.0)

    @classmethod
    def from_float(cls, x: float) -> "ScaledAmplitude":
        if x == 0.0:
            return cls.zero()
        if not math.isfinite(x):
            raise ValueError(f"cannot represent {x}")
        expo = math.floor(math.log(abs(x)))
        # recover the mantissa by direct scaling, not exp(frac): keeps the
        # round trip accurate to a couple of ulps even at 1e+-300
        return cls._from_parts(1 if x > 0 else -1, float(expo),
                               abs(x) * math.exp(-expo))

    @classmethod
    def _from_parts(cls, sign: int, exponent: float,
                    raw_mantissa: float) -> "ScaledAmplitude":
        """Normalize sign * raw_mantissa * e**exponent with raw_mantissa > 0.

        The exponent stays exact; only the mantissa renormalization rounds.
        """
        if raw_mantissa <= 0.0 or not math.isfinite(raw_mantissa):
            raise ValueError(f"raw mantissa {raw_mantissa} not positive finite")
        shift = math.floor(math.log(raw_mantissa))
        mant = raw_mantissa * math.exp(-shift)
        while mant >= math.e:
            shift += 1
            mant /= math.e
        while mant < 1.0:
            shift -= 1
            mant *= math.e
        return cls(sign, exponent + shift, mant)

    # -- queries -----------------------------------------------------------

    @property
    def log_abs(self) -> float:
        if self.sign == 0:
            raise ValueError("log of zero amplitude")
        return self.exponent + math.log(self.mantissa)

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        log = self.log_abs
        if log > _LOG_HUGE:
            raise OverflowError(f"amplitude e**{log:.3g} exceeds double range")
        if log < -_LOG_HUGE:
            return 0.0
        return self.sign * self.mantissa * math.exp(self.exponent)

    def is_zero(self) -> bool:
        return self.sign == 0

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other) -> "ScaledAmplitude":
        other = _coerce(other)
        if self.sign == 0 or other.sign == 0:
            return ScaledAmplitude.zero()
        # exponents add exactly (integers stored as floats); only the
        # mantissa product is rounded
        return ScaledAmplitude._from_parts(
            self.sign * other.sign,
            self.exponent + other.exponent,
            self.mantissa * other.mantissa,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ScaledAmplitude":
        other = _coerce(other)
        if other.sign == 0:
            raise ZeroDivisionError("division by zero amplitude")
        if self.sign == 0:
            return ScaledAmplitude.zero()
        return ScaledAmplitude._from_parts(
            self.sign * other.sign,
            self.exponent - other.exponent,
            self.mantissa / other.mantissa,
        )

    def __add__(self, other) -> "ScaledAmplitude":
        other = _coerce(other)
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        big, small = (self, other) if self._cmp_abs(other) >= 0 else (other, self)
        # delta <= 0, computed without merging mantissa into the exponent
        delta = (small.exponent - big.exponent) \
            + math.log(small.mantissa / big.mantissa)
        if small.sign == big.sign:
            total = 1.0 + math.exp(delta)
        else:
            total = -math.expm1(delta)  # accurate through near-cancellation
            if total == 0.0:
                return ScaledAmplitude.zero()
        return ScaledAmplitude._from_parts(
            big.sign, big.exponent, big.mantissa * total)

    def scale_exp(self, log_factor: float) -> "ScaledAmplitude":
        """Multiply by e**log_factor, exact in the exponent."""
        if self.sign == 0:
            return self
        shift = math.floor(log_factor)
        return ScaledAmplitude._from_parts(
            self.sign, self.exponent + shift,
            self.mantissa * math.exp(log_factor - shift))

    def sqrt(self) -> "ScaledAmplitude":
        if self.sign == 0:
            return self
        if self.sign < 0:
            raise ValueError("sqrt of negative amplitude")
        half, rem = divmod(self.exponent, 2.0)
        return ScaledAmplitude._from_parts(
            1, half, math.sqrt(self.mantissa * math.exp(rem)))

    def _cmp_abs(self, other: "ScaledAmplitude") -> int:
        """Compare |self| with |other| (zero compares below everything)."""
        if self.sign == 0 or other.sign == 0:
            return (other.sign == 0) - (self.sign == 0)
        if self.exponent != other.exponent:
            return 1 if self.exponent > other.exponent else -1
        if self.mantissa == other.mantissa:
            return 0
        return 1 if self.mantissa > other.mantissa else -1

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {"sign": self.sign, "exponent": self.exponent, "mantissa": self.mantissa}

    @classmethod
    def from_dict(cls, d: dict) -> "ScaledAmplitude":
        return cls(int(d["sign"]), float(d["exponent"]), float(d["mantissa"]))

    def __repr__(self):
        if self.sign == 0:
            return "ScaledAmplitude(0)"
        return f"ScaledAmplitude({'+' if self.sign > 0 else '-'}{self.mantissa:.17g}*e^{self.exponent:g})"


def _coerce(x) -> ScaledAmplitude:
    if isinstance(x, ScaledAmplitude):
        return x
    return ScaledAmplitude.from_float(float(x))
