"""Power-utility parameters for consumption and terminal wealth."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnsupportedRegime


@dataclass(frozen=True)
class UtilityParams:
    """Exponents U(c) = c^gamma1, h(x) = x^gamma2 with gammas in (0, 1].

    gamma = 1 is linear utility (expected value); the conjugate exponent
    q = 1/(1-gamma) is undefined there and flagged by is_linear.
    """

    gamma1: float
    gamma2: float

    def __post_init__(self):
        for g in (self.gamma1, self.gamma2):
            if not 0.0 < g <= 1.0:
                raise UnsupportedRegime(f"utility exponent must be in (0,1], got {g}")

    @property
    def is_linear(self) -> bool:
        return self.gamma1 == 1.0 and self.gamma2 == 1.0

    @property
    def is_hara(self) -> bool:
        return self.gamma1 < 1.0 and self.gamma2 < 1.0

    @property
    def equal(self) -> bool:
        return self.gamma1 == self.gamma2

    @property
    def q1(self) -> float:
        if self.gamma1 == 1.0:
            raise UnsupportedRegime("q1 undefined for linear consumption utility")
        return 1.0 / (1.0 - self.gamma1)

    @property
    def q2(self) -> float:
        if self.gamma2 == 1.0:
            raise UnsupportedRegime("q2 undefined for linear wealth utility")
        return 1.0 / (1.0 - self.gamma2)
