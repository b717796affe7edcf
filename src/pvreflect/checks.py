"""The one result type of every numerical inequality check."""

from __future__ import annotations

from dataclasses import dataclass

from .pathcore import CSV_FLOAT_FORMAT

#: slack for inequalities that hold mathematically but are evaluated in
#: floating point: relative 1e-9 with a 1e-12 absolute floor
REL_SLACK = 1e-9
ABS_SLACK = 1e-12


def holds_with_slack(lhs: float, rhs: float) -> bool:
    """``lhs <= rhs`` up to relative slack in the larger magnitude."""
    return lhs <= rhs + REL_SLACK * max(abs(lhs), abs(rhs)) + ABS_SLACK


@dataclass(frozen=True)
class InequalityCheck:
    """One evaluated inequality ``lhs <= rhs`` with its pass verdict."""

    name: str
    lhs: float
    rhs: float
    passed: bool

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    def csv_row(self) -> list[str]:
        return [
            self.name,
            CSV_FLOAT_FORMAT % self.lhs,
            CSV_FLOAT_FORMAT % self.rhs,
            CSV_FLOAT_FORMAT % self.margin,
            "1" if self.passed else "0",
        ]


def check(name: str, lhs: float, rhs: float) -> InequalityCheck:
    return InequalityCheck(name, float(lhs), float(rhs),
                           holds_with_slack(float(lhs), float(rhs)))
