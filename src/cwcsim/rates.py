"""Rate laws attached to rules.

A mass-action rate multiplies its constant by the instantiation count n.
A function rate is a small closed expression over numeric literals, the
four arithmetic operators, n, and top-level atom counts of the matched
content (count_l) or the outcome (count_r).

A law is n-linear when it is n * g(content): mass action, or a function
rate whose top node is n * e or e * n with neither n nor count_r in e.
Splitting the matches of one outcome over several transitions then leaves
the summed rate into each target unchanged, so the engine may rate such a
law per match without grouping matches by outcome.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import CwcError
from .terms import Atom, Term


class RateEvaluationError(CwcError):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code  # nonfinite-rate | negative-rate | division-by-zero


@dataclass(frozen=True)
class MassAction:
    """Rate k * n; k is a nonnegative constant with units 1/time."""

    k: float
    n_linear = True  # a class constant, not a field

    def __post_init__(self):
        if not math.isfinite(self.k) or self.k < 0:
            raise ValueError(f"mass-action constant must be finite and >= 0, got {self.k}")


class RateExpr:
    """Base class for function-rate expression nodes."""

    def eval(self, n: int, t_local: Term, u_local: Term) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class Num(RateExpr):
    value: float

    def eval(self, n, t_local, u_local):
        return self.value

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True)
class MatchCount(RateExpr):
    def eval(self, n, t_local, u_local):
        return float(n)

    def __str__(self):
        return "n"


@dataclass(frozen=True)
class CountL(RateExpr):
    atom: Atom

    def eval(self, n, t_local, u_local):
        return float(t_local.count_atom_top(self.atom))

    def __str__(self):
        return f"count_l({self.atom.name})"


@dataclass(frozen=True)
class CountR(RateExpr):
    atom: Atom

    def eval(self, n, t_local, u_local):
        return float(u_local.count_atom_top(self.atom))

    def __str__(self):
        return f"count_r({self.atom.name})"


@dataclass(frozen=True)
class BinOp(RateExpr):
    op: str  # + - * /
    left: RateExpr
    right: RateExpr

    def eval(self, n, t_local, u_local):
        a = self.left.eval(n, t_local, u_local)
        b = self.right.eval(n, t_local, u_local)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if b == 0.0:
            raise RateEvaluationError("division-by-zero", f"division by zero in {self}")
        return a / b

    def __str__(self):
        return f"({self.left} {self.op} {self.right})"


def _free_of_n(e: RateExpr) -> bool:
    """True when e reads neither n nor count_r."""
    if isinstance(e, BinOp):
        return _free_of_n(e.left) and _free_of_n(e.right)
    return not isinstance(e, (MatchCount, CountR))


@dataclass(frozen=True)
class FnRate:
    """A function rate; n_linear as in the module docstring."""

    expr: RateExpr
    n_linear: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        e = self.expr
        linear = isinstance(e, BinOp) and e.op == "*" and (
            isinstance(e.left, MatchCount) and _free_of_n(e.right)
            or isinstance(e.right, MatchCount) and _free_of_n(e.left)
        )
        object.__setattr__(self, "n_linear", linear)

    def __str__(self):
        return f"fn({self.expr})"


def rate_of(spec, t_local: Term, u_local, n: int) -> float:
    """Evaluate a rate law for one transition; n is the instantiation count.

    u_local is the outcome: a Term, or anything else with count_atom_top,
    such as the matching.Outcome or matching.Counted the engine passes.

    Mass action computes k * n in a single multiplication.  Nonfinite or
    negative results are rejected.
    """
    if isinstance(spec, MassAction):
        value = spec.k * n
    elif isinstance(spec, FnRate):
        value = spec.expr.eval(n, t_local, u_local)
    else:
        raise TypeError(f"not a rate spec: {spec!r}")
    if not math.isfinite(value):
        raise RateEvaluationError("nonfinite-rate", f"rate evaluated to {value}")
    if value < 0:
        raise RateEvaluationError("negative-rate", f"rate evaluated to {value}")
    return value
