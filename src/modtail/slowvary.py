"""Slowly varying correction factors, in one canonical form.

The tail formulas all carry a slowly varying factor ``V``.  Instead of
arbitrary callables we take products of a closed grammar of atoms:
Constant(c), LogPower(r) = ``(1 + L1)**r`` and IterLogPower(r) =
``(1 + L2)**r`` with L1 = ln(1+y) and L2 = ln(1+L1), each positive on the
half-line (the inner ``1 + ln(1+.)`` keeps it finite at y = 0) and slowly
varying.  Every product is ``V = c (1 + L1)**a (1 + L2)**b``, so the atoms
and Product build that one value, ``SlowlyVarying(ln c, a, b)``: equal
factors compare and hash equal however they were written.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class SlowlyVarying:
    """V(y) = exp(ln_c) (1 + L1)**a (1 + L2)**b, L1 = ln(1+y), L2 = ln(1+L1)."""

    ln_c: float = 0.0
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.ln_c, self.a, self.b)):
            raise DomainError(f"slowly varying factor must be finite, got {self}")


ONE = SlowlyVarying()


def Constant(c: float) -> SlowlyVarying:
    if not (np.isfinite(c) and c > 0):
        raise DomainError(f"Constant factor must be positive and finite, got {c}")
    return SlowlyVarying(ln_c=math.log(c))


def LogPower(r: float) -> SlowlyVarying:
    return SlowlyVarying(a=float(r))


def IterLogPower(r: float) -> SlowlyVarying:
    return SlowlyVarying(b=float(r))


def Product(left: SlowlyVarying, right: SlowlyVarying) -> SlowlyVarying:
    return SlowlyVarying(left.ln_c + right.ln_c, left.a + right.a, left.b + right.b)


def sv_eval(v: SlowlyVarying, y):
    """Evaluate V at y >= 0.  Accepts scalars or numpy arrays."""
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise DomainError("sv_eval requires finite y")
    if np.any(y < 0):
        raise DomainError("sv_eval requires y >= 0")
    out = np.exp(np.broadcast_to(sv_log(v, y), y.shape))
    return float(out) if out.ndim == 0 else out


def sv_log(v: SlowlyVarying, y, deriv: bool = False, work=(None, None)):
    """ln V(y) for y >= 0, or with deriv the pair (ln V, d/dy ln V).

    ln V takes no pow, and the derivative shares L1 and L2.  work, on
    the value path, holds two arrays shaped like y and apart from it:
    ln V goes to work[0] and work[1] is scratch.  Otherwise each step
    makes a new result.  A constant V gives Python floats either way.
    """
    ln_c, a, b = v.ln_c, v.a, v.b
    if not (a or b):
        return (ln_c, 0.0) if deriv else ln_c
    val, s = (None, None) if deriv else work
    l1 = np.log1p(y, out=val)
    l2 = np.log1p(l1, out=val)
    if b:
        lb = np.multiply(np.log1p(l2, out=s), b, out=s)
    if deriv:
        # d/dy ln(1+L1) = 1/((1+L1)(1+y)), and d/dy ln(1+L2) is that over 1+L2
        num = np.add(np.divide(b, np.add(l2, 1.0)), a) if b else a
        den = np.multiply(np.add(l1, 1.0), np.add(y, 1.0))
    out = np.multiply(l2, a, out=val)
    if b:
        out = np.add(out, lb, out=val)
    if ln_c:
        out = np.add(out, ln_c, out=val)
    return (out, np.divide(num, den)) if deriv else out


def limit_at_infinity_is_zero(v: SlowlyVarying) -> bool:
    """Decide symbolically whether V(y) -> 0 as y -> infinity.

    The limit is zero iff the log-power exponent is negative, or is
    exactly zero with a negative iterated-log exponent.
    """
    return v.a < 0 or (v.a == 0 and v.b < 0)


_TOKEN = re.compile(r"^(?:(c|lp|ilp)\(([^()]+)\)|c\((exp)\(([^()]+)\)\))$")
_ATOMS = {"c": Constant, "lp": LogPower, "ilp": IterLogPower,
          "exp": lambda ln_c: SlowlyVarying(ln_c=ln_c)}


def parse_sv(expr: str) -> SlowlyVarying:
    """Parse an expression like "c(1)*lp(2)*ilp(-1)" into its factor.

    Factors: c(x) constant, c(exp(l)) the constant e**l, lp(r) log power,
    ilp(r) iterated log power, joined by '*'.
    """
    expr = expr.strip()
    if not expr:
        raise DomainError("empty slowly-varying expression")
    v = ONE
    for token in expr.split("*"):
        token = token.strip()
        m = _TOKEN.match(token)
        if m is None:
            raise DomainError(f"cannot parse slowly-varying factor {token!r}")
        kind, raw = m.group(1, 2) if m.group(1) else m.group(3, 4)
        try:
            val = float(raw)
        except ValueError as exc:
            raise DomainError(f"bad number {raw!r} in factor {token!r}") from exc
        v = Product(v, _ATOMS[kind](val))
    return v


def format_num(x: float) -> str:
    """x with :g when that reads back exactly, else its shortest repr."""
    s = f"{x:g}"
    return s if float(s) == x else repr(float(x))


def format_sv(v: SlowlyVarying) -> str:
    """The canonical string c(x)*lp(a)*ilp(b), unit factors left out, c(1)
    for V = 1, and c(exp(ln c)) for a c that is no normal double.  parse_sv
    reads a, b and that form back exactly, and ln c from c(x) to within
    the rounding of exp and log."""
    parts = []
    if v.ln_c:
        try:
            c = math.exp(v.ln_c)
        except OverflowError:
            c = math.inf
        parts.append(f"c({format_num(c)})" if sys.float_info.min <= c < math.inf
                     else f"c(exp({format_num(v.ln_c)}))")
    parts += [f"{name}({format_num(x)})" for name, x in (("lp", v.a), ("ilp", v.b)) if x]
    return "*".join(parts) or "c(1)"
