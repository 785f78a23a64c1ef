"""Closed grammar of slowly varying correction factors.

The tail formulas all carry a slowly varying factor ``V``.  Instead of
accepting arbitrary callables we work with a small closed grammar

    Constant(c) | LogPower(r) | IterLogPower(r) | Product(left, right)

whose members are positive on the whole half-line and provably slowly
varying.  LogPower(r) evaluates as ``(1 + ln(1+y))**r`` and
IterLogPower(r) as ``(1 + ln(1 + ln(1+y)))**r``; the inner ``1 + ln(1+.)``
regularization keeps every factor finite and positive at y = 0 without
changing the behavior at infinity.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class Constant:
    c: float

    def __post_init__(self):
        if not (np.isfinite(self.c) and self.c > 0):
            raise DomainError(f"Constant factor must be positive and finite, got {self.c}")


@dataclass(frozen=True)
class LogPower:
    r: float

    def __post_init__(self):
        if not np.isfinite(self.r):
            raise DomainError(f"LogPower exponent must be finite, got {self.r}")


@dataclass(frozen=True)
class IterLogPower:
    r: float

    def __post_init__(self):
        if not np.isfinite(self.r):
            raise DomainError(f"IterLogPower exponent must be finite, got {self.r}")


@dataclass(frozen=True)
class Product:
    left: "SlowlyVarying"
    right: "SlowlyVarying"


SlowlyVarying = Union[Constant, LogPower, IterLogPower, Product]


def sv_eval(v: SlowlyVarying, y):
    """Evaluate V at y >= 0.  Accepts scalars or numpy arrays."""
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise DomainError("sv_eval requires finite y")
    if np.any(y < 0):
        raise DomainError("sv_eval requires y >= 0")
    out = _eval(v, y)
    return float(out) if out.ndim == 0 else out


def _eval(v, y):
    if isinstance(v, Constant):
        return np.full_like(y, v.c)
    if isinstance(v, LogPower):
        return (1.0 + np.log1p(y)) ** v.r
    if isinstance(v, IterLogPower):
        return (1.0 + np.log1p(np.log1p(y))) ** v.r
    if isinstance(v, Product):
        return _eval(v.left, y) * _eval(v.right, y)
    raise TypeError(f"not a SlowlyVarying node: {v!r}")


def sv_log(v: SlowlyVarying, y, deriv: bool = False):
    """ln V(y) for y >= 0, or with deriv the pair (ln V, d/dy ln V).

    Every tree is V = c (1 + L1)**a (1 + L2)**b with L1 = ln(1+y) and
    L2 = ln(1+L1), so ln V takes no pow and the derivative shares L1, L2.
    """
    ln_c, a, b = _exponent_sums(v)
    if not (a or b):
        return (ln_c, 0.0) if deriv else ln_c
    l1 = np.log1p(y)
    l2 = np.log1p(l1)
    out = a * l2 + b * np.log1p(l2) if b else a * l2
    if ln_c:
        out += ln_c
    if not deriv:
        return out
    # d/dy ln(1+L1) = 1/((1+L1)(1+y)), and d/dy ln(1+L2) is that over 1+L2
    return out, (a + b / (1.0 + l2) if b else a) / ((1.0 + l1) * (1.0 + y))


def _exponent_sums(v):
    """(ln c, summed LogPower exponents, summed IterLogPower exponents)."""
    if isinstance(v, Constant):
        return math.log(v.c), 0.0, 0.0
    if isinstance(v, LogPower):
        return 0.0, v.r, 0.0
    if isinstance(v, IterLogPower):
        return 0.0, 0.0, v.r
    c_l, lp_l, il_l = _exponent_sums(v.left)
    c_r, lp_r, il_r = _exponent_sums(v.right)
    return c_l + c_r, lp_l + lp_r, il_l + il_r


def limit_at_infinity_is_zero(v: SlowlyVarying) -> bool:
    """Decide symbolically whether V(y) -> 0 as y -> infinity.

    The limit is zero iff the total log-power exponent is negative, or is
    exactly zero with a negative iterated-log exponent.
    """
    _, lp, il = _exponent_sums(v)
    return lp < 0 or (lp == 0 and il < 0)


_TOKEN = re.compile(r"^(c|lp|ilp)\(([^)]+)\)$")

ONE = Constant(1.0)


def parse_sv(expr: str) -> SlowlyVarying:
    """Parse an expression like "c(1)*lp(2)*ilp(-1)" into a grammar tree.

    Factors: c(x) constant, lp(r) log power, ilp(r) iterated log power,
    joined by '*'.
    """
    expr = expr.strip()
    if not expr:
        raise DomainError("empty slowly-varying expression")
    tree = None
    for token in expr.split("*"):
        token = token.strip()
        m = _TOKEN.match(token)
        if m is None:
            raise DomainError(f"cannot parse slowly-varying factor {token!r}")
        kind, raw = m.group(1), m.group(2)
        try:
            val = float(raw)
        except ValueError as exc:
            raise DomainError(f"bad number {raw!r} in factor {token!r}") from exc
        node = {"c": Constant, "lp": LogPower, "ilp": IterLogPower}[kind](val)
        tree = node if tree is None else Product(tree, node)
    return tree


def format_sv(v: SlowlyVarying) -> str:
    """Inverse of parse_sv (flattens products left-to-right)."""
    if isinstance(v, Constant):
        return f"c({v.c:g})"
    if isinstance(v, LogPower):
        return f"lp({v.r:g})"
    if isinstance(v, IterLogPower):
        return f"ilp({v.r:g})"
    return f"{format_sv(v.left)}*{format_sv(v.right)}"
