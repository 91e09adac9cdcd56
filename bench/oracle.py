"""Correctness oracle for the benchmark.

Two kinds of expectation, both computed outside the timed region:

* verdicts predicted by theory.  A classically completely monotone (CM)
  function is q-CM for every q, because the n-th q-difference over the
  points x, qx, ..., q^n x is a positive multiple of an n-th divided
  difference, which by the mean-value theorem has the sign of the n-th
  derivative somewhere in between.  The same argument carries the log-CM and
  Bernstein patterns over, and fixes where the first violation of a closed
  form must appear;
* reference values from mpmath at 20 digits, memoised per argument, with a
  stated tolerance.
"""

from __future__ import annotations

import math
import sys

import mpmath as mp

#: Relative and absolute tolerance of a value against its mpmath reference.
RTOL = 1e-9
ATOL = 1e-12

_DPS = 20

QCM, QLOGCM, QBERNSTEIN = "qcm", "qlogcm", "qbernstein"

#: Closed-form builtins: predicted (verdict, order of the first violation) per
#: property.  The order is where the first grid point must fail; None for a
#: Consistent prediction.  Parameters are drawn positive (shift, rate, value).
PREDICTED: dict[str, dict[str, tuple[str, int | None]]] = {
    # 1/(x+c), e^(-cx), E_q(1)^(-cx): CM and log-CM, decreasing so not Bernstein
    "reciprocal_shift": {QCM: ("Consistent", None), QLOGCM: ("Consistent", None), QBERNSTEIN: ("Violated", 1)},
    "exp_decay": {QCM: ("Consistent", None), QLOGCM: ("Consistent", None), QBERNSTEIN: ("Violated", 1)},
    "eq_decay": {QCM: ("Consistent", None), QLOGCM: ("Consistent", None), QBERNSTEIN: ("Violated", 1)},
    # 1 - E_q(1)^(-cx) and x: Bernstein, increasing so neither CM nor log-CM
    "one_minus_eq_decay": {QCM: ("Violated", 1), QLOGCM: ("Violated", 1), QBERNSTEIN: ("Consistent", None)},
    "identity": {QCM: ("Violated", 1), QLOGCM: ("Violated", 1), QBERNSTEIN: ("Consistent", None)},
    # a positive constant has every pattern: all differences vanish exactly
    "constant": {QCM: ("Consistent", None), QLOGCM: ("Consistent", None), QBERNSTEIN: ("Consistent", None)},
    # x^2: D_q x^2 = (1+q) x > 0 breaks QCM at n=1; D_q^2 x^2 = 1+q breaks QBERNSTEIN at n=2
    "square": {QCM: ("Violated", 1), QLOGCM: ("Violated", 1), QBERNSTEIN: ("Violated", 2)},
}


class Mismatch(Exception):
    """An operation completed but its output disagrees with the oracle."""


class Failed(Exception):
    """An operation did not deliver what it promised without giving a wrong
    answer: a CLI error exit, a target the certifier could not evaluate, or a
    violation reported at a higher order than the first one theory fixes."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


#: log of the smallest normal double: a sample below it has lost precision
LOG_MIN_NORMAL = math.log(sys.float_info.min)


def log_eq1(q: float) -> float:
    """log E_q(1) in double precision from its product form."""
    base = q if q < 1.0 else 1.0 / q
    a = (1.0 - q) if q < 1.0 else -(1.0 - base)
    total = 0.0
    term = a
    while abs(term) > 1e-18:
        total += math.log1p(term) if q < 1.0 else -math.log1p(term)
        term *= base
    return total


def decay_underflows(name: str, params: dict, q: float, order: int, points) -> bool:
    """Whether a decaying builtin drops below the normal double range on the
    sample points q^j x (j = 0..order) of the grid: its logarithm there is
    rounding noise, so a verdict built on it says nothing."""
    if name == "exp_decay":
        scale = 1.0
    elif name == "eq_decay":
        scale = log_eq1(q)
    else:
        return False
    x_top = max(points) * max(1.0, q ** order)
    return -params["rate"] * x_top * scale < LOG_MIN_NORMAL


def orders_checked(prop: str, order: int) -> int:
    """Checks per grid point: QLOGCM starts at n=1, the others at n=0."""
    return order if prop == QLOGCM else order + 1


def close(value: float, ref, scale=None) -> bool:
    """|value - ref| <= RTOL * scale + ATOL, scale defaulting to |ref|."""
    ref = mp.mpf(ref)
    scale = abs(ref) if scale is None else scale
    return abs(mp.mpf(value) - ref) <= RTOL * scale + ATOL


class References:
    """mpmath reference values, memoised so that a cycled input pool pays
    for each reference once."""

    def __init__(self) -> None:
        self._memo: dict[tuple, object] = {}

    def _cached(self, key: tuple, compute):
        try:
            return self._memo[key]
        except KeyError:
            with mp.workdps(_DPS):
                v = self._memo[key] = compute()
            return v

    def log_eq1(self, q: float):
        """log E_q(1): (-(1-q); q)_inf for q < 1, 1/((1-p); p)_inf with p = 1/q."""
        def compute():
            if q < 1.0:
                return mp.log(mp.qp(-(1 - mp.mpf(q)), q))
            p = 1 / mp.mpf(q)
            return -mp.log(mp.qp(1 - p, p))
        return self._cached(("log_eq1", q), compute)

    def big_e(self, y: float, q: float) -> float:
        """E_q(y) from its product form, (-(1-q)y; q)_inf for q < 1 and
        1/((1-p)y; p)_inf with p = 1/q for q > 1, in mpmath's double-precision
        context (the Jackson-kernel transforms need thousands per input)."""
        def compute():
            if q < 1.0:
                return mp.fp.qp(-(1.0 - q) * y, q)
            p = 1.0 / q
            return 1.0 / mp.fp.qp((1.0 - p) * y, p)
        return self._cached(("big_e", y, q), compute)

    def function(self, name: str, q: float, params: tuple, x: float):
        """Reference value of a CLI builtin at x; params as sorted items."""
        p = dict(params)

        def compute():
            mx, mq = mp.mpf(x), mp.mpf(q)
            if name == "reciprocal_shift":
                return 1 / (mx + p["shift"])
            if name == "exp_decay":
                return mp.exp(-p["rate"] * mx)
            if name == "eq_decay":
                return mp.exp(-p["rate"] * mx * self.log_eq1(q))
            if name == "one_minus_eq_decay":
                return 1 - mp.exp(-p["rate"] * mx * self.log_eq1(q))
            if name == "q_gamma":
                if q < 1.0:
                    return mp.qgamma(mx, mq)
                return mp.qgamma(mx, 1 / mq) * mq ** ((mx - 1) * (mx - 2) / 2)
            if name == "q_psi":
                # derivative of the product form of log Gamma_q, summed over
                # the shifts x+k (rate q whatever x is)
                base = mq if q < 1.0 else 1 / mq
                s = mp.mpf(0)
                k = 0
                while True:
                    z = base ** (mx + k)
                    term = z / (1 - z)
                    s += term
                    k += 1
                    if term < s * mp.mpf(10) ** (-_DPS):
                        break
                if q < 1.0:
                    return -mp.log(1 - mq) + mp.log(mq) * s
                return -mp.log(mq - 1) + mp.log(mq) * (mx - mp.mpf(1) / 2 - s)
            if name == "polylog_qx":
                return mp.polylog(p["s"], mq ** mx)
            raise KeyError(name)

        return self._cached(("fn", name, q, params, x), compute)

    def laplace_terms(self, atoms, lam: float, q: float, kernel: str):
        """(value, scale) of sum_i w_i K(lam, t_i); scale is sum_i |w_i K|."""
        total = mp.mpf(0)
        scale = mp.mpf(0)
        for t, w in atoms:
            if kernel == "power":
                k = self._cached(
                    ("power", lam * t, q), lambda: mp.exp(-mp.mpf(lam * t) * self.log_eq1(q))
                )
            else:
                k = self.big_e(-lam * t, q)
            total += w * k
            scale += abs(w * k)
        return total, scale
