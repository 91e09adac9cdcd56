"""Independent oracles shared by the test modules.

Everything here deliberately avoids the library code paths it is used to
check: brute-force recursions, closed forms proved by hand, and classical
finite differences.
"""

from __future__ import annotations

import math

from qmono import QParam, q_derive, q_number


def naive_q_derive_n(f, x: float, q: QParam, n: int) -> float:
    """n-fold nested first q-derivative, re-evaluating f at every level.

    Visits exactly the points q^j x of the triangular table, so agreement
    with the table is a pure-arithmetic check.
    """
    if n == 0:
        return f(x)
    return q_derive(lambda y: naive_q_derive_n(f, y, q, n - 1), x, q)


def monomial_q_derive_n(m: int, n: int, x: float, q: QParam) -> float:
    """Closed form D_q^n x^m = [m][m-1]...[m-n+1] x^(m-n); zero for n > m."""
    if n > m:
        return 0.0
    coeff = 1.0
    for j in range(n):
        coeff *= q_number(m - j, q)
    return coeff * x ** (m - n)


def reciprocal_q_derive_sign(n: int, x: float, c: float, q: QParam) -> float:
    """Closed form (-1)^n D_q^n [1/(x+c)] = [n]! / prod_{j=0..n} (q^j x + c),
    proved by induction on n."""
    num = 1.0
    for j in range(1, n + 1):
        num *= q_number(j, q)
    den = 1.0
    for j in range(n + 1):
        den *= q.q**j * x + c
    return num / den


def central_diff(f, x: float, n: int, h: float) -> float:
    """Classical n-th derivative estimate by central differences of width h."""
    acc = 0.0
    for i in range(n + 1):
        acc += (-1.0) ** i * math.comb(n, i) * f(x + (n / 2.0 - i) * h)
    return acc / h**n


def classical_logcm_screen(f, xs, n_max: int = 3, h: float = 1e-2, tol: float = 1e-8) -> bool:
    """Finite-difference screen for the classical log-CM pattern
    (-1)^n (log f)^(n) >= 0, n = 1..n_max, on the sample points xs."""
    g = lambda y: math.log(f(y))
    for x in xs:
        for n in range(1, n_max + 1):
            if (-1.0) ** n * central_diff(g, x, n, h) < -tol:
                return False
    return True


def outcome(fn, *args):
    """("value", repr of the result) or (exception type, message): equal
    outcomes mean bit-identical values or identical errors."""
    try:
        return "value", repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
