"""Primitive q-objects.

Everything else in the package is built from the functions here: q-numbers
[x] = (1-q^x)/(1-q), their products and ratios (q-factorial, q-binomial),
the two q-exponentials e_q and E_q, powers of the constant E_q(1), and the
infinite q-Pochhammer product (a;q)_inf.

All functions are pure.  The only shared state is four lru_caches, each
keyed by q alone (or by log p, p = q or 1/q), holding at most 128 entries
and what a fresh computation would return:

- `_exp_divisors`: the first `_EXP_STEPS_CAP` divisors [n] of the q_exp
  series, formed once per q;
- `_log_eq_base`: log E_q(1), behind eq_power and log_q;
- `_log_qq_inf`: log (r;r)_inf with r = q or 1/q, the x-free factor of
  log Gamma_q (qspecial.log_q_gamma);
- `_log_tail_divisors`: the divisors m (p^m - 1) of the log tail series.

Every summed series is one math.fsum of its terms; a series that can run
to its fixed cap (`_MAX_TERMS` here, qspecial._POLYLOG_MAX_TERMS for the
polylogarithm) feeds it from a generator, so memory stays flat, and stops
on a plain running sum (see REL_TERM_TOL).

The base q = 1 is rejected at construction; classical q -> 1 behaviour is
exercised only by tests with q close to 1, which keeps every formula
single-cased.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

__all__ = [
    "DomainError",
    "ConvergenceError",
    "EvaluationError",
    "InputError",
    "Regime",
    "QParam",
    "REL_TERM_TOL",
    "ExpKind",
    "q_number",
    "q_pochhammer",
    "q_factorial",
    "q_binomial",
    "q_exp",
    "eq_power",
    "log_q",
    "qpoch_inf",
]


class DomainError(ValueError):
    """Argument outside the mathematical domain of the requested quantity."""


class ConvergenceError(RuntimeError):
    """A truncated series failed its stopping rule within its term cap."""


class InputError(ValueError):
    """Structurally invalid input (bad certification target, missing family member)."""


class EvaluationError(InputError):
    """A supplied function produced a non-finite or unusable value; an
    InputError, since a function that cannot be sampled is a bad target."""


def _finite_number(v: object) -> bool:
    """v is an int or float with a finite float value; False, not
    OverflowError, for an int too large for a float."""
    try:
        return isinstance(v, (int, float)) and math.isfinite(v)
    except OverflowError:
        return False


def _shown(v: object) -> str:
    """repr(v) for an error message; an int too long for str() (more
    decimal digits than sys.get_int_max_str_digits()) is named by its size."""
    try:
        return repr(v)
    except ValueError:
        return f"an int of {v.bit_length()} bits"


class Regime(Enum):
    SUB_ONE = "sub_one"      # 0 < q < 1
    SUPER_ONE = "super_one"  # q > 1


# A record that validates subclasses a functional NamedTuple, since a
# NamedTuple body may not define __new__.  `_replace` skips that __new__
# unless the record overrides `_make`.
class QParam(NamedTuple("QParam", [("q", float)])):
    """The base q, with its regime tag read off it.

    Requires q > 0 and q != 1; the regime is SUB_ONE exactly when q < 1.
    """

    __slots__ = ()

    def __new__(cls, q: float) -> "QParam":
        if not _finite_number(q):
            raise DomainError(f"q must be a finite real, got {_shown(q)}")
        if q <= 0.0 or q == 1.0:
            raise DomainError(f"q must satisfy q > 0 and q != 1, got {q}")
        return super().__new__(cls, float(q))

    @property
    def regime(self) -> Regime:
        return Regime.SUB_ONE if self.q < 1.0 else Regime.SUPER_ONE

    @property
    def is_sub_one(self) -> bool:
        return self.q < 1.0


#: A series stops once a term is at most this times its plain running sum
#: (u = 2^-53 is 1.11e-16).  An inf or nan running sum never stops a
#: series, so an overflowing one raises rather than returning inf.  All the
#: series in this package are eventually dominated by a geometric ratio,
#: so the relative stopping rule is sound.
REL_TERM_TOL = 1e-16

#: Cap on the terms of the q_exp series and the q-digamma's direct loop, and
#: on the factors above 1/2 of a q-exponential product (ConvergenceError).
_MAX_TERMS = 10_000

_LN2 = math.log(2.0)
_UNIT_ROUNDOFF = 2.0**-53


def q_number(x: float, q: QParam) -> float:
    """The q-analogue [x] = (1 - q^x)/(1 - q); tends to x as q -> 1.

    Evaluated through expm1 so the heavy cancellation in 1 - q^x at small
    x*log(q) costs no relative accuracy.  `_exp_divisors` and `_exp_terms`
    form it for the q_exp series as expm1(n log q)/(q - 1), which is the
    same float (both roundings are symmetric in sign); a change here must
    be made there too.
    """
    return -math.expm1(x * math.log(q.q)) / (1.0 - q.q)


def q_pochhammer(x: float, k: int, q: QParam) -> float:
    """Rising product [x]_k = [x][x+1]...[x+k-1]; empty product for k = 0."""
    if k < 0:
        raise DomainError(f"q-Pochhammer length must be nonnegative, got {k}")
    p = 1.0
    for j in range(k):
        p *= q_number(x + j, q)
    return p


def q_factorial(n: int, q: QParam) -> float:
    """[n]! = [1][2]...[n], with [0]! = 1."""
    if n < 0:
        raise DomainError(f"q-factorial needs n >= 0, got {n}")
    return q_pochhammer(1.0, n, q)


def q_binomial(n: int, k: int, q: QParam) -> float:
    """Gaussian binomial [n]! / ([k]! [n-k]!) for 0 <= k <= n."""
    if not 0 <= k <= n:
        raise DomainError(f"q-binomial needs 0 <= k <= n, got n={n}, k={k}")
    return q_factorial(n, q) / (q_factorial(k, q) * q_factorial(n - k, q))


class ExpKind(Enum):
    SMALL_E = "e"  # e_q(x) = sum x^n/[n]!          (radius 1/(1-q) for q < 1)
    BIG_E = "E"    # E_q(x) = sum q^C(n,2) x^n/[n]! (entire for q < 1)


#: Both q-exponentials alternate for x < 0, and a summed series carries an
#: absolute rounding error of about u times the sum of its |terms|, e(|x|).
#: For the entire kind (E_q for q < 1, e_q for q > 1) that is at most
#: e^|x|; past this |x| (where e^|x| = 2^20) q_exp evaluates the factor
#: product instead, which keeps its relative accuracy.  The kind with a
#: finite radius has no zeros, and its relative error u e(|x|) / e(x) is at
#: most u exp(2|x| / (1 - v)), v = |x| / radius; q_exp takes its reciprocal
#: product where that bound exceeds 2^20 u.
_ALTERNATING_LIMIT = 20.0 * _LN2

#: For x > 0 the ratio of that kind's series tends to v = x / radius: it
#: needs ~37 / (1 - v) terms and its stop rule drops a tail of ~u / (1 - v).
#: q_exp takes the reciprocal product (base p) where 1 - v < max((1 - p) / 4,
#: _NEAR_RADIUS), where it matched or beat the series against mpmath (p <= 0.99).
_NEAR_RADIUS = 40.0 / _MAX_TERMS  # where ~37 / (1 - v) terms near _MAX_TERMS

#: Length of the divisor table of `_exp_terms`: a series that runs further
#: computes the rest inline.
_EXP_STEPS_CAP = 64


@lru_cache(maxsize=128)
def _exp_divisors(qval: float) -> tuple[float, ...]:
    """The divisors [n] = expm1(n log q)/(q - 1), n = 1.._EXP_STEPS_CAP, of
    the q_exp series, rounded as the inline loop of `_exp_terms` rounds
    them; e_q and E_q share them.  The table stops before the first n where
    q^n leaves the float range (q above ~6.6e4), so that loop raises at that
    same n.  It never holds inf: (q^n - 1)/(q - 1) overflows only for
    1 < q < 2, and there it stays finite for n <= 64.
    """
    lq = math.log(qval)
    table = []
    for n in range(1, _EXP_STEPS_CAP + 1):
        try:
            table.append(math.expm1(n * lq) / (qval - 1.0))
        except OverflowError:
            break
    return tuple(table)


def _exp_terms(x: float, qq: float, big: bool):
    """The terms of the q_exp series, for math.fsum: 1, then term n is term
    n-1 times x/[n] (and then times q^(n-1) for E_q), until the running sum
    is finite and at least |term| / REL_TERM_TOL; ConvergenceError after
    _MAX_TERMS terms.

    The divisors come from the per-q table `_exp_divisors`; past its end
    q_number(n, q) is inlined.  That loop raises OverflowError once the
    running sum is not finite (nan where an inf term met a weight q^(n-1)
    that underflowed to 0), and where a divisor overflows: from expm1, as
    q_number would, where q^n leaves the float range, and from the stop
    rule where only (q^n - 1)/(q - 1) does, which q_number returns as inf.
    """
    yield 1.0
    table = _exp_divisors(qq)
    s = term = qpow = 1.0  # qpow is q^(n-1), the E_q weight
    tol = REL_TERM_TOL
    inf = math.inf
    for d in table:
        term *= x / d
        if big:
            term *= qpow
            qpow *= qq
        yield term
        s += term
        if abs(term) <= tol * abs(s) < inf:
            return
    lq = math.log(qq)
    qm1 = qq - 1.0
    expm1 = math.expm1
    for n in range(len(table) + 1, _MAX_TERMS + 1):
        d = expm1(n * lq) / qm1
        term *= x / d
        if big:
            term *= qpow
            qpow *= qq
        yield term
        s += term
        if abs(term) <= tol * abs(s) < inf:
            if d == inf:
                # (q^n - 1)/(q - 1) left the float range (1 < q < 2)
                # and zeroed a term that had not settled
                raise OverflowError(f"q-exponential divisor [{n}] overflows a float")
            return
        if not -inf < s < inf:
            raise OverflowError(f"q-exponential overflows a float at x = {x!r}")
    raise ConvergenceError(f"q-exponential series did not settle within {_MAX_TERMS} terms")


def q_exp(x: float, q: QParam, kind: ExpKind) -> float:
    """q-exponential of either kind from its truncated series (far out on
    the negative axis, the entire kind from its factor product; near its
    radius, the other kind from its reciprocal product).

    e_q carries the term ratio x/[n]; E_q carries an extra factor q^(n-1) so
    its n-th term is q^(n(n-1)/2) x^n/[n]!.  Since E_q(x) = e_{1/q}(x), the
    finite convergence radius 1/(1-q) belongs to e_q when q < 1 and to E_q
    (as q/(q-1)) when q > 1; arguments outside it are rejected.  The other
    kind is entire: E_p(x) = prod_{j>=0} (1 + (1-p) p^j x) with p = q or
    1/q below 1.  q_exp returns that product (`_entire_exp`) for
    x < -`_ALTERNATING_LIMIT`, where the alternating series would lose every
    digit, and for x > 0 where the series overflows, which a term can do
    before its weight q^(n-1) brings it back (E_{1e-6}(1e56) is ~1e290); it
    raises OverflowError when the product leaves the float range.
    The kind with a finite radius is e_p(x) = 1 / prod_{j>=0} (1 - (1-p) p^j x);
    for x < 0 q_exp returns that reciprocal product (`_finite_exp`)
    wherever the series' relative error could exceed 2^20 u, which it
    approaches as x -> -radius (see `_ALTERNATING_LIMIT`), for x > 0 near
    the radius (see `_NEAR_RADIUS`), and for E_q with q > 1 also where a
    divisor [n] of the series overflows first, on either side of 0
    (DomainError where x > 0 lies at or past the radius of p = 1/q rounded).
    A series whose terms sum past the float range raises OverflowError.
    The series is `_exp_terms`, which reads the divisors [n] from the per-q
    table `_exp_divisors`; it, and a product, stop at `_MAX_TERMS`.
    """
    if not math.isfinite(x):
        raise DomainError(f"q-exponential argument must be finite, got {x!r}")
    qq = q.q
    big = kind is ExpKind.BIG_E
    if not big and qq < 1.0:
        radius = 1.0 / (1.0 - qq)
        if not abs(x) < radius:
            raise DomainError(
                f"e_q series diverges for |x| >= 1/(1-q) = {radius}, got x={x}"
            )
    if big and qq > 1.0:
        radius = qq / (qq - 1.0)
        if not abs(x) < radius:
            raise DomainError(
                f"E_q series (q > 1) diverges for |x| >= q/(q-1) = {radius}, got x={x}"
            )
    p = qq if qq < 1.0 else 1.0 / qq
    if x < -_ALTERNATING_LIMIT and big == (qq < 1.0):
        return _entire_exp(x, p)
    if x < 0.0 and big != (qq < 1.0) and -2.0 * x > _ALTERNATING_LIMIT * (1.0 + x / radius):
        return _finite_exp(x, p)
    if x > 0.0 and big != (qq < 1.0) and 1.0 - x / radius < max(0.25 * (1.0 - p), _NEAR_RADIUS):
        return _finite_exp(x, p)
    gen = _exp_terms(x, qq, big)
    try:
        return math.fsum(gen)
    except OverflowError as exc:
        if gen.gi_frame is not None:
            # fsum's own overflow: finite terms whose sum leaves the float range
            raise OverflowError(f"q-exponential overflows a float at x = {x!r}") from exc
        if big == (qq < 1.0):
            # the entire kind at x > 0, where a term can overflow before its
            # weight q^(n-1) or its divisor brings it back into range
            return _entire_exp(x, p)
        if big and qq > 1.0:
            # a divisor q^n - 1 or the running sum left the float range;
            # the reciprocal product has no divisors and raises on overflow
            return _finite_exp(x, p)
        raise


#: Length of the divisor table of `_log_tail`: |w| <= 1/2 stops within 55
#: terms.
_LOG_TAIL_TERMS = 60


@lru_cache(maxsize=128)
def _log_tail_divisors(lp: float) -> tuple[float, ...]:
    """The divisors m (p^m - 1) = m expm1(m lp), m = 1.._LOG_TAIL_TERMS, of
    the log tail series; they depend on p alone, so they are cached per
    log p."""
    expm1 = math.expm1
    return tuple(m * expm1(m * lp) for m in map(float, range(1, _LOG_TAIL_TERMS + 1)))


def _log_tail(w: float, lp: float) -> float:
    """sum_{j>=0} log(1 - w p^j) = -sum_{m>=1} w^m / (m (1 - p^m)) for
    |w| <= 1/2 and log p = lp < 0: the log of an infinite product from its
    first factor >= 1/2 on (w >= 0), or of prod_j (1 + |w| p^j) (w < 0).

    Each term is at most |w| times the one before, so the rest of the
    series after a term is at most |term| |w| / (1 - |w|); the loop stops
    once that bound falls below the unit roundoff times the partial sum,
    within 55 terms at |w| = 1/2, and takes its divisors from the per-p
    table `_log_tail_divisors`.  The terms are added by math.fsum.
    """
    # ratio / u: dividing by u = 2^-53 is exact, so the test below is
    # |term| ratio <= u |s| with one multiplication fewer per term
    scaled_ratio = abs(w) / (1.0 - abs(w)) / _UNIT_ROUNDOFF
    terms = []
    s = 0.0
    wm = w
    for div in _log_tail_divisors(lp):
        term = wm / div  # -w^m / (m (1 - p^m))
        terms.append(term)
        s += term
        if abs(term) * scaled_ratio <= abs(s):
            return math.fsum(terms)
        wm *= w
    raise ConvergenceError(f"log tail series needs |w| <= 1/2, got w = {w!r}")


#: A log magnitude past which exp overflows a float and exp of its negative
#: is 0.0 (both happen by 745.14).
_LOG_RANGE = 746.0

_PI2_6 = math.pi**2 / 6.0  # Li_2(1)


def _li2(y: float) -> float:
    """Li_2(y) = sum_{m>=1} y^m / m^2 for 0 <= y < 1, in 59 terms at a ratio
    <= 1/2 by Euler's reflection Li_2(y) = pi^2/6 - log(y) log(1-y) - Li_2(1-y)."""
    if y > 0.5:
        return _PI2_6 - math.log(y) * math.log1p(-y) - _li2(1.0 - y)
    return math.fsum(y**m / (m * m) for m in range(1, 60))


def _log_prod(v: float, p: float, lp: float, bound: float = math.inf) -> tuple[float, float]:
    """prod_{j>=0} (1 - v p^j) for 0 < p < 1 and log p = lp, as (sign, log
    magnitude); sign 0.0 (log magnitude -inf) flags an exact zero factor.

    The factors with |v p^j| > 1/2 (there may be none) are taken one by one
    in log space: for v > 0 they carry the sign and the zeros, for v < 0
    each is log1p(|v p^j|).  The rest are the log tail series of
    `_log_tail`.  So the cost is about log(2 |v|)/|log p| factors plus at
    most ~55 tail terms, whatever p.

    Once every factor left lies in (0, 1) (v p^j < 1) or above 1 (v < 0),
    the log magnitude only moves further in one direction, and the loop
    returns the partial log as soon as it is past -bound or +bound.  With
    bound = _LOG_RANGE its exp over- or underflows exactly as that of the
    full log would, after at most ~1,900 factors (each moves the log by at
    least log(3/2)).  For v > 1 the first n factors (v p^j > 1) are
    negative and log |1 - v p^j| falls up to j ~ n and rises after, so each
    side's sum is at most its integral and the log is at most
    n log v + lp n(n-1)/2 + (Li_2(1/v) - Li_2(1/(v p^(n-1))) - Li_2(v p^n)) / |lp|;
    past -bound, the product is (-1)^n times an underflow without its
    ~log(v)/|lp| factors.  n counts the loop's v p^j (j roundings within u
    each), so only where v p^(n-1) and v p^n clear 1 by more than that.
    Only a caller that takes exp of the log alone may pass a bound: the
    Jackson-sum integrand adds (x-1) log t to it.
    """
    if v > 1.0 and bound < math.inf:
        lv = math.log(v)
        n = math.ceil(lv / -lp)
        hi, lo = math.exp(lv + (n - 1) * lp), math.exp(lv + n * lp)
        slack = 2.0 * _UNIT_ROUNDOFF * (n + 4.0 + 4.0 * lv)
        if hi > 1.0 + slack and lo < 1.0 - slack:
            top = n * lv + lp * (n * (n - 1) // 2) + (_li2(1 / v) - _li2(1 / hi) - _li2(lo)) / -lp
            if top < -bound:
                return (-1.0 if n % 2 else 1.0), top
    sign = 1.0
    logmag = 0.0
    while v > 0.5:
        factor = 1.0 - v
        if factor == 0.0:
            return 0.0, -math.inf
        if factor < 0.0:
            sign = -sign
            logmag += math.log(-factor)
        else:
            logmag += math.log(factor)
            if logmag < -bound:
                return sign, logmag
        v *= p
    while v < -0.5:
        logmag += math.log1p(-v)
        if logmag > bound:
            return sign, logmag
        v *= p
    return sign, logmag + _log_tail(v, lp)


def _check_factor_count(v: float, lp: float, x: float) -> None:
    """ConvergenceError when the factors 1 -+ v p^j, log p = lp, with
    |v p^j| > 1/2 alone would exceed _MAX_TERMS; x names the q_exp argument."""
    if abs(v) > 0.5 and math.log(2.0 * abs(v)) > _MAX_TERMS * -lp:
        raise ConvergenceError(
            f"q-exponential product needs more than {_MAX_TERMS} factors at x = {x!r}"
        )


def _entire_exp_neg(t: float, p: float) -> tuple[float, float]:
    """E_p(-t) = prod_{j>=0} (1 - v_j), v_j = (1-p) p^j t, for t >= 0 and
    0 < p < 1, as (sign, log magnitude) from `_log_prod`; sign 0.0 (log
    magnitude -inf) flags an exact zero factor, a lattice zero of the
    kernel.  ConvergenceError when the factors above 1/2 alone would exceed
    _MAX_TERMS.
    """
    v = (1.0 - p) * t
    lp = math.log(p)
    _check_factor_count(v, lp, -t)
    return _log_prod(v, p, lp)


def _entire_exp(x: float, p: float) -> float:
    """E_p(x) = prod_{j>=0} (1 + (1-p) p^j x) for 0 < p < 1, the entire
    q-exponential: `_entire_exp_neg` for x < 0; for x > 0 every factor
    exceeds 1, so `_log_prod` stops once the log is past the float range,
    within ~1,900 factors.  OverflowError where the value leaves it.
    """
    if x < 0.0:
        sign, logmag = _entire_exp_neg(-x, p)
    else:
        sign, logmag = _log_prod(-(1.0 - p) * x, p, math.log(p), _LOG_RANGE)
    try:
        return sign * math.exp(logmag)
    except OverflowError as exc:
        raise OverflowError(f"q-exponential overflows a float at x = {x!r}") from exc


def _finite_exp(x: float, p: float) -> float:
    """e_p(x) = 1 / prod_{j>=0} (1 - v_j), v_j = (1-p) p^j x, for
    |x| < 1/(1-p) and 0 < p < 1: the q-exponential with a finite radius,
    which is positive there, at most 1 for x <= 0.

    The product is `_log_prod` at v_0.  For x > 0 its first factor
    1 - v_0 cancels near the radius, so it is formed exactly from the
    floats p and x and rounded once; the factors after it are about 1 - p
    or more.  Where that first factor is <= 0, x lies at or past the radius of
    this p, which for p = 1/q rounded can be a few ulps inside the rounded
    q/(q-1), and DomainError names x and p.  ConvergenceError when its
    factors above 1/2 in magnitude alone would exceed _MAX_TERMS;
    OverflowError where the value (near the radius) leaves the float range.
    """
    v = (1.0 - p) * x
    lp = math.log(p)
    _check_factor_count(v, lp, x)
    if x > 0.0:
        # 1 - (1-p) x = (pd xd - (pd - pn) xn) / (pd xd) in integers; the
        # int division rounds once
        pn, pd = p.as_integer_ratio()
        xn, xd = x.as_integer_ratio()
        num = pd * xd - (pd - pn) * xn
        if num <= 0:
            raise DomainError(
                f"q-exponential product diverges at x = {x!r}, at or past the "
                f"radius 1/(1-p) of its base p = {p!r}"
            )
        logmag = math.log(num / (pd * xd)) + _log_prod(v * p, p, lp)[1]
    else:
        logmag = _log_prod(v, p, lp)[1]
    try:
        return math.exp(-logmag)
    except OverflowError as exc:
        raise OverflowError(f"q-exponential overflows a float at x = {x!r}") from exc


def _log_qpow_poch(x: float, lq: float) -> tuple[float, float]:
    """log (q^x; q)_inf = sum_{j>=0} log(1 - q^(x+j)) for x > 0 and
    log q = lq < 0, as the pair (head, tail) whose sum it is.

    The head is the factors with q^(x+j) above 1/2 (about log 2 / |lq| - x
    of them), or above q when q < 1/2, where the tail's ratio w would
    otherwise exceed the product's ratio q.  They are summed by math.fsum,
    each as log(-expm1((x+j) lq)) so that none loses digits as x -> 0.  The
    tail is the rest, from w = q^(x+J) <= min(1/2, q) on, by the series of
    `_log_tail`.  The pair stays unsummed so that log_q_gamma can add all
    its parts in one correctly rounded sum.
    """
    n = max(0, math.ceil(max(1.0, -_LN2 / lq) - x))
    head = math.fsum(math.log(-math.expm1((x + j) * lq)) for j in range(n)) if n else 0.0
    return head, _log_tail(math.exp((x + n) * lq), lq)


@lru_cache(maxsize=128)
def _log_eq_base(qval: float) -> float:
    """log E_q(1), the logarithm base behind eq_power and log_q.

    Cached per q: certification sweeps call eq_power millions of times with
    the same base.  The E_q(1) series settles within a few hundred terms
    wherever it is summed.  Past q ~ 9.59 its divisors q^n - 1 overflow
    before it settles (past q ~ 2^53, where the rounded radius q/(q-1) is 1, too);
    there E_q(1) = e_p(1) = 1/(1-p; p)_inf with p = 1/q, whose first factor
    is p, so log E_q(1) = log q - `_log_tail`((1-p) p, log p).  The series
    is `_exp_terms` itself, not q_exp, which would answer the overflow with
    a reciprocal product of different rounding.
    """
    try:
        return math.log(math.fsum(_exp_terms(1.0, qval, True)))
    except OverflowError:
        lq = math.log(qval)
        p = 1.0 / qval
        return lq - _log_tail((1.0 - p) * p, -lq)


def eq_power(x: float, q: QParam) -> float:
    """The ordinary power E_q(1)^x of the constant E_q(1).  OverflowError
    naming x and q where it leaves the float range.  Its list form over
    x = s*v is `_eq_powers`."""
    try:
        return math.exp(x * _log_eq_base(q.q))
    except OverflowError:
        raise OverflowError(f"E_q(1)^x overflows a float at x = {x!r} (q = {q.q!r})") from None


def _eq_powers(s: float, vs: list[float], q: QParam) -> list[float]:
    """[eq_power(s * v, q) for v in vs], bit for bit, as one comprehension
    with no call per v but math.exp.  Where one overflows, math.exp's bare
    OverflowError: q_laplace (s <= 0, v >= 0) never meets it, and
    cert._decay_table re-samples through eq_power, which names x and q."""
    exp, base = math.exp, _log_eq_base(q.q)
    return [exp(s * v * base) for v in vs]


def log_q(y: float, q: QParam) -> float:
    """Logarithm to base E_q(1); exact inverse of eq_power.  Needs y > 0."""
    if not y > 0.0:
        raise DomainError(f"logarithm base E_q(1) needs y > 0, got {y!r}")
    return math.log(y) / _log_eq_base(q.q)


def qpoch_inf(a: float, q: QParam) -> float:
    """Infinite q-Pochhammer product (a;q)_inf = prod_{j>=0} (1 - a q^j).

    Converges only for 0 < q < 1; callers in the q > 1 regime must transform
    to base 1/q first.  It is `_log_prod` at v = a, so it costs about
    log(2 |a|)/|log q| factors plus at most ~55 tail terms, and no more
    than ~1,900 factors for a < 1, where it stops once the log is past the
    float range; a value below the float range is 0.0 (-0.0 where an odd
    number of factors is negative, which for a > 1 is known from a bound
    on the log without its factors), and one above it raises OverflowError.
    """
    if not q.is_sub_one:
        raise DomainError(
            "infinite q-Pochhammer product needs 0 < q < 1; map q > 1 inputs to base 1/q"
        )
    if not math.isfinite(a):
        raise DomainError(f"(a;q)_inf needs finite a, got {a!r}")
    sign, logmag = _log_prod(float(a), q.q, math.log(q.q), _LOG_RANGE)
    try:
        return sign * math.exp(logmag)
    except OverflowError as exc:
        raise OverflowError(
            f"(a;q)_inf overflows a float at a = {a!r}, q = {q.q!r}"
        ) from exc


@lru_cache(maxsize=128)
def _log_qq_inf(qval: float) -> tuple[float, float]:
    """log (r;r)_inf with r = q for q < 1 and r = 1/q for q > 1, as the
    (head, tail) pair of `_log_qpow_poch`: the factor of log Gamma_q that
    does not depend on x, cached per q because every q-gamma evaluation
    needs it.  It is `_log_qpow_poch` at x = 1 with log r = -|log q|, the
    same call log_q_gamma makes, so log Gamma_q(1) = 0 exactly."""
    return _log_qpow_poch(1.0, -abs(math.log(qval)))
