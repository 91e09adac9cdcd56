"""q-special functions: q-gamma (product form, both regimes, and Jackson-sum
form), the q-digamma and its derivatives, the polylogarithm, and the
gamma-based composite functions whose sign patterns the certifier checks.

Products and ratios of q-gammas, and the [x]-power in the composite, are
assembled in log space and exponentiated once: [x]^(x+beta-alpha) overflows
quickly while the logs stay small and the ratios cancel.  Every series and
every sum of logs is one math.fsum of its terms, stopped by the rule of
qcore.REL_TERM_TOL.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Sequence

from .qcore import (
    REL_TERM_TOL,
    ConvergenceError,
    DomainError,
    EvaluationError,
    QParam,
    _MAX_TERMS,
    _PI2_6,
    _UNIT_ROUNDOFF,
    _entire_exp_neg,
    _finite_number,
    _log_qpow_poch,
    _log_qq_inf,
    _shown,
    q_number,
)
from .qmeasure import JacksonIntegralResult, jackson_integral_info

__all__ = [
    "GammaParams",
    "RatioParams",
    "log_q_gamma",
    "q_gamma",
    "q_gamma_jackson",
    "q_gamma_jackson_info",
    "q_psi",
    "q_psi_k",
    "polylog",
    "h_aux",
    "log_f_abq",
    "f_abq",
    "g_ab",
    "g_ratio",
]


class GammaParams(NamedTuple("GammaParams", [("alpha", float), ("beta", float), ("q", QParam)])):
    """Exponent pair (alpha, beta) of the gamma-based composite.

    beta must be nonnegative; hypothesis_ok records whether the
    log-monotonicity hypothesis 2*alpha <= 1 <= beta holds.
    """

    __slots__ = ()

    def __new__(cls, alpha: float, beta: float, q: QParam) -> "GammaParams":
        if not (_finite_number(alpha) and _finite_number(beta)):
            raise DomainError("alpha and beta must be finite")
        if beta < 0.0:
            raise DomainError(f"beta must be nonnegative, got {beta}")
        return super().__new__(cls, alpha, beta, q)

    @property
    def hypothesis_ok(self) -> bool:
        return 2.0 * self.alpha <= 1.0 <= self.beta


class RatioParams(NamedTuple("RatioParams", [("a", tuple[float, ...]), ("b", tuple[float, ...])])):
    """Shift sequences (a_i), (b_i) of the q-gamma ratio product.

    Both sequences must have equal length and positive, finite entries.
    hypothesis_ok records whether the monotonicity hypothesis holds: both
    sorted nondecreasing and prefix-sum dominated, sum_{i<=k} a_i <=
    sum_{i<=k} b_i for every k.  As for `GammaParams`, construction does not
    enforce it; `cert.thm32_harness` is its one gate.
    """

    __slots__ = ()

    def __new__(cls, a: Sequence[float], b: Sequence[float]) -> "RatioParams":
        a, b = tuple(a), tuple(b)
        if len(a) != len(b):
            raise DomainError("shift sequences must have equal length")
        for v in a + b:
            if not (_finite_number(v) and v > 0.0):
                raise DomainError(f"shifts must be positive reals, got {_shown(v)}")
        return super().__new__(cls, tuple(map(float, a)), tuple(map(float, b)))

    @property
    def hypothesis_ok(self) -> bool:
        a, b = self.a, self.b
        if any(x > y for x, y in zip(a, a[1:])) or any(x > y for x, y in zip(b, b[1:])):
            return False
        pa = pb = 0.0
        for x, y in zip(a, b):
            pa += x
            pb += y
            if pa > pb:
                return False
        return True


def log_q_gamma(x: float, q: QParam) -> float:
    """log Gamma_q(x) for x > 0 via the infinite-product form.

    0 < q < 1:  Gamma_q(x) = (q;q)_inf / (q^x;q)_inf * (1-q)^(1-x).
    q > 1:      the base-1/q product with the extra factors (q-1)^(1-x) and
                q^(x(x-1)/2).

    log (q^x;q)_inf (base 1/q for q > 1) is its factors above 1/2 in
    exponent form plus the log tail series (qcore._log_qpow_poch), about
    log 2 / |log q| + 55 terms, with no digits lost as x -> 0.  The x-free
    product log (q;q)_inf (likewise) depends on q alone and is cached.  All
    the parts are added by one math.fsum.
    """
    if not x > 0.0:
        raise DomainError(f"q-gamma needs x > 0, got {x!r}")
    qq = q.q
    lq = math.log(qq)
    c_head, c_tail = _log_qq_inf(qq)
    if q.is_sub_one:
        p_head, p_tail = _log_qpow_poch(x, lq)
        return math.fsum((c_head, c_tail, -p_head, -p_tail, (1.0 - x) * math.log1p(-qq)))
    p_head, p_tail = _log_qpow_poch(x, -lq)
    return math.fsum((
        c_head,
        c_tail,
        -p_head,
        -p_tail,
        (1.0 - x) * math.log(qq - 1.0),
        0.5 * x * (x - 1.0) * lq,
    ))


def q_gamma(x: float, q: QParam) -> float:
    """q-analogue of the gamma function; satisfies Gamma_q(x+1) = [x] Gamma_q(x)
    and Gamma_q(n+1) = [n]!.  OverflowError naming x and q past the float range."""
    try:
        return math.exp(log_q_gamma(x, q))
    except OverflowError:
        raise OverflowError(f"Gamma_q(x) overflows a float at x = {x!r} (q = {q.q!r})") from None


def q_gamma_jackson_info(
    x: float,
    q: QParam,
    n_lo: int = 200,
    n_hi: int = 40,
) -> JacksonIntegralResult:
    """Jackson-sum form of the q-gamma: (1-q) sum q^n t^(x-1) E_q(-q t) at
    t = q^n over the window n in [-n_hi, n_lo], with end-term magnitudes.

    Only 0 < q < 1 has this form.  Agreement with the product-form q_gamma
    depends on where the kernel's zeros fall relative to the lattice (exact
    for q = 1/2); the reported end terms say how trustworthy a window is.
    The kernel is the entire q-exponential's product (qcore._entire_exp_neg):
    its factors above 1/2 one by one, the rest as the log tail series, so
    its cost stays bounded as q -> 1.
    """
    if not q.is_sub_one:
        raise DomainError("the Jackson-sum gamma exists only for 0 < q < 1")
    if not x > 0.0:
        raise DomainError(f"q-gamma needs x > 0, got {x!r}")
    qq = q.q
    if n_lo > 0 and qq**n_lo == 0.0:
        raise DomainError(
            f"the Jackson window's small end t = q^n_lo underflows to 0 at n_lo = {n_lo} "
            f"(q = {qq}); lower n_lo"
        )

    def integrand(t: float) -> float:
        sign, logmag = _entire_exp_neg(qq * t, qq)  # E_q(-q t)
        if sign == 0.0:
            return 0.0
        logterm = (x - 1.0) * math.log(t) + logmag
        try:
            mag = math.exp(logterm)
        except OverflowError as exc:
            raise EvaluationError(
                f"Jackson-sum integrand overflows at t = {t!r}; shrink n_hi"
            ) from exc
        return sign * mag

    return jackson_integral_info(integrand, q, n_lo, n_hi)


def q_gamma_jackson(
    x: float,
    q: QParam,
    n_lo: int = 200,
    n_hi: int = 40,
) -> float:
    """Value of the Jackson-sum q-gamma; see q_gamma_jackson_info."""
    return q_gamma_jackson_info(x, q, n_lo, n_hi).value


@functools.lru_cache(maxsize=32)
def _eulerian(k: int) -> tuple[float, ...]:
    """Coefficients of the Eulerian polynomial A_k, so that
    Li_{-k}(z) = z A_k(z) / (1-z)^(k+1); A_0 = A_1 = 1.  The recurrence is
    A(m, i) = (i+1) A(m-1, i) + (m-i) A(m-1, i-1); A_k is palindromic, so the
    order suits Horner's rule either way."""
    if k > 170:
        # A_k(1) = k! > 1.8e308, so Li_{-k} is out of float reach at any x
        raise OverflowError(f"Eulerian polynomial of order {k} overflows a float")
    row = [1]
    for m in range(2, k + 1):
        prev = [0, *row, 0]  # prev[i + 1] = A(m-1, i)
        row = [(i + 1) * prev[i + 1] + (m - i) * prev[i] for i in range(m)]
    return tuple(float(c) for c in row)


def _eulerian_at(k: int, z: float) -> float:
    """A_k(z) by Horner's rule."""
    poly = 0.0
    for a in _eulerian(k):
        poly = poly * z + a
    return poly


#: B_2m / (2m)! for m = 1..12, the Euler-Maclaurin coefficients.  At y >= 10
#: the m-th correction is at most about 2 (k+2m-1)! / ((k-1)! (2 pi y)^(2m))
#: of the tail ((2m-1)! / (2 pi y)^(2m) for k = 0), and the tail is at most
#: about 1 / (k 10^k) of the total, so 12 reach below u for every k.
_EM_COEFFS = (
    0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05,
    -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
    1.3382536530684679e-11, -3.3896802963225827e-13, 8.586062056277845e-15,
    -2.174868698558062e-16, 5.5090028283602295e-18, -1.3954464685812522e-19,
)
#: The resummed series is summed directly for its first _EM_HEAD terms and by
#: its Euler-Maclaurin tail from y = x + _EM_HEAD on.
_EM_HEAD = 10


def _digamma_series(x: float, lr: float, k: int) -> float:
    """sum_{n>=1} n^k r^(nx) / (1 - r^n) with log r = lr < 0.

    The double sum sum_{n>=1} sum_{j>=0} n^k r^(n(x+j)) is resummed over j:
    S = sum_{j>=0} g(x+j), g(t) = Li_{-k}(e^(lr t)) in closed form, whose
    terms fall by the factor r.  Where that direct loop would be long
    (log(REL_TERM_TOL) / lr above 2 * _EM_HEAD terms), the first 10 terms
    are summed and the rest is their Euler-Maclaurin tail at y = x + 10,

        int_y^inf g + g(y)/2 - sum_{m>=1} B_2m/(2m)! g^(2m-1)(y),

    with int_y^inf g = -Li_{1-k}(e^(lr y)) / lr and
    g^(p)(y) = lr^p Li_{-k-p}(e^(lr y)), all in closed form.  The
    corrections stop once one falls below u times the total: 10 terms plus
    at most 12 corrections whatever x and q.  (The head is 10 terms at
    every x: it outweighs the tail by about e^(-10 lr), while the
    corrections, relative to the tail, do not shrink with y.)  Otherwise
    the loop stops once the geometric tail bound term * r / (1-r) is below
    REL_TERM_TOL times the partial sum, after about log(REL_TERM_TOL) / lr
    terms (~20 where |lr| >= 1.84), at most qcore._MAX_TERMS.  Every
    sum is one math.fsum of its terms.
    """
    what = "q-digamma series" if k == 0 else "q-digamma derivative series"
    # the corrections need A_(k+2m-1), m <= 12, which a float holds up to
    # order 170, and converge fastest for |lr| well below 2 pi
    em = lr > -2.0 and 2 * _EM_HEAD * lr > math.log(REL_TERM_TOL) and k + 2 * len(_EM_COEFFS) <= 170
    coeffs = _eulerian(k)
    tail = math.exp(lr) / -math.expm1(lr)  # r / (1 - r)
    head = []
    s = 0.0
    for j in range(_EM_HEAD if em else _MAX_TERMS):
        t = (x + j) * lr
        z = math.exp(t)
        poly = 0.0
        for a in coeffs:
            poly = poly * z + a
        den = (-math.expm1(t)) ** (k + 1)  # 0.0 only where the term overflows
        term = z * poly / den if den > 0.0 else math.inf
        if term == math.inf:
            raise OverflowError(f"{what} overflows at x = {x!r}")
        head.append(term)
        s += term
        if not em and term * tail <= REL_TERM_TOL * s < math.inf:
            return math.fsum(head)
    if not em:
        raise ConvergenceError(f"{what} did not settle within {_MAX_TERMS} terms")
    # the tail at y = x + _EM_HEAD as integral + scale * (A_k(z)/2 - sum_m
    # b_m rho^(2m-1) A_(k+2m-1)(z)), with g^(p)(y) = scale rho^p A_(k+p)(z)
    t = (x + _EM_HEAD) * lr
    z = math.exp(t)
    if z == 0.0:  # so are the integral and every correction
        return math.fsum(head)
    omz = -math.expm1(t)  # 1 - z
    rho = lr / omz
    scale = z / omz ** (k + 1)
    if k == 0:
        integral = math.log(omz) / lr
    else:
        integral = -scale * _eulerian_at(k - 1, z) / rho
    bracket = 0.5 * _eulerian_at(k, z)
    # a correction below this (in units of scale) cannot move the float total;
    # the ratio comes first, as u times a subnormal total would underflow
    bound = _UNIT_ROUNDOFF * ((s + integral + scale * bracket) / scale)
    rho2 = rho * rho
    rho_m = rho  # rho^(2m-1)
    for m, b in enumerate(_EM_COEFFS):
        corr = b * rho_m * _eulerian_at(k + 2 * m + 1, z)
        bracket -= corr
        if abs(corr) <= bound:
            return math.fsum((*head, integral, scale * bracket))
        rho_m *= rho2
    raise ConvergenceError(f"{what} did not settle within {_MAX_TERMS} terms")


def q_psi(x: float, q: QParam) -> float:
    """q-digamma, the logarithmic derivative of the q-gamma.

    0 < q < 1:  -log(1-q) + log(q) sum_{n>=1} q^(nx) / (1 - q^n).
    q > 1:      -log(q-1) + log(q) (x - 1/2 - sum_{n>=1} q^(-nx)/(1 - q^(-n))).

    The series is resummed over the shifts x + j with an Euler-Maclaurin
    tail (see _digamma_series): 10 terms plus at most 12 corrections.
    """
    if not x > 0.0:
        raise DomainError(f"q-digamma needs x > 0, got {x!r}")
    qq = q.q
    lq = math.log(qq)
    if q.is_sub_one:
        return -math.log1p(-qq) + lq * _digamma_series(x, lq, 0)
    return -math.log(qq - 1.0) + lq * (x - 0.5 - _digamma_series(x, -lq, 0))


def q_psi_k(x: float, q: QParam, k: int) -> float:
    """k-th derivative (in x) of the q-digamma, k >= 1, by termwise
    differentiation of the q_psi series.

    0 < q < 1:  log(q)^(k+1) sum n^k q^(nx) / (1 - q^n); every term has the
                fixed sign of log(q)^(k+1).
    q > 1:      (-1)^(k+1) log(q)^(k+1) sum n^k q^(-nx) / (1 - q^(-n)), plus
                the constant log(q) surviving from the linear term when k = 1.

    Summed as in q_psi, with Li_{-k} from the Eulerian polynomial A_k,
    which overflows a float past k = 170 at every x; OverflowError there
    and wherever the value leaves the float range.
    """
    if not x > 0.0:
        raise DomainError(f"q-digamma derivatives need x > 0, got {x!r}")
    if k < 1:
        raise DomainError(f"derivative order must be >= 1, got {k}")
    lq = math.log(q.q)
    if q.is_sub_one:
        value = lq ** (k + 1) * _digamma_series(x, lq, k)
    else:
        value = (-1.0) ** (k + 1) * lq ** (k + 1) * _digamma_series(x, -lq, k)
        if k == 1:
            value += lq
    if math.isinf(value):
        raise OverflowError(f"q-digamma derivative overflows at x = {x!r}")
    return value


#: Term cap of the polylogarithm series, whose ratio is z: the builtin
#: polylog_qx reaches z = q^x ~ 1 - 1e-3, tens of thousands of terms.  It
#: stays until polylog sums near z = 1 by its expansion in log z.
_POLYLOG_MAX_TERMS = 400_000


def polylog(s: float, z: float) -> float:
    """Polylogarithm Li_s(z) = sum_{k>=1} z^k / k^s on |z| < 1.

    Arguments on or outside the unit circle are rejected; the package only
    ever needs z in (0, 1).  The series has ratio z, so it is slow as z -> 1;
    ConvergenceError after _POLYLOG_MAX_TERMS terms.  Where k^s leaves the
    float range before the series settles (at z = 1/2: s <= -128 or
    s >= 1024), it is summed again by `_polylog_by_logs`, which raises
    OverflowError naming s and z where the value leaves the float range.
    """
    if not abs(z) < 1.0:
        raise DomainError(f"polylogarithm series needs |z| < 1, got z={z!r}")

    def terms():
        acc = 0.0
        zk = 1.0
        for k in range(1, _POLYLOG_MAX_TERMS + 1):
            zk *= z
            term = zk / float(k) ** s
            yield term
            acc += term
            if abs(term) <= REL_TERM_TOL * abs(acc) < math.inf:
                return
        raise ConvergenceError(
            f"polylogarithm series did not settle within {_POLYLOG_MAX_TERMS} terms"
        )

    try:
        return math.fsum(terms())
    except (OverflowError, ZeroDivisionError):
        return _polylog_by_logs(s, z)


def _polylog_by_logs(s: float, z: float) -> float:
    """polylog's series with each term z^k / k^s formed as
    sign(z)^k exp(k log|z| - s log k), for s where k^s leaves the float
    range while the terms need not.  The whole series is summed this way:
    a k^s that underflows to 0 has passed through the subnormals, where
    the plain terms lose their digits.  OverflowError naming s and z where
    a term or the sum leaves the float range."""
    lz, sign = math.log(abs(z)), math.copysign(1.0, z)
    terms, acc = [z], z
    try:
        for k in range(2, _POLYLOG_MAX_TERMS + 1):
            term = sign**k * math.exp(k * lz - s * math.log(k))
            terms.append(term)
            acc += term
            if not abs(acc) < math.inf:  # s = -inf, or a sum past the float range
                raise OverflowError
            if abs(term) <= REL_TERM_TOL * abs(acc):
                return math.fsum(terms)
    except OverflowError:
        raise OverflowError(f"polylogarithm overflows a float at s = {s!r}, z = {z!r}") from None
    raise ConvergenceError(f"polylogarithm series did not settle within {_POLYLOG_MAX_TERMS} terms")


def h_aux(x: float, q: QParam) -> float:
    """Dilogarithm correction -(Li_2(q^x) + x log(q) log(1-q^x)) / log(q).

    Decays to 0 as x grows (both numerator terms vanish with q^x); its
    classical derivative is x q^x log(q) / (1 - q^x).  For z = q^x > 1/2,
    Euler's reflection Li_2(z) + log(z) log(1-z) = pi^2/6 - Li_2(1-z), with
    log z = x log(q), turns it into -(pi^2/6 - Li_2(1-z)) / log(q).  Either
    way Li_2 is summed at an argument <= 1/2, in at most about 55 terms.
    """
    if not q.is_sub_one:
        raise DomainError("h is defined for 0 < q < 1")
    if not x > 0.0:
        raise DomainError(f"h needs x > 0, got {x!r}")
    lq = math.log(q.q)
    z = math.exp(x * lq)
    if z > 0.5:
        return -(_PI2_6 - polylog(2.0, -math.expm1(x * lq))) / lq
    return -(polylog(2.0, z) + x * lq * math.log1p(-z)) / lq


def log_f_abq(x: float, p: GammaParams) -> float:
    """Log-space pipeline for the gamma-based composite

        f(x) = (1-q)^x e^(h(x)) Gamma_q(x+beta) / [x]^(x+beta-alpha),

    i.e. x log(1-q) + h(x) + log Gamma_q(x+beta) - (x+beta-alpha) log [x].
    """
    q = p.q
    if not q.is_sub_one:
        raise DomainError("the gamma-based composite is defined for 0 < q < 1")
    if not x > 0.0:
        raise DomainError(f"the gamma-based composite needs x > 0, got {x!r}")
    bracket = q_number(x, q)
    return (
        x * math.log1p(-q.q)
        + h_aux(x, q)
        + log_q_gamma(x + p.beta, q)
        - (x + p.beta - p.alpha) * math.log(bracket)
    )


def f_abq(x: float, p: GammaParams) -> float:
    """The gamma-based composite itself (always positive); overflow in the
    final exponentiation is reported rather than returned as inf."""
    lf = log_f_abq(x, p)
    try:
        return math.exp(lf)
    except OverflowError as exc:
        raise EvaluationError(
            f"gamma-based composite overflows at x = {x!r} (log value {lf!r})"
        ) from exc


def g_ab(t: float, alpha: float, beta: float) -> float:
    """Elementary positivity witness

        g(t) = t + ((beta-alpha) t - 1) (e^(beta t) - e^((beta-1) t)),

    strictly positive on t > 0 whenever 2*alpha <= 1 <= beta.

    The exponential difference is evaluated as e^((beta-1)t) expm1(t): near
    t = 0 the whole expression cancels down to O(t^2), which the naive form
    buries under exp() rounding noise.  OverflowError naming t (as x, the
    CLI's argument) and the exponents where e^((beta-1)t) overflows.
    """
    if not t > 0.0:
        raise DomainError(f"positivity witness needs t > 0, got {t!r}")
    try:
        return t + ((beta - alpha) * t - 1.0) * math.exp((beta - 1.0) * t) * math.expm1(t)
    except OverflowError:
        raise OverflowError(f"positivity witness overflows a float at x = {t!r} "
                            f"(alpha = {alpha!r}, beta = {beta!r})") from None


def g_ratio(x: float, rp: RatioParams, q: QParam) -> float:
    """Gamma-ratio product prod_i Gamma_q(x+a_i) / Gamma_q(x+b_i) in log space;
    the empty product is 1."""
    if not x > 0.0:
        raise DomainError(f"gamma-ratio product needs x > 0, got {x!r}")
    if not q.is_sub_one:
        raise DomainError("the gamma-ratio product is defined for 0 < q < 1")
    logs = [log_q_gamma(x + a, q) for a in rp.a] + [-log_q_gamma(x + b, q) for b in rp.b]
    return math.exp(math.fsum(logs))
