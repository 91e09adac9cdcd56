"""Independent oracles shared by the test modules.

Everything here deliberately avoids the library code paths it is used to
check: brute-force recursions, closed forms proved by hand, classical
finite differences, and 50-digit mpmath evaluations of the defining series.
The composite certifier checks have a reference here too: one `certify`
call per target, each sampling its function afresh; so does a q-lattice's
sampling loop: every value through isinstance, isfinite and float.  The
q-Laplace transform is summed atom by atom with a kernel call per atom,
and JSON is rendered by the plain isinstance chain.
"""

from __future__ import annotations

import math

import mpmath as mp

from qmono import (
    BernsteinIffReport,
    CertProperty,
    ClosureCheck,
    ClosureReport,
    DomainError,
    EvaluationError,
    ExpKind,
    InputError,
    KernelKind,
    QParam,
    Verdict,
    certify,
    eq_power,
    q_convolve,
    q_derive,
    q_exp,
    q_number,
)
from qmono._serialize import format17
from qmono.qcore import _finite_number, _shown

UNIT_ROUNDOFF = 2.0**-53


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


def reference_rows(f, x0: float, q: QParam, order: int):
    """The whole triangular table rooted at x0, entry by entry as in the
    definition: row 0 is f at the lattice x0, q x0, ..., q^order x0 (formed
    by iterated multiplication) and

        (m, j) = [(m-1, j+1) - (m-1, j)] / (q^j x0 (q - 1)),

    with the condition rows running the same recurrence on magnitudes.
    Returns (rows, mag_rows); rows[m][j] is (D_q^m f)(q^j x0)."""
    pts = [x0]
    for _ in range(order):
        pts.append(q.q * pts[-1])
    rows = [tuple(float(f(p)) for p in pts)]
    mags = [tuple(abs(v) for v in rows[0])]
    qm1 = q.q - 1.0
    for m in range(1, order + 1):
        prev, pmag = rows[m - 1], mags[m - 1]
        rows.append(
            tuple((prev[j + 1] - prev[j]) / (pts[j] * qm1) for j in range(len(prev) - 1))
        )
        mags.append(
            tuple((pmag[j + 1] + pmag[j]) / abs(pts[j] * qm1) for j in range(len(pmag) - 1))
        )
    return tuple(rows), tuple(mags)


def reference_sample(lattice, f, vals: list) -> list:
    """A q-lattice's sampling loop with every value through isinstance,
    isfinite and float: root by root, the first value that is not a finite
    number raises EvaluationError naming its lattice point.  An int too
    large for a float raises isfinite's OverflowError here."""
    points, npts = lattice.points, lattice.npts
    for i in range(npts):
        for k in range(i, len(vals), npts):
            v = f(vals[k])
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise EvaluationError(f"function not finite at x = {points[k]!r}: got {v!r}")
            vals[k] = float(v)
    return vals


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
    """("value", float.hex of a float result, else its repr) or (exception
    type, message): equal outcomes mean bit-identical values or identical
    errors."""
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    return "value", value.hex() if isinstance(value, float) else repr(value)


def mp_q_psi(x: float, q: QParam, k: int = 0) -> tuple[float, float]:
    """q_psi (k = 0) or q_psi_k at 50 digits, as (value, sum of the |terms|
    it is assembled from).

    The Lambert series S(x) = sum_{n>=1} n^k r^(nx) / (1 - r^n), r = q or
    1/q, is summed as Li_{-k}(r^x) + S(x+1) (telescoping), so the direct sum
    runs at ratio r^(x+1) whatever x is.
    """
    with mp.workdps(50):
        xx, qq = mp.mpf(x), mp.mpf(q.q)
        lq = mp.log(qq)
        lr = lq if qq < 1 else -lq
        series = mp.polylog(-k, mp.exp(xx * lr))
        n = 1
        while True:
            term = mp.mpf(n) ** k * mp.exp(n * (xx + 1) * lr) / -mp.expm1(n * lr)
            series += term
            # the terms fall once n (x+1) |log r| > k
            if n * (x + 1.0) * abs(float(lr)) > k and term <= mp.mpf("1e-25") * series:
                break
            n += 1
        if qq < 1:
            terms = [-mp.log1p(-qq), lq * series] if k == 0 else [lq ** (k + 1) * series]
        elif k == 0:
            terms = [-mp.log(qq - 1), lq * (xx - mp.mpf(1) / 2), -lq * series]
        else:
            terms = [(-1) ** (k + 1) * lq ** (k + 1) * series] + ([lq] if k == 1 else [])
        return float(mp.fsum(terms)), float(mp.fsum(abs(t) for t in terms))


def _mp_h_terms(xx, lq) -> list:
    z = mp.exp(xx * lq)
    return [-mp.polylog(2, z) / lq, -xx * mp.log1p(-z)]


def mp_entire_exp(x: float, p: float) -> tuple[float, float, float]:
    """E_p(x) = prod_{j>=0} (1 + (1-p) p^j x) for 0 < p < 1 at 50 digits, as
    (value, E_p(|x|), c).

    E_p(|x|) is the sum of the |terms| of the power series at x.  With
    v_j = (1-p) p^j |x|, c = sum_j (j+2) v_j / |1 - v_j| bounds the relative
    error the product picks up from its factors when v_j is formed by j
    roundings from a rounded v_0.  A factor that is exactly 0 (p = 1/2 and
    x = -2^(j+1), the only zeros of E_p at a float p and x) has v_j formed
    without rounding, so the product is 0 as well; it adds nothing to c.
    """
    with mp.workdps(50):
        pp = mp.mpf(p)
        v = (1 - pp) * abs(mp.mpf(x))
        sign = 1 if x >= 0 else -1
        value = abs_value = mp.mpf(1)
        c = mp.mpf(0)
        j = 0
        while v >= mp.mpf("1e-55"):  # the rest moves no kept digit
            value *= 1 + sign * v
            abs_value *= 1 + v
            if v != 1:
                c += (j + 2) * v / abs(1 - v)
            v *= pp
            j += 1
        return float(value), float(abs_value), float(c)


def mp_finite_exp(x: float, p: float) -> tuple[float, float, float]:
    """e_p(x) = 1 / prod_{j>=0} (1 - (1-p) p^j x) for 0 < p < 1 and x < 0,
    or 0 < x < 1/(1-p), at 50 digits, as (value, e_p(|x|), c); all three are
    inf for x > 0 at or past the radius.

    e_p(|x|) is the sum of the |terms| of the power series at x, inf at or
    past the radius 1/(1-p), where the series diverges but the product does
    not (for x < 0).  A float x inside the library's rounded radius of q can
    lie there when the base p = 1/q is itself rounded (q = 128/127:
    p = 127/128, radius 128, but fl(q/(q-1)) = 128.00000000000023).  With
    v_j = (1-p) p^j |x|, c = sum_j (j+2) v_j + |log e_p(x)| bounds the
    relative error the reciprocal product picks up from its factors when
    v_j is formed by j roundings from a rounded v_0, plus that of
    exponentiating its log; for x > 0 each v_j is divided by 1 - v_j, the
    growth of that error in the factor 1 - v_j.  The factors above 1/100
    are taken one by one, the rest as
    log prod_j (1 + w p^j) = -sum_{m>=1} (-w)^m / (m (1 - p^m)) (and with w
    for 1 - w p^j); the split point differs from the library's (1/2) on
    purpose.
    """
    with mp.workdps(50):
        pp = mp.mpf(p)
        v = (1 - pp) * abs(mp.mpf(x))
        inside = v < 1
        if x > 0 and not inside:  # the product has a factor <= 0
            return math.inf, math.inf, math.inf
        log_value = log_abs = c = mp.mpf(0)
        j = 0
        while v > mp.mpf(1) / 100:
            log_value -= mp.log1p(v)
            if inside:
                log_abs -= mp.log1p(-v)
            c += (j + 2) * (v / (1 - v) if x > 0 else v)
            v *= pp
            j += 1
        # sum_i (j+i+2) v p^i, and for x > 0 at most 1/(1 - v) times it
        c += v * ((j + 2) / (1 - pp) + pp / (1 - pp) ** 2) / (1 - v if x > 0 else 1)
        m = 1
        while True:
            term = v**m / (m * (1 - pp**m))
            log_value += (-1) ** m * term
            log_abs += term
            if term < mp.mpf("1e-60"):
                break
            m += 1
        abs_value = float(mp.exp(log_abs)) if inside else math.inf
        if x > 0:
            return abs_value, abs_value, float(c + log_abs)
        return float(mp.exp(log_value)), abs_value, float(c - log_value)


def mp_reciprocal_entire(x: float, q: float) -> tuple[float, float]:
    """The q-exponential with a finite radius at x < 0, e_q(x) for q < 1 or
    E_q(x) for q > 1, as 1 / (the entire kind at y = -x) of the same float
    q, summed at 50 digits: y^n q^C(n,2) / [n]_q! (E_q, q < 1) or
    y^n / [n]_q! (e_q, q > 1), where [n]_q = (q^n - 1)/(q - 1) exactly.
    Returns (value, r): r bounds, as a multiple of u, the relative error of
    1 / math.fsum of that series with the library's rounded terms.

    Term n is term n-1 times y / [n] (and times q^(n-1)).  The divisor
    fl(expm1(fl(n fl(log q))) / fl(q - 1)) is within (7 + 3 n |log q|) u
    of [n] for q > 1, and 7 u for q < 1: 2 u for log, u for n log q, 2 u
    for expm1, 2 u for q - 1 and the division; the argument error,
    3 u n |log q|, moves expm1(a) by at most 3 u (1 + n |log q|)
    relatively for a > 0 and 3 u for a < 0.  Each step rounds y / [n] and
    the product (2 u); for q < 1 the weight q^(n-1), itself n - 2
    roundings, and its product add n u.  So term n is within
    delta_n = (9 n + 1.5 n (n+1) |log q|) u (q > 1) or
    (9 n + n (n+1) / 2) u (q < 1) of its exact value, and, the terms being
    positive, the sum within sum_n t_n delta_n / sum_n t_n.  The stop rule
    drops a tail below ~2 REL_TERM_TOL relative, fsum and the reciprocal
    round once each: r = 4 + sum_n t_n delta_n / sum_n t_n, in u.
    """
    with mp.workdps(50):
        value, r = _mp_reciprocal_entire(x, q)
        return float(value), float(r)


def _mp_reciprocal_entire(x: float, q: float) -> tuple[mp.mpf, mp.mpf]:
    """mp_reciprocal_entire at the working precision, unrounded."""
    qq = mp.mpf(q)
    y = -mp.mpf(x)
    lq = abs(math.log(q))
    s = t = mp.mpf(1)
    weighted = mp.mpf(0)
    n = 0
    while True:
        n += 1
        t = t * y / ((qq**n - 1) / (qq - 1))
        if q < 1.0:
            t *= qq ** (n - 1)
            delta = 9 * n + n * (n + 1) / 2
        else:
            delta = 9 * n + 1.5 * n * (n + 1) * lq
        s += t
        weighted += t * delta
        if t < s * mp.mpf("1e-55"):
            break
    return 1 / s, 4 + weighted / s


def mp_jackson_transform(pairs, lam: float, q: float) -> float:
    """sum_i w_i E_q(-lambda t_i) for q > 1 at 50 digits, each kernel at
    the float argument -lambda t_i that q_laplace passes to q_exp."""
    with mp.workdps(50):
        return float(mp.fsum(mp.mpf(w) * _mp_reciprocal_entire(-lam * t, q)[0] for t, w in pairs))


def mp_polylog_series(s: float, z: float) -> tuple[float, float]:
    """Li_s(z) = sum_{k>=1} z^k / k^s for 0 < |z| < 1, summed term by term at
    50 digits, as (value, the sum of its |terms|, which is Li_s(|z|)).
    mpmath's own polylog leaves the real line at z < 0 for some non-integer
    s (Li_s(-0.9375) at s = 2.8e-261)."""
    with mp.workdps(50):
        zz, ss = mp.mpf(z), mp.mpf(s)
        # past k_peak the |terms| fall by at least |z|^(1/2) per step
        k_peak = 2 * max(0.0, -s) / -math.log(abs(z)) + 2
        value = total = mp.mpf(0)
        k = 0
        while True:
            k += 1
            term = zz**k / mp.mpf(k) ** ss
            value += term
            total += abs(term)
            if k > k_peak and abs(term) < total * mp.mpf("1e-45"):
                return float(value), float(total)


def mp_entire_exp_near_one(x: float, p: float) -> float:
    """E_p(x) for x < 0 and p close to 1, where the factor product is too
    long to multiply out, at 50 digits:
    log E_p(-t) = -sum_{m>=1} v^m / (m (1 - p^m)), v = (1-p) t, the power
    series of sum_j log(1 - v p^j); it needs v < 1."""
    with mp.workdps(50):
        pp = mp.mpf(p)
        v = (1 - pp) * -mp.mpf(x)
        assert v < 1
        return float(mp.exp(-mp.nsum(lambda m: v**m / (m * (1 - pp**m)), [1, mp.inf])))


def _mp_log_qpoch(a, r):
    """log (a;r)_inf for 0 <= a < 1 at the working precision: the factors
    above 1/100 one by one, then log (w;r)_inf = -sum_{m>=1} w^m / (m (1 - r^m)).
    The split point differs from the library's (1/2) on purpose."""
    total = mp.mpf(0)
    w = a
    while w > mp.mpf(1) / 100:
        total += mp.log1p(-w)
        w *= r
    wm = w
    m = 1
    while True:
        term = wm / (m * (1 - r**m))
        total -= term
        if term < mp.mpf("1e-60"):
            return total
        m += 1
        wm *= w


def mp_qpoch_inf(a: float, q: float) -> tuple[mp.mpf, float]:
    """(a;q)_inf for a <= 1 (every factor is >= 0) and 0 < q < 1 at 30
    digits, as (value, c).

    The value is mpmath's qp for q <= 0.99; closer to 1, where qp multiplies
    ~70/(1-q) factors, it is the exp of the factors above 1/100 taken one by
    one plus log (w;q)_inf = -sum_{m>=1} w^m / (m (1 - q^m)) for the rest
    (signed w).  With v_j = a q^j, c = sum_j (j+2) |v_j| / |1 - v_j| bounds
    the relative error the product picks up from its factors when v_j is
    formed by j roundings from a.
    """
    with mp.workdps(30):
        aa, qq = mp.mpf(a), mp.mpf(q)
        v, c, log_head, j = aa, mp.mpf(0), mp.mpf(0), 0
        while abs(v) > mp.mpf(1) / 100:
            if v == 1:
                return mp.mpf(0), 0.0
            c += (j + 2) * abs(v) / (1 - v)
            log_head += mp.log(1 - v)
            v *= qq
            j += 1
        # the rest: sum_i (j+i+2) |v| q^i / (1 - |v| q^i) <= the geometric bound
        c += abs(v) * ((j + 2) / (1 - qq) + qq / (1 - qq) ** 2) / (1 - abs(v))
        if q <= 0.99:
            return mp.qp(aa, qq, maxterms=10**5), float(c)
        log_tail, wm, m = mp.mpf(0), v, 1
        while abs(wm) > mp.mpf("1e-40"):
            log_tail -= wm / (m * (1 - qq**m))
            wm *= v
            m += 1
        return mp.exp(log_head + log_tail), float(c)


def mp_log_eq_one(q: float) -> float:
    """log E_q(1) for q > 1 at 50 digits, by mpmath's q-Pochhammer:
    E_q(1) = e_{1/q}(1) = 1 / ((1 - 1/q); 1/q)_inf."""
    with mp.workdps(50):
        p = 1 / mp.mpf(q)
        return float(-mp.log(mp.qp(1 - p, p)))


def mp_log_q_gamma(x: float, q: QParam) -> tuple[float, float]:
    """log Gamma_q(x) at 50 digits from the product form, as (value, sum of
    the |parts| it is assembled from).

    With r = q or 1/q below 1 the parts are log (r;r)_inf, -log (r^x;r)_inf,
    (1-x) log|1-q| and, for q > 1, x (x-1)/2 log q.  For q near 1 the two
    products are about pi^2/(6 |log q|) each and cancel, so a float
    evaluation that forms them apart carries an error of a few u times their
    size.
    """
    with mp.workdps(50):
        xx, qq = mp.mpf(x), mp.mpf(q.q)
        r = qq if qq < 1 else 1 / qq
        parts = [_mp_log_qpoch(r, r), -_mp_log_qpoch(r**xx, r), (1 - xx) * mp.log(abs(1 - qq))]
        if qq > 1:
            parts.append(xx * (xx - 1) / 2 * mp.log(qq))
        return float(mp.fsum(parts)), float(mp.fsum(abs(t) for t in parts))


def mp_h_aux(x: float, q: QParam) -> tuple[float, float]:
    """h_aux = -(Li_2(q^x) + x log(q) log(1-q^x)) / log(q) at 50 digits, as
    (value, sum of the |terms|)."""
    with mp.workdps(50):
        terms = _mp_h_terms(mp.mpf(x), mp.log(mp.mpf(q.q)))
        return float(mp.fsum(terms)), float(mp.fsum(abs(t) for t in terms))


def mp_h_aux_q_derive(x: float, q: QParam, n: int) -> float:
    """(D_q^n h_aux)(x) at 60 digits: the difference table over the float
    points x, q x, ..., q^n x (formed by iterated multiplication, as
    QDiffTable samples them), with h_aux at each point from mpmath."""
    pts = [x]
    for _ in range(n):
        pts.append(q.q * pts[-1])
    with mp.workdps(60):
        lq, qq = mp.log(mp.mpf(q.q)), mp.mpf(q.q)
        row = [mp.fsum(_mp_h_terms(mp.mpf(p), lq)) for p in pts]
        for _ in range(n):
            row = [(b - a) / (mp.mpf(p) * (qq - 1)) for a, b, p in zip(row, row[1:], pts)]
        return float(row[0])


def mp_f_abq(x: float, alpha: float, beta: float, q: QParam) -> float:
    """f_abq at 50 digits from mpmath's q-gamma and polylogarithm."""
    with mp.workdps(50):
        xx, qq = mp.mpf(x), mp.mpf(q.q)
        lq = mp.log(qq)
        bracket = -mp.expm1(xx * lq) / (1 - qq)
        return float(
            mp.exp(
                xx * mp.log1p(-qq)
                + mp.fsum(_mp_h_terms(xx, lq))
                + mp.log(mp.qgamma(xx + beta, qq))
                - (xx + beta - alpha) * mp.log(bracket)
            )
        )


def series_tolerance(x: float, q: QParam, magnitude: float) -> float:
    """Error allowed to a float evaluation of a q^x series: 1e-14 of the sum
    of its |terms|, plus the conditioning of q^(nx) = exp(n x log q) in the
    rounded exponent (relative error about |x log q| u in the leading term)."""
    return (1e-14 + 4.0 * UNIT_ROUNDOFF * abs(x * math.log(q.q))) * magnitude


def _reference_ts(ts) -> tuple:
    ts = tuple(ts)
    for t in ts:
        if not t > 0.0:
            raise InputError(f"transform parameters must be positive, got t = {t!r}")
    return ts


def _reference_decay(f, ts, q: QParam, spec) -> tuple:
    cm_spec = spec._replace(property=CertProperty.QCM)
    return tuple((t, certify(lambda x, t=t: eq_power(-t * f(x), q), q, cm_spec)) for t in ts)


def reference_bernstein_iff_check(f, ts, q: QParam, spec) -> BernsteinIffReport:
    """`bernstein_iff_check` from one `certify` call per side: f is sampled
    again for the QBERNSTEIN side and for every decay target."""
    ts = _reference_ts(ts)
    f_report = certify(f, q, spec._replace(property=CertProperty.QBERNSTEIN))
    cm_reports = _reference_decay(f, ts, q, spec)
    f_ok = f_report.verdict is Verdict.CONSISTENT
    cm_ok = all(r.verdict is Verdict.CONSISTENT for _, r in cm_reports)
    flagged = []
    if not f_ok:
        ce = f_report.counterexamples[0]
        flagged.append(
            f"qbernstein side violated at x={format17(ce.x)} n={ce.n} value={format17(ce.value)}"
        )
    for t, r in cm_reports:
        if r.verdict is Verdict.VIOLATED:
            ce = r.counterexamples[0]
            flagged.append(f"qcm side violated at t={format17(t)} x={format17(ce.x)} n={ce.n}")
    return BernsteinIffReport(f_report, cm_reports, f_ok == cm_ok, tuple(flagged))


def reference_closure_checks(fs, q: QParam, spec, ts=(0.5, 1.0, 2.0)) -> ClosureReport:
    """`closure_checks` from one `certify` call per member and property, per
    composition g(f(x)) and per decay target: each samples afresh."""
    ts = _reference_ts(ts)
    names = sorted(fs)
    verdicts = {}
    for name in names:
        for prop in (CertProperty.QBERNSTEIN, CertProperty.QCM, CertProperty.QLOGCM):
            try:
                verdicts[(name, prop)] = certify(fs[name], q, spec._replace(property=prop)).verdict
            except InputError:
                verdicts[(name, prop)] = None

    def law(kind, f_name, verdict, g_name=None, t=None):
        return ClosureCheck(kind, f_name, g_name, t, verdict, verdict is Verdict.CONSISTENT)

    bern = [n for n in names if verdicts[(n, CertProperty.QBERNSTEIN)] is Verdict.CONSISTENT]
    bern_spec = spec._replace(property=CertProperty.QBERNSTEIN)
    checks = [
        law("composition", f_name,
            certify(lambda x, g=fs[g_name], f=fs[f_name]: g(f(x)), q, bern_spec).verdict, g_name)
        for f_name in bern
        for g_name in bern
    ]
    checks += [
        law("logcm_implies_cm", name, verdicts[(name, CertProperty.QCM)] or Verdict.VIOLATED)
        for name in names
        if verdicts[(name, CertProperty.QLOGCM)] is Verdict.CONSISTENT
    ]
    for name in bern:
        checks += [law("power_stays_cm", name, r.verdict, t=t)
                   for t, r in _reference_decay(fs[name], ts, q, spec)]
        checks.append(law("decay_is_logcm", name, Verdict.CONSISTENT))
    return ClosureReport(
        base=tuple((n, p.value, v.value if v else "inapplicable") for (n, p), v in verdicts.items()),
        checks=tuple(checks),
        all_ok=all(c.ok for c in checks),
    )


def reference_q_laplace(mu, lam: float, q: QParam, kernel) -> float:
    """The transform as math.fsum of w * K(lambda, t) over the atoms, each
    kernel value from its own q_exp or eq_power call, consumed one atom at a
    time: the first error met, fsum's own overflow included, is the one
    raised."""
    if not (_finite_number(lam) and lam >= 0.0):
        raise DomainError(f"transform parameter must be finite and >= 0, got {_shown(lam)}")

    def kernel_value(t):
        if kernel is KernelKind.JACKSON_E:
            return q_exp(-lam * t, q, ExpKind.BIG_E)
        return eq_power(-lam * t, q)

    return math.fsum(w * kernel_value(t) for t, w in mu.pairs())


def reference_semigroup_entries(family, ts, lams, q: QParam, kernel) -> list[tuple]:
    """(t, s, lambda, lhs, rhs, deviation) per unordered pair and lambda,
    lambda by lambda, the convolution's transform before the target's."""
    entries = []
    for i, t in enumerate(ts):
        for s in ts[i:]:
            conv = q_convolve(family[t], family[s])
            target = family[t + s]
            for lam in lams:
                lhs = reference_q_laplace(conv, lam, q, kernel)
                rhs = reference_q_laplace(target, lam, q, kernel)
                entries.append((t, s, lam, lhs, rhs, abs(lhs - rhs)))
    return entries


def _reference_render(obj, out: list) -> None:
    if isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format17(obj))
    elif isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        out.append(f'"{escaped}"')
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            _reference_render(str(k), out)
            out.append(": ")
            _reference_render(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)) and not hasattr(obj, "_fields"):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _reference_render(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_render_json(obj) -> str:
    """JSON text by one isinstance chain, recursing into every element."""
    out: list = []
    _reference_render(obj, out)
    out.append("\n")
    return "".join(out)
