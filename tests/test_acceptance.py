"""Acceptance gate: the exit criteria of the build, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  Every tolerance is pinned here, nothing is deferred.
"""

import math
import random
import time
from contextlib import contextmanager

from qmono import (
    CertProperty,
    CertSpec,
    DiscreteMeasure,
    ExpKind,
    GammaParams,
    KernelKind,
    QParam,
    RatioParams,
    Verdict,
    bernstein_iff_check,
    certify,
    eq_power,
    g_ab,
    g_ratio,
    q_bell,
    q_binomial,
    q_convolve,
    q_derive_n,
    q_exp,
    q_factorial,
    q_faa_di_bruno,
    q_gamma,
    q_gamma_jackson,
    q_laplace,
    q_number,
    q_psi,
    q_psi_k,
    report_to_json,
    semigroup_check,
    thm31_harness,
    thm32_harness,
)

Q5 = QParam(0.5)


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} FAIL  {text}")
        raise
    print(f"ACCEPTANCE {num:2d} PASS  {text}")


def rel_ok(got, expected, tol):
    if expected == 0.0:
        return abs(got) <= tol
    return abs(got - expected) / abs(expected) <= tol


def test_01_q_primitive_identities():
    with criterion(1, "q-Pascal recurrence and binomial symmetry, n <= 12, rel 1e-12, < 1 s"):
        t0 = time.perf_counter()
        for qv in (0.3, 0.5, 0.9):
            q = QParam(qv)
            for n in range(0, 13):
                for k in range(0, n + 1):
                    assert rel_ok(q_binomial(n, k, q), q_binomial(n, n - k, q), 1e-12)
                    if 1 <= k <= n - 1:
                        rhs = q_binomial(n - 1, k - 1, q) + qv**k * q_binomial(n - 1, k, q)
                        assert rel_ok(q_binomial(n, k, q), rhs, 1e-12)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_02_q_derivative_eigenrules():
    with criterion(2, "q-exponential eigenrules, n <= 5, 20 points, rel 1e-9, < 1 s"):
        t0 = time.perf_counter()
        q = QParam(0.9)
        a = -1.0
        points = [2.0 + 2.0 * i / 19.0 for i in range(20)]
        small = lambda x: q_exp(a * x, q, ExpKind.SMALL_E)
        big = lambda x: q_exp(a * x, q, ExpKind.BIG_E)
        for n in range(0, 6):
            for x in points:
                expected_e = a**n * q_exp(a * x, q, ExpKind.SMALL_E)
                assert rel_ok(q_derive_n(small, x, q, n), expected_e, 1e-9)
                expected_E = (
                    a**n * 0.9 ** (n * (n - 1) // 2) * q_exp(a * 0.9**n * x, q, ExpKind.BIG_E)
                )
                assert rel_ok(q_derive_n(big, x, q, n), expected_E, 1e-9)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_03_bell_and_composition():
    with criterion(3, "Bell special cases exact to 1e-12 (n <= 8); composition rule vs direct, linear inner, rel 1e-9 (n <= 5)"):
        xs = tuple(float(v) for v in (2, 3, 5, 7, 11, 13, 17, 19))
        for qv in (0.3, 0.5, 0.9):
            q = QParam(qv)
            for n in range(1, 9):
                assert abs(q_bell(n, 1, q, xs) - xs[n - 1]) <= 1e-12 * abs(xs[n - 1])
                x1n = 1.0
                for _ in range(n):
                    x1n *= xs[0]
                assert abs(q_bell(n, n, q, xs) - x1n) <= 1e-12 * abs(x1n)
        # composition rule against the direct table for h(x) = c x, g = e_q
        c = 0.3
        gk = lambda k: (lambda y: q_exp(y, Q5, ExpKind.SMALL_E))
        h = lambda x: c * x
        composed = lambda x: q_exp(c * x, Q5, ExpKind.SMALL_E)
        for n in range(1, 6):
            direct = q_derive_n(composed, 1.0, Q5, n)
            formula = q_faa_di_bruno(gk, h, 1.0, Q5, n)
            assert rel_ok(formula, direct, 1e-9)


def test_04_gamma_coherence():
    with criterion(4, "gamma recurrence/factorial 1e-10; q->1 limit 1%; Jackson form 1e-5 at q=1/2"):
        for qv in (0.5, 0.9, 2.0):
            q = QParam(qv)
            for i in range(1, 21):
                x = 0.25 * i  # x in (0, 5]
                assert rel_ok(q_gamma(x + 1.0, q), q_number(x, q) * q_gamma(x, q), 1e-10)
        for qv in (0.5, 0.9):
            q = QParam(qv)
            for n in range(0, 7):
                assert rel_ok(q_gamma(n + 1.0, q), q_factorial(n, q), 1e-10)
        q999 = QParam(0.999)
        for x in (1.0, 1.5, 2.0, 2.5, 3.0):
            assert rel_ok(q_gamma(x, q999), math.gamma(x), 0.01)
        for x in (1.0, 2.0, 3.0, 4.0, 5.0):
            assert rel_ok(q_gamma_jackson(x, Q5), q_gamma(x, Q5), 1e-5)


def test_05_psi_coherence():
    with criterion(5, "psi recurrence 1e-8; termwise derivatives vs FD 1e-5 (k <= 3); psi' QCM at N=6 clean"):
        for qv in (0.5, 0.9, 2.0):
            q = QParam(qv)
            for x in (0.25, 1.0, 2.5, 4.0):
                lhs = q_psi(x + 1.0, q) - q_psi(x, q)
                rhs = -math.log(qv) * qv**x / (1.0 - qv**x)
                assert abs(lhs - rhs) <= 1e-8

        def fd5(f, x, h=1e-2):
            return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)

        for qv in (0.5, 0.9):
            q = QParam(qv)
            for k in (1, 2, 3):
                below = (lambda y: q_psi(y, q)) if k == 1 else (lambda y: q_psi_k(y, q, k - 1))
                for x in (0.8, 1.6, 3.0):
                    assert rel_ok(q_psi_k(x, q, k), fd5(below, x), 1e-5)

        rep = certify(lambda x: q_psi_k(x, Q5, 1), Q5, CertSpec(CertProperty.QCM, max_order=6))
        assert rep.verdict is Verdict.CONSISTENT
        assert len(rep.counterexamples) == 0


def test_06_gamma_composite_log_monotonicity():
    with criterion(6, "gamma-composite QLOGCM harness over 3 parameter points x q in {0.3, 0.7} at N=4; witness grid positive; < 30 s"):
        t0 = time.perf_counter()
        for qv in (0.3, 0.7):
            for alpha, beta in ((0.5, 1.0), (0.0, 1.0), (-1.0, 2.0)):
                p = GammaParams(alpha, beta, QParam(qv))
                rep = thm31_harness(p, CertSpec(CertProperty.QLOGCM, max_order=4))
                assert rep.verdict is Verdict.CONSISTENT, (qv, alpha, beta)
        witness_pts = [1e-6 * (50.0 / 1e-6) ** (i / 199.0) for i in range(200)]
        for alpha in (-1.0, -0.5, 0.0, 0.25, 0.5):
            for beta in (1.0, 1.5, 2.0, 2.5, 3.0):
                for t in witness_pts:
                    assert g_ab(t, alpha, beta) > 0.0
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.2f} s"


def test_07_gamma_ratio_monotonicity():
    with criterion(7, "gamma-ratio QCM harness, 3 shift pairs x q in {0.5, 0.9} at N=5; ((1),(2)) equals 1/[x+1] to 1e-10"):
        pairs = (((1.0,), (2.0,)), ((1.0, 2.0), (2.0, 3.0)), ((0.5, 1.0), (1.0, 1.5)))
        for qv in (0.5, 0.9):
            q = QParam(qv)
            for a, b in pairs:
                rp = RatioParams(a, b)
                rep = thm32_harness(rp, q, CertSpec(CertProperty.QCM, max_order=5))
                assert rep.verdict is Verdict.CONSISTENT, (qv, a, b)
        rp = RatioParams((1.0,), (2.0,))
        for i in range(1, 21):
            x = 0.25 * i
            assert rel_ok(g_ratio(x, rp, Q5), 1.0 / q_number(x + 1.0, Q5), 1e-10)


def test_08_bernstein_transform_characterization():
    with criterion(8, "Bernstein/transform two-sided checks pass for 3 functions at t in {0.5, 1, 2}; square reports the expected violation"):
        ts = (0.5, 1.0, 2.0)
        spec = CertSpec(CertProperty.QCM, max_order=6)
        for f in (lambda x: x, lambda x: 2.0, lambda x: 1.0 - eq_power(-x, Q5)):
            rep = bernstein_iff_check(f, ts, Q5, spec)
            assert rep.f_report.verdict is Verdict.CONSISTENT
            assert all(r.verdict is Verdict.CONSISTENT for _, r in rep.cm_reports)
            assert rep.agree
        neg = bernstein_iff_check(lambda x: x * x, ts, Q5, spec)
        assert neg.f_report.verdict is Verdict.VIOLATED
        assert neg.f_report.counterexamples[0].n == 2
        assert neg.flagged


def test_09_certifier_falsifiability_and_determinism():
    with criterion(9, "identity/QCM violated at (n=1, value -1); reports byte-identical across runs"):
        spec = CertSpec(CertProperty.QCM, max_order=6)
        rep = certify(lambda x: x, Q5, spec)
        assert rep.verdict is Verdict.VIOLATED
        first = rep.counterexamples[0]
        assert first.n == 1 and first.value == -1.0 and first.x == rep.grid[0]
        again = certify(lambda x: x, Q5, spec)
        assert report_to_json(rep) == report_to_json(again)


def test_10_measure_layer():
    with criterion(10, "convolution algebra to 1e-12 on a seeded corpus; POWER-kernel factorization; semigroup pass/fail"):
        rng = random.Random(20240811)
        measures = []
        for _ in range(8):
            n = rng.randint(1, 8)
            measures.append(
                DiscreteMeasure.from_pairs(
                    [(rng.uniform(0.0, 3.0), rng.uniform(0.05, 1.0)) for _ in range(n)]
                )
            )
        for mu in measures[:4]:
            for nu in measures[4:]:
                conv = q_convolve(mu, nu)
                assert rel_ok(conv.mass, mu.mass * nu.mass, 1e-12)
                ba = q_convolve(nu, mu)
                assert len(conv) == len(ba)
                for (tl, wl), (tr, wr) in zip(conv.pairs(), ba.pairs()):
                    assert abs(tl - tr) <= 1e-12
                    assert rel_ok(wl, wr, 1e-12)
        mu, nu, rho = measures[:3]
        left = q_convolve(q_convolve(mu, nu), rho)
        right = q_convolve(mu, q_convolve(nu, rho))
        assert len(left) == len(right)
        for (tl, wl), (tr, wr) in zip(left.pairs(), right.pairs()):
            assert abs(tl - tr) <= 1e-12
            assert rel_ok(wl, wr, 1e-12)

        a, b, lam = 0.8, 1.7, 1.25
        conv = q_convolve(DiscreteMeasure.delta(a), DiscreteMeasure.delta(b))
        lhs = q_laplace(conv, lam, Q5, KernelKind.POWER_E)
        rhs = q_laplace(DiscreteMeasure.delta(a), lam, Q5, KernelKind.POWER_E) * q_laplace(
            DiscreteMeasure.delta(b), lam, Q5, KernelKind.POWER_E
        )
        assert abs(lhs - rhs) <= 1e-12

        lams = (0.0, 0.5, 1.0, 2.0)
        ts = (1.0, 2.0, 3.0)
        good = {float(t): DiscreteMeasure.delta(0.5 * t) for t in (1, 2, 3, 4, 5, 6)}
        assert semigroup_check(good, ts, lams, Q5, KernelKind.POWER_E, 1e-12).passed
        broken = {
            float(t): DiscreteMeasure.delta(float(t) + (0.0 if t <= 3 else 0.1))
            for t in (1, 2, 3, 4, 5, 6)
        }
        report = semigroup_check(broken, ts, lams, Q5, KernelKind.POWER_E, 1e-12)
        assert not report.passed
        assert report.max_deviation > 0.0
