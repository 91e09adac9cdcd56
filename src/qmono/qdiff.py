"""Exact higher-order q-differentiation of black-box functions.

D_q f(x) = (f(qx) - f(x)) / (x(q-1)) is a two-point formula: no limits and
no step-size choice.  Iterating it only ever samples f on the geometric
points q^j x, so the n-th q-derivative at x comes from a triangular
difference table over n+1 samples with O(n^2) arithmetic.  On top of the
table sit the q-partial Bell polynomials and the q-analogue composition
(Faa di Bruno) rule for D_q^n of g(h(x)).

One table covers a whole set of roots x_i (a certification grid, the
single x of `q_derive_n`, or the prefix roots x, qx, ..., q^(n-1) x of the
composition rule): it forms the lattice q^j x_i once, samples f on it root
by root and then forms each order for every root at once, dividing by the
same lattice.  The Bell polynomials and the composition rule share one
composition sum.

One lattice per call: `QDiffTable.build` is three steps, the lattice, f's
samples on it, the table of those samples (the private `_Lattice`).  A
caller that needs several tables over one lattice (the certifier's
composite checks) forms the lattice once, samples each function once, and
tables a function of f, such as g o f, from f's samples.  Samples are
shared within a call only; nothing is retained across calls, so a table
depends only on f, q, its roots and the order, never on which tables were
built before it.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, NamedTuple, Sequence

from .qcore import DomainError, EvaluationError, QParam, _finite_number, _shown, q_number

__all__ = [
    "RealFunction",
    "MAX_TABLE_ORDER",
    "QDiffTable",
    "q_derive",
    "q_derive_n",
    "q_bell",
    "q_faa_di_bruno",
    "q_faa_di_bruno_gap",
]

#: Pointwise-evaluable, deterministic map from positive reals to reals.
RealFunction = Callable[[float], float]

#: Hard cap on black-box q-differentiation order: the difference table loses
#: roughly one decimal digit per order as q -> 1.
MAX_TABLE_ORDER = 8


class QDiffTable(NamedTuple):
    """q-difference table of f over the roots x_0, ..., x_{P-1}.

    rows[m][i] holds (D_q^m f)(x_i) for m = 0..order, so row 0 is the raw
    samples f(x_i).  Each root's order-m value comes from its own samples
    f(q^j x_i), j = 0..m, by the recurrence

        D^m(q^j x) = [ D^(m-1)(q^(j+1) x) - D^(m-1)(q^j x) ] / (q^j x (q - 1)),

    run for every root at once, one order after another; the entries at the
    lattice points q^j x_i, j >= 1, are not kept.  The lattice points are
    built by iterated multiplication (x_i, q*x_i, ...) so each value
    reproduces a naive recursive D_q evaluation bit for bit.

    A companion condition table runs the same recurrence with |a| + |b| in
    place of a - b, seeded with the sample magnitudes: mag_rows[m][i] bounds
    the magnitude that may have cancelled to produce rows[m][i].  The
    certifier counts rows[n][i] as numerically zero when it is at most
    tol_rel * mag_rows[n][i]: a value that is pure correlated rounding noise
    says nothing about its own error; its propagated magnitude does.
    """

    points: tuple[float, ...]
    q: QParam
    rows: tuple[tuple[float, ...], ...]
    mag_rows: tuple[tuple[float, ...], ...]

    @classmethod
    def build(
        cls, f: RealFunction, points: Sequence[float], q: QParam, order: int
    ) -> "QDiffTable":
        """Sample f root by root, x_i then q*x_i up to q^order*x_i, checking
        each sample as it comes: the first one that is not a finite number
        raises EvaluationError naming its point, and f sees no later point.
        A root that is not a finite int or float raises DomainError naming
        it before f sees any sample.
        A divisor q^j x_i (q - 1), j < order, that underflows to 0 raises
        DomainError naming x_i and j before any division."""
        lattice = _Lattice(points, q, order)
        # the lattice is this call's alone: f's samples replace its points
        return lattice.table(lattice.sample(f, lattice.points))

    @property
    def order(self) -> int:
        return len(self.rows) - 1

    def value(self, m: int, i: int = 0) -> float:
        """(D_q^m f)(x_i)."""
        return self.rows[m][i]


class _Lattice:
    """The q-lattice of a table over the roots x_0, ..., x_{P-1} to order N,
    and the three steps of `QDiffTable.build`: this lattice, the samples on
    it, the table of those samples.

    Column-major: entry j*P + i of `points` is q^j x_i (iterated
    products), and entries j < N give the divisors q^j x_i (q - 1).  A
    sample list holds a value per entry, so each order is one pass over
    every root's entries, and each order has one column fewer than the last.
    Within one call every table over the same roots, q and N is formed from
    one lattice, and a table of a function of f (g o f, Log_q f,
    E_q(1)^(-t f)) from a copy of f's samples, without sampling f again.
    A caller that keeps the lattice samples a copy of `points`.
    """

    __slots__ = ("roots", "q", "order", "npts", "points", "dens", "abs_dens")

    def __init__(self, points: Sequence[float], q: QParam, order: int) -> None:
        roots = tuple([x if type(x) is float and x - x == 0.0 else _root(x) for x in points])
        if 0.0 in roots:
            raise DomainError("q-derivative is undefined at x = 0")
        if order < 0:
            raise DomainError(f"table order must be nonnegative, got {order}")
        if order > MAX_TABLE_ORDER:
            raise DomainError(
                f"table order {order} exceeds the cap {MAX_TABLE_ORDER}"
            )
        qq = q.q
        npts = len(roots)
        vals = list(roots)
        for _ in range(order):
            vals += [qq * p for p in vals[-npts:]]
        qm1 = qq - 1.0
        self.roots, self.q, self.order, self.npts, self.points = roots, q, order, npts, vals
        self.dens = [p * qm1 for p in vals[: order * npts]]
        self.abs_dens = list(map(abs, self.dens))

    def sample(self, f: RealFunction, vals: list[float]) -> list[float]:
        """Replace each entry vals[k], the argument of f at lattice point k
        (the point itself, or an inner function's sample there), by f at it,
        root by root, checking each value as it comes: the first one that is
        not a finite number raises EvaluationError naming its lattice point,
        and f sees no later argument.  Returns vals.

        A finite value of class exactly float is taken as it is, by one
        inline test; any other value (an int or bool, a float subclass, a
        non-number, inf or nan) goes through `_checked`."""
        points, npts = self.points, self.npts
        for i in range(npts):
            for k in range(i, len(vals), npts):
                v = f(vals[k])
                vals[k] = v if type(v) is float and v - v == 0.0 else _checked(v, points[k])
        return vals

    def table(self, samples: list[float]) -> QDiffTable:
        """The table of samples taken on this lattice.  DomainError naming
        x_i and j where a divisor q^j x_i (q - 1) underflows to 0."""
        dens, abs_dens, npts = self.dens, self.abs_dens, self.npts
        if 0.0 in dens:
            j, i = divmod(dens.index(0.0), npts)
            raise DomainError(
                f"q-derivative is undefined where the divisor q^j x (q - 1) underflows "
                f"to 0: root x = {self.roots[i]!r}, j = {j} (q = {self.q.q!r})"
            )
        vals = samples
        mags = list(map(abs, vals))
        rows = [tuple(vals[:npts])]
        mag_rows = [tuple(mags[:npts])]
        for _ in range(self.order):
            vals = [(b - a) / d for a, b, d in zip(vals, vals[npts:], dens)]
            mags = [(b + a) / d for a, b, d in zip(mags, mags[npts:], abs_dens)]
            rows.append(tuple(vals[:npts]))
            mag_rows.append(tuple(mags[:npts]))
        return QDiffTable(self.roots, self.q, tuple(rows), tuple(mag_rows))


def _root(x: object) -> float:
    """float(x) for a finite int or float root; DomainError naming x
    otherwise, before f sees any sample."""
    if _finite_number(x):
        return float(x)
    raise DomainError(f"table roots must be finite, got {_shown(x)}")


def _checked(v: object, x: float) -> float:
    """float(v) for a finite int or float v, sampled at x; EvaluationError
    naming x otherwise, also for an int too large for a float."""
    if _finite_number(v):
        return float(v)
    raise EvaluationError(f"function not finite at x = {x!r}: got {_shown(v)}")


def q_derive(f: RealFunction, x: float, q: QParam) -> float:
    """First q-derivative (f(qx) - f(x)) / (x(q-1)); x = 0 is rejected."""
    if x == 0.0:
        raise DomainError("q-derivative is undefined at x = 0")
    return (f(q.q * x) - f(x)) / (x * (q.q - 1.0))


def q_derive_n(f: RealFunction, x: float, q: QParam, n: int) -> float:
    """n-th q-derivative at x from a table rooted at (x,); n = 0 returns f(x).

    Costs n+1 evaluations of f plus O(n^2) arithmetic.
    """
    if n < 0:
        raise DomainError(f"derivative order must be nonnegative, got {n}")
    if n == 0:
        return f(x)
    return QDiffTable.build(f, (x,), q, n).value(n)


def _compositions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Compositions of n into k parts >= 1, in lexicographic order.

    There are C(n-1, k-1) of them; the fixed order makes every sum in this
    module reproducible bit for bit under serial accumulation.
    """
    if k == 1:
        yield (n,)
        return
    for first in range(1, n - k + 2):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def _qnum_qfact(n: int, q: QParam) -> tuple[list[float], list[float]]:
    """[m] for m = 0..n and [m]! built by ascending multiplication."""
    qnum = [0.0] * (n + 1)
    qfact = [1.0] * (n + 1)
    for m in range(1, n + 1):
        qnum[m] = q_number(float(m), q)
        qfact[m] = qfact[m - 1] * qnum[m]
    return qnum, qfact


def _bell_sum(n: int, k: int, q: QParam, part: Callable[[int, int], float]) -> float:
    """Sum over the compositions b_1 + ... + b_k = n (b_i >= 1) of

        [n]! prod_j part(b_j, b_1+...+b_{j-1}) / ( prod_j [b_1+...+b_j] * prod_j [b_j - 1]! ),

    each term formed as [n]! / denominator, then times each part in turn:
    the composition sum of q_bell and q_faa_di_bruno."""
    qnum, qfact = _qnum_qfact(n, q)
    terms = []
    for comp in _compositions(n, k):
        denom = 1.0
        prefix = 0
        for b in comp:
            prefix += b
            denom *= qnum[prefix]
        for b in comp:
            denom *= qfact[b - 1]
        term = qfact[n] / denom
        prefix = 0
        for b in comp:
            term *= part(b, prefix)
            prefix += b
        terms.append(term)
    return math.fsum(terms)


def q_bell(n: int, k: int, q: QParam, xs: Sequence[float]) -> float:
    """q-partial Bell polynomial B_{n,k,q}(x_1, ..., x_{n-k+1}).

    Exact finite sum over the compositions b_1 + ... + b_k = n (b_i >= 1):

        sum  [n]! prod_j x_{b_j} / ( prod_j [b_1+...+b_j] * prod_j [b_j - 1]! ).

    The single-composition cases telescope: B_{n,1} = x_n and B_{n,n} = x_1^n.
    """
    if not 1 <= k <= n:
        raise DomainError(f"q-Bell needs 1 <= k <= n, got n={n}, k={k}")
    if len(xs) < n - k + 1:
        raise DomainError(
            f"q-Bell needs at least {n - k + 1} arguments, got {len(xs)}"
        )
    return _bell_sum(n, k, q, lambda b, prefix: xs[b - 1])


def q_faa_di_bruno(
    gk: Callable[[int], RealFunction],
    h: RealFunction,
    x: float,
    q: QParam,
    n: int,
) -> float:
    """q-analogue composition rule for D_q^n of g(h(x)), evaluated literally.

    The caller supplies the outer derivatives as an indexed family
    gk(k) = D_q^k g; the inner derivatives D_q^{b_j} h are taken at the
    prefix-shifted points q^{b_1+...+b_{j-1}} x.  They all come from one
    table of h over the prefix roots x, qx, ..., q^(n-1) x (iterated
    products), whose entry rows[b][s] is (D_q^b h)(q^s x), with rows[0][0]
    = h(x): n(n+1) evaluations of h.  Each term carries the same
    q-factorial weight as q_bell.

    The formula is applied exactly as stated; for nonlinear inner h its
    agreement with a direct D_q^n of the composition is not guaranteed.
    Use q_faa_di_bruno_gap to measure the discrepancy.

    The value can also have the wrong sign, with nothing to flag it: the
    composition sum can cancel, and unlike `certify` it carries no
    condition row or numerical-zero band.  At n = 8,
    q = 0.27714843014646184, x = 0.32647774193016144, h = 1/(1+x) and
    gk(k) = y -> (k+1)/(1+y^2) it returns -42358.2, where the same sum at
    50 digits is 1225.76; for a linear h, the rows b >= 2 it multiplies
    are rounding noise rather than 0.  Check a value's sign against the
    direct derivative with q_faa_di_bruno_gap before relying on it.
    """
    if n < 1:
        raise DomainError(f"composition rule needs n >= 1, got {n}")
    roots = [x]
    for _ in range(n - 1):
        roots.append(q.q * roots[-1])
    rows = QDiffTable.build(h, roots, q, n).rows
    return math.fsum(
        gk(k)(rows[0][0]) * _bell_sum(n, k, q, lambda b, prefix: rows[b][prefix])
        for k in range(1, n + 1)
    )


def q_faa_di_bruno_gap(
    gk: Callable[[int], RealFunction],
    h: RealFunction,
    composed: RealFunction,
    x: float,
    q: QParam,
    n: int,
) -> tuple[float, float, float]:
    """Diagnostic: (direct, formula, |direct - formula|) for D_q^n g(h(x)).

    `composed` must evaluate x -> g(h(x)).  For linear h the gap is pure
    rounding; for general h it is reported, not judged.
    """
    direct = q_derive_n(composed, x, q, n)
    formula = q_faa_di_bruno(gk, h, x, q, n)
    return direct, formula, abs(direct - formula)
