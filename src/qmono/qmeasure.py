"""Finitely supported measures on the half-line and their q-transforms.

Jackson q-integration over the geometric lattice {q^n : n in Z}, q-Laplace
transforms under the two kernels in use (the q-exponential E_q(-lambda t)
and the ordinary power E_q(1)^(-lambda t)), the q-convolution product, and
a semigroup checker for families pi_t with pi_t * pi_s = pi_{t+s}.

A transform costs one pass over the atoms per lambda: POWER_E costs one exp
per atom, JACKSON_E a q_exp series per atom (a factor product far out),
which is why it dominates.

Measures are immutable after construction; every operation returns a new
value.  Atom locations are arbitrary nonnegative reals: pairwise sums of
lattice points leave the lattice, so closure under convolution forces the
larger support set.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import repeat
from operator import mul
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from ._serialize import format17, keyed
from .qcore import (
    DomainError,
    EvaluationError,
    ExpKind,
    InputError,
    QParam,
    _eq_powers,
    _finite_number,
    _shown,
    eq_power,
    q_exp,
)

__all__ = [
    "MERGE_TOL",
    "DiscreteMeasure",
    "KernelKind",
    "JacksonIntegralResult",
    "jackson_integral",
    "jackson_integral_info",
    "q_laplace",
    "q_convolve",
    "semigroup_transform",
    "SemigroupEntry",
    "SemigroupReport",
    "semigroup_check",
    "measure_to_text",
    "measure_from_text",
]

#: Atoms closer than MERGE_TOL * (1 + |t|) are merged: pairwise sums of
#: q-powers collide in floating point.
MERGE_TOL = 1e-12

#: Total-mass slack inside which a measure counts as a probability measure.
PROBABILITY_TOL = 1e-12


class DiscreteMeasure(NamedTuple("DiscreteMeasure", [("locations", tuple[float, ...]),
                                                     ("weights", tuple[float, ...])])):
    """Finitely supported nonnegative measure sum_i w_i * delta(t_i).

    Construction sorts the atoms, merges near-duplicate locations by weight
    addition, and validates locations and weights as finite and
    nonnegative, the weights again after merging.
    """

    __slots__ = ()

    def __new__(cls, locations: Sequence[float], weights: Sequence[float]) -> "DiscreteMeasure":
        locs, wts = tuple(locations), tuple(weights)
        if len(locs) != len(wts):
            raise InputError("locations and weights must have equal length")
        for t in locs:
            if not (_finite_number(t) and t >= 0.0):
                raise InputError(f"atom location must be finite and >= 0, got {_shown(t)}")
        for w in wts:
            if not (_finite_number(w) and w >= 0.0):
                raise InputError(f"atom weight must be finite and >= 0, got {_shown(w)}")
        pairs = sorted(zip(map(float, locs), map(float, wts)))
        merged_t: list[float] = []
        merged_w: list[float] = []
        for t, w in pairs:
            if merged_t and t - merged_t[-1] <= MERGE_TOL * (1.0 + abs(merged_t[-1])):
                merged_w[-1] += w
                if not math.isfinite(merged_w[-1]):
                    raise InputError(f"merged atom weight at t = {merged_t[-1]!r} overflows")
            else:
                merged_t.append(t)
                merged_w.append(w)
        return super().__new__(cls, tuple(merged_t), tuple(merged_w))

    @classmethod
    def _make(cls, fields: Iterable) -> "DiscreteMeasure":
        # behind `_replace`: namedtuple's own checks len(), which counts atoms here
        return cls(*fields)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "DiscreteMeasure":
        pairs = list(pairs)
        return cls(tuple(t for t, _ in pairs), tuple(w for _, w in pairs))

    @classmethod
    def delta(cls, t: float, weight: float = 1.0) -> "DiscreteMeasure":
        return cls((t,), (weight,))

    def pairs(self) -> Iterator[tuple[float, float]]:
        return iter(zip(self.locations, self.weights))

    def __len__(self) -> int:
        return len(self.locations)

    @property
    def mass(self) -> float:
        return math.fsum(self.weights)

    @property
    def is_probability(self) -> bool:
        return abs(self.mass - 1.0) <= PROBABILITY_TOL


class KernelKind(Enum):
    JACKSON_E = "jackson_e"  # E_q(-lambda t): for q < 1 it changes sign at lambda t = 1/(1-q)
    POWER_E = "power_e"      # E_q(1)^(-lambda t): factorizes over t


class JacksonIntegralResult(NamedTuple):
    """Truncated Jackson sum with the magnitudes of the last included terms
    at both ends of the lattice window (small-t and large-t)."""

    value: float
    small_end_term: float
    large_end_term: float

    def tails_ok(self, rel: float = 1e-14) -> bool:
        """A-posteriori truncation check against the sum itself."""
        bound = rel * abs(self.value)
        return self.small_end_term <= bound and self.large_end_term <= bound


def jackson_integral_info(
    f: Callable[[float], float], q: QParam, n_lo: int, n_hi: int
) -> JacksonIntegralResult:
    """Bilateral Jackson sum (1-q) sum_{n=-n_hi}^{n_lo} q^n f(q^n).

    n_lo controls the small-t end (t = q^n_lo) and n_hi the large-t end
    (t = q^-n_hi), which must be a float: a DomainError names a window
    whose large end overflows.  Non-finite values of f, or of a term, abort
    the sum; the terms are added by math.fsum.
    """
    if not q.is_sub_one:
        raise DomainError("Jackson sums need 0 < q < 1")
    if n_lo < -n_hi:
        raise DomainError(f"empty Jackson window: n_lo={n_lo}, n_hi={n_hi}")
    qq = q.q
    try:
        qq**-n_hi
    except OverflowError:
        raise DomainError(
            f"the Jackson window n in [-n_hi, n_lo] = [{-n_hi}, {n_lo}] reaches "
            f"t = q^-n_hi, which overflows a float at n_hi = {n_hi} (q = {qq}); lower n_hi"
        ) from None
    one_minus = 1.0 - qq
    terms = []
    for n in range(n_lo, -n_hi - 1, -1):
        t = qq**n
        ft = f(t)
        if not _finite_number(ft):
            raise EvaluationError(f"integrand not finite at t = q^{n} = {t!r}: got {_shown(ft)}")
        term = one_minus * t * ft
        if not math.isfinite(term):
            raise EvaluationError(f"Jackson sum term (1-q) t f(t) overflows at t = q^{n} = {t!r}")
        terms.append(term)
    return JacksonIntegralResult(math.fsum(terms), abs(terms[0]), abs(terms[-1]))


def jackson_integral(f: Callable[[float], float], q: QParam, n_lo: int, n_hi: int) -> float:
    """Value of the truncated Jackson sum; see jackson_integral_info."""
    return jackson_integral_info(f, q, n_lo, n_hi).value


def q_laplace(
    mu: DiscreteMeasure,
    lam: float,
    q: QParam,
    kernel: KernelKind,
) -> float:
    """Transform sum_i w_i K(lambda, t_i) under the chosen kernel.

    At lambda = 0 both kernels are 1, so the transform returns the total
    mass.  Only the POWER_E kernel factorizes over t; the JACKSON_E kernel
    generally does not, which is why every call names its kernel.

    The sum is one math.fsum of w_i K(lambda, t_i) in atom order.  POWER_E
    takes every atom's kernel from the list form `_eq_powers`, which never
    fails at lambda >= 0; JACKSON_E calls q_exp per atom as fsum asks for the
    term, so the error raised is the first the sum meets: fsum's own overflow
    on the terms before a failing atom, or that atom's.
    """
    if not (_finite_number(lam) and lam >= 0.0):
        raise DomainError(f"transform parameter must be finite and >= 0, got {_shown(lam)}")
    if kernel is KernelKind.POWER_E:
        ks = _eq_powers(-lam, mu.locations, q)
    else:
        ks = map(q_exp, [-lam * t for t in mu.locations], repeat(q), repeat(ExpKind.BIG_E))
    return math.fsum(map(mul, mu.weights, ks))


def q_convolve(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    """Convolution product: atoms at all pairwise sums t_i + s_j with weights
    w_i v_j, merged on collision.  Total mass multiplies; probability times
    probability stays probability."""
    pairs = [
        (t + s, wt * ws) for t, wt in mu.pairs() for s, ws in nu.pairs()
    ]
    return DiscreteMeasure.from_pairs(pairs)


def semigroup_transform(
    f: Callable[[float], float],
    t: float,
    lam: float,
    q: QParam,
) -> float:
    """E_q(1)^(-t f(lambda)): the transform value of a convolution-semigroup
    member.  As an ordinary power it factorizes exactly over t."""
    if not (_finite_number(t) and t >= 0.0):
        raise DomainError(f"semigroup parameter must be finite and >= 0, got {_shown(t)}")
    fl = f(lam)
    if not _finite_number(fl):
        raise EvaluationError(f"exponent function not finite at lambda = {lam!r}: got {_shown(fl)}")
    return eq_power(-t * fl, q)


class SemigroupEntry(NamedTuple):
    t: float
    s: float
    lam: float
    lhs: float  # transform of family(t) * family(s)
    rhs: float  # transform of family(t+s)
    deviation: float


class SemigroupReport(NamedTuple):
    kernel: KernelKind
    tol: float
    max_deviation: float
    worst: tuple[float, float, float]  # (t, s, lambda) of the max deviation
    passed: bool
    entries: tuple[SemigroupEntry, ...]

    def to_tree(self) -> dict:
        return {
            "kind": "semigroup_report",
            "kernel": self.kernel.value,
            "tol": self.tol,
            "max_deviation": self.max_deviation,
            "worst": {"t": self.worst[0], "s": self.worst[1], "lambda": self.worst[2]},
            "passed": self.passed,
            "entries": keyed(*self.csv_rows()),
        }

    def csv_rows(self) -> tuple[tuple[str, ...], list[tuple]]:
        header = ("t", "s", "lambda", "lhs", "rhs", "deviation")
        rows = [(e.t, e.s, e.lam, e.lhs, e.rhs, e.deviation) for e in self.entries]
        return header, rows


def semigroup_check(
    family: Mapping[float, DiscreteMeasure] | Callable[[float], DiscreteMeasure],
    ts: Sequence[float],
    lams: Sequence[float],
    q: QParam,
    kernel: KernelKind,
    tol: float,
) -> SemigroupReport:
    """Check pi_t * pi_s = pi_{t+s} on the transform side.

    For every unordered pair (t, s) from ts, compares the transform of the
    convolution family(t) * family(s) against the transform of family(t+s)
    at each lambda, and reports the worst deviation against tol, which must
    be finite and >= 0.  A family member missing at some t + s, or one that
    is not a DiscreteMeasure, is an input error.
    """
    if not (_finite_number(tol) and tol >= 0.0):
        raise DomainError(f"semigroup tolerance must be finite and >= 0, got {_shown(tol)}")
    get = family.__getitem__ if isinstance(family, Mapping) else family

    def member(t: float) -> DiscreteMeasure:
        try:
            m = get(t)
        except Exception as exc:
            raise InputError(f"family has no member at t = {t!r}") from exc
        if not isinstance(m, DiscreteMeasure):
            raise InputError(f"family({t!r}) is not a DiscreteMeasure")
        return m

    entries: list[SemigroupEntry] = []
    for i, t in enumerate(ts):
        for s in ts[i:]:
            conv = q_convolve(member(t), member(s))
            target = member(t + s)
            for lam in lams:
                lhs = q_laplace(conv, lam, q, kernel)
                rhs = q_laplace(target, lam, q, kernel)
                entries.append(SemigroupEntry(t, s, lam, lhs, rhs, abs(lhs - rhs)))
    if not entries:
        raise InputError("semigroup check needs at least one (t, s) pair")
    worst_entry = entries[0]
    for e in entries:
        if e.deviation > worst_entry.deviation:
            worst_entry = e
    max_dev = worst_entry.deviation
    return SemigroupReport(
        kernel=kernel,
        tol=tol,
        max_deviation=max_dev,
        worst=(worst_entry.t, worst_entry.s, worst_entry.lam),
        passed=max_dev <= tol,
        entries=tuple(entries),
    )


def measure_to_text(mu: DiscreteMeasure) -> str:
    """Serialize as one `t w` pair per line, sorted by t, 17 significant
    digits (lossless decimal round-trip for doubles)."""
    lines = [f"{format17(t)} {format17(w)}" for t, w in mu.pairs()]
    return "\n".join(lines) + ("\n" if lines else "")


def measure_from_text(text: str) -> DiscreteMeasure:
    """Parse the measure_to_text format; blank lines and #-comments allowed."""
    pairs: list[tuple[float, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise InputError(f"measure line {lineno}: expected `t w`, got {raw!r}")
        try:
            pairs.append((float(fields[0]), float(fields[1])))
        except ValueError as exc:
            raise InputError(f"measure line {lineno}: unparsable number in {raw!r}") from exc
    return DiscreteMeasure.from_pairs(pairs)
