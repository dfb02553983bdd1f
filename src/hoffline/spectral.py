"""Exact smallest-eigenvalue certification against the threshold -1-sqrt(2).

A Hoffman graph H is measured through its *special matrix* B(H): a
symmetric integer matrix indexed by the slim vertices with diagonal
entries -|fat neighbours of x| and off-diagonal entries
A_s(x, y) - |common fat neighbours of x and y|.  For a slim graph this is
just the adjacency matrix.  The smallest eigenvalue of B(H) is written
lambda_min(H); the class of slim {H2, H3, H5}-line graphs is governed by
its position relative to tau = -1 - sqrt(2), a root of x^2 + 2x - 1.

Since tau is irrational, every threshold comparison here is exact:

  * the characteristic polynomial is computed over the integers with the
    Berkowitz (division-free) recurrence;
  * the number of eigenvalues strictly below tau is a Sturm-chain sign
    variation count, with the chain evaluated inside Q(sqrt(2)) — a value
    a + b*sqrt(2) has a computable exact sign via a^2 versus 2 b^2;
  * when x^2 + 2x - 1 divides the square-free part, tau itself is an
    eigenvalue, giving exact equality witnesses.

``smallest_eigenvalue`` also produces a rational interval bracketing
lambda_min to a configurable width (default 1e-9).  Monic integer
polynomials only have integer rational roots, so after splitting those
off exactly the remaining bisection never lands on a root and plain
Sturm counts apply.  Floating point is never consulted; the test suite
cross-checks the intervals against a floating eigensolver.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .core import HoffmanGraphError


class EmptyGraph(HoffmanGraphError):
    """Eigenvalues need at least one slim vertex."""


class CertificationError(HoffmanGraphError):
    """An exact identity the certification relies on failed to hold."""


def _require(ok, what):
    # an explicit raise, not ``assert``: ``python -O`` strips asserts
    if not ok:
        raise CertificationError(what)


#: minimal polynomial of tau = -1 - sqrt(2), low-degree-first: x^2 + 2x - 1
_TAU_MIN_POLY = (-1, 2, 1)


# ---------------------------------------------------------------------------
# Special matrix and characteristic polynomial
# ---------------------------------------------------------------------------


def special_matrix(g):
    """Integer symmetric matrix on the slim vertices of ``g``."""
    s = g.slim_count
    rows = []
    for x in range(s):
        fx = g.fat_neighbors(x)
        row = []
        for y in range(s):
            if x == y:
                row.append(-fx.bit_count())
            else:
                common = (fx & g.fat_neighbors(y)).bit_count()
                row.append(int(g.adjacent(x, y)) - common)
        rows.append(row)
    return rows


def char_poly(matrix):
    """Characteristic polynomial det(xI - M), exact over the integers.

    Berkowitz recurrence (no divisions).  Returns coefficients
    low-degree-first; the leading coefficient is 1.
    """
    n = len(matrix)
    if n == 0:
        return (1,)
    vec = [1, -matrix[0][0]]  # leading-first for the recurrence
    for i in range(1, n):
        row = matrix[i][:i]
        col = [matrix[r][i] for r in range(i)]
        sub = [matrix[r][:i] for r in range(i)]
        t = [1, -matrix[i][i]]
        v = col[:]
        for _ in range(i):
            t.append(-sum(row[j] * v[j] for j in range(i)))
            v = [sum(sub[r][c] * v[c] for c in range(i)) for r in range(i)]
        new = [0] * (i + 2)
        for k in range(i + 2):
            acc = 0
            for j in range(max(0, k - len(t) + 1), min(k, len(vec) - 1) + 1):
                acc += t[k - j] * vec[j]
            new[k] = acc
        vec = new
    return tuple(reversed(vec))


# ---------------------------------------------------------------------------
# Polynomial arithmetic (coefficients low-degree-first)
# ---------------------------------------------------------------------------


def _trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _degree(p):
    return len(p) - 1


def _is_zero(p):
    return all(c == 0 for c in p)


def _derivative(p):
    if len(p) <= 1:
        return [0]
    return [Fraction(i) * c for i, c in enumerate(p)][1:]


def _divmod_poly(a, b):
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    b = _trim(b)
    if _is_zero(b):
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    r = a[:]
    db = _degree(b)
    lead = b[-1]
    while not _is_zero(r) and _degree(_trim(r)) >= db:
        r = _trim(r)
        shift = _degree(r) - db
        coef = r[-1] / lead
        q[shift] += coef
        for i in range(len(b)):
            r[shift + i] -= coef * b[i]
        r = r[:-1] if r and r[-1] == 0 else r
    return _trim(q), _trim(r)


def _gcd_poly(a, b):
    a = _trim([Fraction(c) for c in a])
    b = _trim([Fraction(c) for c in b])
    while not _is_zero(b):
        _, r = _divmod_poly(a, b)
        a, b = b, _trim(r)
    if _is_zero(a):
        return [Fraction(1)]
    lead = a[-1]
    return [c / lead for c in a]


def square_free(p):
    """The radical of ``p``: same roots, multiplicity one, monic."""
    p = _trim([Fraction(c) for c in p])
    if _degree(p) <= 1:
        lead = p[-1]
        return [c / lead for c in p] if lead else p
    g = _gcd_poly(p, _derivative(p))
    q, r = _divmod_poly(p, g)
    _require(_is_zero(r), "gcd(p, p') does not divide p")
    lead = q[-1]
    return [c / lead for c in q]


def sturm_chain(p):
    chain = [_trim([Fraction(c) for c in p])]
    d = _derivative(chain[0])
    if not _is_zero(d):
        chain.append(_trim(d))
        while _degree(chain[-1]) > 0:
            _, r = _divmod_poly(chain[-2], chain[-1])
            r = _trim(r)
            if _is_zero(r):
                break
            chain.append([-c for c in r])
    return chain


def _variations(signs):
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def _sign_at(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return (acc > 0) - (acc < 0)


def _sign_at_neg_inf(p):
    lead = p[-1]
    s = (lead > 0) - (lead < 0)
    return s if _degree(p) % 2 == 0 else -s


# -- arithmetic in Q(sqrt(2)): values are pairs (a, b) meaning a + b*sqrt(2)


def _qsqrt2_sign(a, b):
    if a == 0 and b == 0:
        return 0
    if a >= 0 and b >= 0:
        return 1
    if a <= 0 and b <= 0:
        return -1
    s = a * a - 2 * b * b
    if a > 0:  # b < 0
        return 1 if s > 0 else -1
    return 1 if s < 0 else -1  # a < 0, b > 0


def _eval_at_tau(p):
    """p(-1 - sqrt(2)) as a pair (a, b) = a + b*sqrt(2)."""
    a, b = Fraction(0), Fraction(0)
    for c in reversed(p):
        # (a + b r)(-1 - r) + c  with r = sqrt(2)
        a, b = -a - 2 * b + c, -a - b
    return a, b


def _sign_at_tau(p):
    return _qsqrt2_sign(*_eval_at_tau(p))


def count_eigenvalues_below_threshold(poly):
    """Number of roots of ``poly`` strictly below tau = -1 - sqrt(2).

    Exact: if tau is itself a root, the square-free part is deflated by
    x^2 + 2x - 1 first (the other root -1 + sqrt(2) lies above tau).
    """
    p = square_free(poly)
    if _eval_at_tau(p) == (0, 0):
        q, r = _divmod_poly(p, _TAU_MIN_POLY)
        _require(_is_zero(r), "x^2 + 2x - 1 does not divide a polynomial vanishing at tau")
        p = q
    if _degree(p) == 0:
        return 0
    chain = sturm_chain(p)
    v_lo = _variations([_sign_at_neg_inf(q) for q in chain])
    v_tau = _variations([_sign_at_tau(q) for q in chain])
    return v_lo - v_tau


def threshold_is_root(poly):
    """Does tau = -1 - sqrt(2) satisfy ``poly`` exactly?"""
    return _eval_at_tau([Fraction(c) for c in poly]) == (0, 0)


# ---------------------------------------------------------------------------
# Certified eigenvalue interval
# ---------------------------------------------------------------------------


class Verdict(enum.Enum):
    BELOW = "below"
    AT_OR_ABOVE = "at_or_above"


@dataclass(frozen=True)
class EigenInterval:
    """Certified bracket lower <= lambda_min <= upper.

    ``poly`` is the exact characteristic polynomial the bracket was
    derived from; threshold comparisons go back to it, so they do not
    depend on the bracket width.
    """

    lower: Fraction
    upper: Fraction
    poly: tuple[int, ...]

    @property
    def width(self):
        return self.upper - self.lower


DEFAULT_TOLERANCE = Fraction(1, 10**9)


def _count_leq(chain, x):
    """Roots <= x of the square-free polynomial behind ``chain``;
    requires that x itself is not a root."""
    v_lo = _variations([_sign_at_neg_inf(q) for q in chain])
    v_x = _variations([_sign_at(q, x) for q in chain])
    return v_lo - v_x


def smallest_root_interval(poly, tolerance=DEFAULT_TOLERANCE):
    """Bracket the smallest real root of a monic integer polynomial whose
    roots are all real.  Width <= tolerance (zero when the root is an
    integer)."""
    p = square_free(poly)
    if _degree(p) == 0:
        raise EmptyGraph("constant polynomial has no roots")
    bound = 1 + max(abs(c) for c in p[:-1]) / p[-1]
    # split off integer roots: a monic integer polynomial has no other
    # rational roots, so the remaining bisection never meets one
    int_roots = []
    work = p
    k = -int(bound) - 1
    while k <= int(bound) + 1 and _degree(work) > 0:
        if _sign_at(work, Fraction(k)) == 0:
            int_roots.append(k)
            work, r = _divmod_poly(work, [-k, 1])
            _require(_is_zero(r), "x - k does not divide a polynomial vanishing at k")
            continue  # possible repeated... square-free, so move on
        k += 1
    best_int = min(int_roots) if int_roots else None
    if _degree(work) == 0:
        _require(best_int is not None, "constant polynomial left without a root")
        return Fraction(best_int), Fraction(best_int)
    chain = sturm_chain(work)
    lo = Fraction(-int(bound) - 1)
    hi = Fraction(int(bound) + 1)
    _require(_count_leq(chain, lo) == 0, "a root lies below the lower root bound")
    _require(_count_leq(chain, hi) >= 1, "no root lies below the upper root bound")
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        if _count_leq(chain, mid) >= 1:
            hi = mid
        else:
            lo = mid
    if best_int is not None:
        # decide exactly which side of the integer root the irrational
        # minimum lies on; they can never coincide
        if _count_leq(chain, Fraction(best_int)) >= 1:
            return lo, hi
        return Fraction(best_int), Fraction(best_int)
    return lo, hi


def smallest_eigenvalue(g, tolerance=DEFAULT_TOLERANCE):
    """Certified bracket of lambda_min of the special matrix of ``g``
    (the adjacency matrix when ``g`` is slim)."""
    if g.slim_count == 0:
        raise EmptyGraph("no slim vertices")
    poly = char_poly(special_matrix(g))
    lo, hi = smallest_root_interval(poly, tolerance)
    return EigenInterval(lo, hi, poly)


def compare_threshold(interval):
    """Certified comparison of lambda_min with tau = -1 - sqrt(2).

    Never indeterminate: the count of eigenvalues strictly below tau is
    computed exactly from the characteristic polynomial.
    """
    below = count_eigenvalues_below_threshold(interval.poly)
    return Verdict.BELOW if below > 0 else Verdict.AT_OR_ABOVE


def equals_threshold(interval):
    """Is lambda_min exactly tau?  True iff tau is a root and no root
    lies below it."""
    return (
        threshold_is_root(interval.poly)
        and count_eigenvalues_below_threshold(interval.poly) == 0
    )
