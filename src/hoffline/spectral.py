"""Exact smallest-eigenvalue certification against the threshold -1-sqrt(2).

A Hoffman graph H is measured through its *special matrix* B(H): a
symmetric integer matrix indexed by the slim vertices with diagonal
entries -|fat neighbours of x| and off-diagonal entries
A_s(x, y) - |common fat neighbours of x and y|.  For a slim graph this is
just the adjacency matrix.  The smallest eigenvalue of B(H) is written
lambda_min(H); the class of slim {H2, H3, H5}-line graphs is governed by
its position relative to tau = -1 - sqrt(2), a root of x^2 + 2x - 1.

All polynomial arithmetic is over the integers.  The characteristic
polynomial comes from the power sums tr(M^k), each row of M^k packed
into one integer, by Newton's identities; every division they make is
exact, and checked.  Sturm chains are primitive pseudo-remainder
sequences (Basu, Pollack & Roy, *Algorithms in Real Algebraic
Geometry*, ch. 8), each member a positive multiple of the classical
one, so sign counts agree.  Each characteristic polynomial p gets one
chain, which divided by its last member, gcd(p, p'), is a chain of the
square-free part, that part first.  The count of eigenvalues strictly
below tau evaluates it in Z[sqrt(2)], where a + b*sqrt(2) has an exact
sign via a^2 versus 2 b^2.  The sign variations count the roots at or
below tau, tau included, so one is taken off when the first member
vanishes there (equality witness).

``smallest_eigenvalue`` also brackets lambda_min in a rational interval
of the fixed width ``BRACKET_WIDTH``, 1e-9, by bisecting the square-free
part at dyadic points, a numerator over 2^k, with homogenised integer
Horner.  Each step counts the roots at or below the midpoint with the
same Sturm chain, exact also at a root: with none, the midpoint becomes
the lower end, and otherwise the upper end.  An integer least root gets
the bracket of width zero.  The bisection has two starts.  Its last
level is known in advance, and its bracket there is the one grid cell
holding the least root.  A float estimate (Laguerre's iteration)
proposes that cell; a count at its lower end and the signs at its ends
confirm it, and the bisection starts there, with the bracket it would
have reached from the Cauchy bound.  When a check fails, it starts
from the Cauchy bound.  A float only proposes a cell; integer counts
certify it.  The test suite cross-checks the intervals against a
floating eigensolver.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
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


# ---------------------------------------------------------------------------
# Special matrix and characteristic polynomial
# ---------------------------------------------------------------------------


def special_matrix(g):
    """Integer symmetric matrix on the slim vertices of ``g``: entry
    (x, y) is the adjacency of x and y less their common fat neighbours,
    which on the diagonal is -|fat neighbours of x|, since no vertex is
    its own neighbour."""
    adj = g.adj
    fats = [row >> g.slim_count for row in adj[:g.slim_count]]
    return [
        [(adj[x] >> y & 1) - (fx & fy).bit_count() for y, fy in enumerate(fats)]
        for x, fx in enumerate(fats)
    ]


def char_poly(matrix):
    """Characteristic polynomial det(xI - M), exact over the integers.

    Returns coefficients low-degree-first; the leading coefficient is 1.
    The power sums tr(M^k), k <= n, give the coefficients by Newton's
    identities, each an exact division, checked.  Each row of M^k is one
    integer, its entries in slots of a fixed width (see below).
    """
    n = len(matrix)
    if n == 0:
        return (1,)
    # An entry of M^k, k <= n, is at most n^(k-1) top^k <= (n top)^n in
    # absolute value, so it fits a slot of ``width`` bits as a signed
    # digit: a row is sum_j e_j 2^(j width) with |e_j| < half, and sums
    # of multiples of rows are the rows of sums.  Adding half to every
    # slot makes each digit an ordinary one, so a slot reads off exactly.
    top = max(abs(c) for row in matrix for c in row)
    width = ((n * top) ** n).bit_length() + 1
    half, mask = 1 << (width - 1), (1 << width) - 1
    bias = half * (((1 << (n * width)) - 1) // mask)
    # row i of M^(k+1) is the sum over the values c of row i of M of c
    # times the sum of the rows j of M^k with m_ij = c; each getter also
    # takes a 0 put after the rows, so it always returns a tuple
    picks = []
    for row in matrix:
        cols = {}
        for j, c in enumerate(row):
            if c:
                cols.setdefault(c, []).append(j)
        picks.append([(c, operator.itemgetter(n, *js)) for c, js in cols.items()])
    rows = [1 << (i * width) for i in range(n)]
    sums = []
    for _ in range(n):
        rows.append(0)
        power = []
        for pick in picks:
            acc = 0
            for c, get in pick:
                acc += c * sum(get(rows))
            power.append(acc)
        rows = power
        diagonal = (((r + bias) >> (i * width)) & mask for i, r in enumerate(rows))
        sums.append(sum(diagonal) - n * half)
    # Newton: k c_(n-k) = -(s_k + c_(n-1) s_(k-1) + ... + c_(n-k+1) s_1)
    mul = operator.mul
    coeffs = [1]
    for k in range(1, n + 1):
        acc = sums[k - 1] + sum(map(mul, coeffs[1:], reversed(sums[:k - 1])))
        c, rest = divmod(-acc, k)
        _require(rest == 0, "a Newton identity does not divide exactly")
        coeffs.append(c)
    return tuple(reversed(coeffs))


# ---------------------------------------------------------------------------
# Integer polynomial arithmetic (coefficients low-degree-first)
# ---------------------------------------------------------------------------


def _trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p or [0]


def _degree(p):
    return len(p) - 1


def _primitive(p):
    """``p`` divided by the gcd of its coefficients, a positive number."""
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _derivative(p):
    return [i * c for i, c in enumerate(p)][1:] or [0]


def _divmod_poly(a, b):
    """Quotient and remainder of ``a`` by ``b`` over the integers.  Every
    quotient coefficient must come out an integer, as it does whenever
    ``b`` is monic or ``b`` divides ``a`` (Gauss's lemma)."""
    lead, db = b[-1], _degree(b)
    r = list(a)
    q = [0] * max(1, len(r) - db)
    for shift in range(len(r) - 1 - db, -1, -1):
        coef, rest = divmod(r[shift + db], lead)
        _require(rest == 0, "inexact integer polynomial division")
        q[shift] = coef
        for i, c in enumerate(b):
            r[shift + i] -= coef * c
    return _trim(q), _trim(r[:db])


def _prem(a, b):
    """The primitive part of a positive multiple of the remainder of
    ``a`` by ``b``: the divisor is taken with a positive leading
    coefficient, and each step scales the partial remainder by it."""
    if b[-1] < 0:
        b = [-c for c in b]
    lead, db = b[-1], _degree(b)
    r = _trim(a)
    while len(r) > db and any(r):
        top = r.pop()
        shift = len(r) - db
        r = [lead * c for c in r]
        for i in range(db):
            r[shift + i] -= top * b[i]
        r = _trim(r)
    return _primitive(r)


def sturm_chain(p):
    """Sturm chain of ``p`` in integers.  Each member is a positive
    multiple of the classical member (``_prem`` scales by positive
    factors only), so all sign counts are those of the classical chain."""
    chain = [_trim(p)]
    d = _derivative(chain[0])
    if any(d):
        chain.append(_primitive(d))
        while _degree(chain[-1]) > 0:
            r = _prem(chain[-2], chain[-1])
            if not any(r):
                break
            chain.append([-c for c in r])
    return chain


def _variations(signs):
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def _sign_at(p, num, den=1):
    """Sign of p(num/den) for den > 0, by Horner on den^deg * p(num/den)."""
    acc, scale = 0, 1
    for c in reversed(p):
        acc = acc * num + c * scale
        scale *= den
    return (acc > 0) - (acc < 0)


def _sign_at_neg_inf(p):
    return (1 if p[-1] > 0 else -1) * (-1) ** _degree(p)


# -- arithmetic in Z[sqrt(2)]: values are pairs (a, b) meaning a + b*sqrt(2)


def _qsqrt2_sign(a, b):
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0:
        return sa or sb
    # opposite signs: the larger of |a| and |b| sqrt(2), never equal, wins
    return sa if a * a > 2 * b * b else sb


def _eval_at_tau(p):
    """p(-1 - sqrt(2)) as a pair (a, b) = a + b*sqrt(2)."""
    a, b = 0, 0
    for c in reversed(p):
        # (a + b r)(-1 - r) + c  with r = sqrt(2)
        a, b = -a - 2 * b + c, -a - b
    return a, b


# The count at a root.  ``_chain`` reads the radical's chain off the
# Sturm chain p = p0, p1 = p'/c, p2, ..., pm of a monic p, where c > 0 is
# the content of p': pm is a multiple of g = gcd(p, p'), which divides
# every member, and the quotients q_i = p_i / g begin with the radical
# q0 of p and end with a constant.  They keep the two properties of a
# Sturm chain that the count uses:
#   - at a root r of q0 with multiplicity k in p, write p = (x - r)^k h
#     and g = (x - r)^(k-1) e with h(r), e(r) not zero; then q0 =
#     (x - r) h / e and p' / g = (k h + (x - r) h') / e, so q1(r) =
#     k q0'(r) / c, of the sign of q0'(r), which is not zero;
#   - c' p_{i-1} = Q p_i - d p_{i+1} with c', d > 0 (``_prem``) divides
#     by g into c' q_{i-1} = Q q_i - d q_{i+1}, and neighbours share no
#     root: by that relation a root of two would be one of every later
#     quotient, and the last is a constant.
# Let V(x) be the number of sign variations of q0, q1, ... at x.  Then
# V(x) is also the count just above x, even when x is a root:
#   - where q0 vanishes, it drops out of the sign sequence, and just
#     above x, q0 has the sign of q0'(x), which is that of q1(x), so the
#     pair (q0, q1) adds no variation on either side;
#   - where a later member q_i vanishes, q_{i-1} and q_{i+1} have
#     opposite signs at x and just above it, by the relation and since
#     neighbours share no root, so the three add one variation whatever
#     the sign of q_i.
# So V(-inf) - V(x) counts the distinct roots of p at or below x, at a
# rational x in ``_count_leq`` as at tau, as the radical's own chain
# does, and the roots strictly below tau are V(-inf) - V(tau), less one
# when tau is a root (Basu, Pollack & Roy, ch. 2).


def _count_leq(chain, num, den):
    """Roots <= num/den (den > 0) of the square-free polynomial behind
    ``chain``, exact also when num/den is a root (see above)."""
    signs = [_sign_at(q, num, den) for q in chain]
    return _variations([_sign_at_neg_inf(q) for q in chain]) - _variations(signs)


@functools.lru_cache(maxsize=32)
def _chain(poly):
    """Sturm chain of the radical of the monic tuple ``poly``, the
    radical first: the chain of ``poly`` divided by gcd(p, p') (see
    above).  Memoized: the bracket and both threshold comparisons of one
    graph read the chain of its characteristic polynomial."""
    chain = sturm_chain(poly)
    # g keeps its sign: p has only real roots, so V(-inf) - V(+inf) =
    # deg p - deg g >= len(chain) - 1, as degrees fall from p to g; so no
    # pair varies at +inf, and every member, g too, leads positive like p.
    # A negative g would flip every quotient, changing no count or zero.
    g = _primitive(chain[-1])
    out = []
    for member in chain:
        q, r = _divmod_poly(member, g)
        _require(not any(r), "gcd(p, p') does not divide a member of the chain")
        out.append(tuple(q))
    return tuple(out)


def _at_threshold(poly):
    """(distinct roots of ``poly`` strictly below tau = -1 - sqrt(2),
    whether tau is a root), from one evaluation of the chain at tau: its
    first member, the radical, has the roots of ``poly`` (see above)."""
    chain = _chain(tuple(poly))
    at_tau = [_qsqrt2_sign(*_eval_at_tau(q)) for q in chain]
    at_or_below = _variations([_sign_at_neg_inf(q) for q in chain]) - _variations(at_tau)
    is_root = at_tau[0] == 0
    return at_or_below - is_root, is_root


def count_eigenvalues_below_threshold(poly):
    """Number of distinct roots of ``poly`` strictly below
    tau = -1 - sqrt(2), exact also when tau is a root (see above)."""
    return _at_threshold(poly)[0]


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


#: the width of every irrational bracket ``smallest_root_interval`` gives
BRACKET_WIDTH = Fraction(1, 10**9)


# Bisection.  The interval is (lo/2^k, (lo + width)/2^k] for integers
# lo and k and the fixed integer width 2 * (bound + 1), so every midpoint
# is (2 lo + width)/2^(k+1), a dyadic number that the integer Horner of
# ``_sign_at`` evaluates without fractions.  One invariant holds from
# either start to the end: no root of the radical p lies at or below the
# lower end, and at least one lies at or below the upper end, so the
# interval holds the least root r.  Each step counts the roots at or
# below the midpoint with the Sturm chain, which ``_count_leq`` does
# exactly also when the midpoint is a root: a midpoint with none becomes
# the lower end, any other the upper end, and so every step answers "is
# r <= mid?".  When the loop ends, the bracket is narrower than 1 and
# holds at most one integer m; r = m exactly when m is a root with no
# other root at or below it.  A rational r, a root of a monic integer
# polynomial, is such an m.
#
# The answers depend only on r, so the brackets are those of bisecting
# on the same grid any polynomial with least root r: when r is
# irrational, p with its integer roots divided out, which the tests'
# Fraction reference bisects.
#
# Two starts.  The Cauchy start is the level-0 interval, once two counts
# show the invariant at its ends.  The seeded start: the loop ends at
# the level ``last``, the least k with width / 2^k <= ``BRACKET_WIDTH``.
# The cells (c, c + width] / 2^last with c = (lo << last) + j * width, j
# any integer, tile the line, and the loop's bracket at that level is
# the one of them that holds r: it keeps lo < r <= lo + width at every
# level.  So any cell shown to hold r is that bracket, and the loop may
# start there, at its last level: the cell may hold more roots than r,
# which the count at m allows for.  Two checks show the invariant at
# its ends:
#   - ``_count_leq`` at the lower end is 0, so r lies above it;
#   - r lies at or below the upper end: p changes sign across the cell,
#     so a root lies inside, or vanishes at the upper end, or, when the
#     two signs agree, ``_count_leq`` there is at least 1.
# ``_estimate`` proposes the cell, the one that holds a float estimate
# of r; when p vanishes at its lower end, the estimate has overshot a
# root on the grid, the upper end of the cell below, which is proposed
# instead.  The float only chooses which cell to check: when a check
# fails, whatever the float was, the loop takes the Cauchy start.


def _estimate(p):
    """A float near the least root of the square-free ``p``, whose roots
    are all real, or nan.  Laguerre's iteration started left of every
    root rises monotonically to the least one when all roots are real;
    it stops where rounding stops it rising."""
    d = _degree(p)
    # the roots' squares sum to c_(d-1)^2 - 2 c_(d-2) (Newton), so each
    # root lies above minus the square root of that sum
    squares = p[d - 1] ** 2 - 2 * (p[d - 2] if d >= 2 else 0)
    try:
        coeffs = [float(c) for c in reversed(p)]
        x = -float(math.isqrt(squares) + 1)
    except (OverflowError, ValueError):
        return math.nan
    # near a simple root each step about triples the correct digits; the
    # test corpora take at most 11 steps, and the cap only ends a loop
    # that rounding keeps rising
    for _ in range(64):
        # p(x), p'(x) and p''(x)/2 by Horner
        v = d1 = d2 = 0.0
        for c in coeffs:
            d2 = d2 * x + d1
            d1 = d1 * x + v
            v = v * x + c
        if v == 0:
            break
        g = d1 / v  # sum of 1/(x - r_i): negative left of every root
        if not g < 0:
            break
        h = g * g - 2 * d2 / v
        step = d / (g - math.sqrt(max(0.0, (d - 1) * (d * h - g * g))))
        if not x - step > x:
            break
        x -= step
    return x


def _seeded_cell(chain, lo, width, last):
    """The lower end c of the cell (c, c + width] / 2^last that holds the
    least root of ``chain[0]``, or ``None`` when the cell ``_estimate``
    proposes fails a check (see above)."""
    p = chain[0]
    x = _estimate(p)
    if not math.isfinite(x):
        return None
    # the cell holding x = num/den: j = ceil((x - lo) 2^last / width) - 1
    num, den = x.as_integer_ratio()
    c = (lo << last) - ((((lo * den - num) << last) // (width * den)) + 1) * width
    grid = 1 << last
    lo_sign = _sign_at(p, c, grid)
    if lo_sign == 0:
        c -= width
        lo_sign = _sign_at(p, c, grid)
    if _count_leq(chain, c, grid) != 0:
        return None
    hi_sign = _sign_at(p, c + width, grid)
    if lo_sign * hi_sign < 0 or hi_sign == 0 or _count_leq(chain, c + width, grid) > 0:
        return c
    return None


def smallest_root_interval(poly):
    """Bracket the smallest real root of a monic integer polynomial whose
    roots are all real.  Width <= ``BRACKET_WIDTH`` (zero when the root
    is an integer)."""
    chain = _chain(tuple(poly))
    p = chain[0]
    if _degree(p) == 0:
        raise EmptyGraph("constant polynomial has no roots")
    # Cauchy: every root lies strictly inside (-bound, bound)
    bound = 1 + max(abs(c) for c in p[:-1])
    lo, width, k = -bound - 1, 2 * (bound + 1), 0
    cells = -(-width * BRACKET_WIDTH.denominator // BRACKET_WIDTH.numerator)
    last = (cells - 1).bit_length()
    seeded = _seeded_cell(chain, lo, width, last)
    if seeded is not None:
        lo, k = seeded, last
    else:
        _require(_count_leq(chain, lo, 1) == 0, "a root lies below the lower root bound")
        _require(_count_leq(chain, lo + width, 1) >= 1, "no root lies below the upper root bound")
    while width * BRACKET_WIDTH.denominator > BRACKET_WIDTH.numerator << k:
        lo, k = lo << 1, k + 1
        if _count_leq(chain, lo + width, 1 << k) == 0:
            lo += width
    # the one integer in (lo, lo + width] / 2^k, if any
    m = (lo >> k) + 1
    if m << k <= lo + width and _sign_at(p, m) == 0 and _count_leq(chain, m, 1) == 1:
        return Fraction(m), Fraction(m)
    return Fraction(lo, 1 << k), Fraction(lo + width, 1 << k)


def smallest_eigenvalue(g):
    """Certified bracket of lambda_min of the special matrix of ``g``
    (the adjacency matrix when ``g`` is slim)."""
    if g.slim_count == 0:
        raise EmptyGraph("no slim vertices")
    poly = char_poly(special_matrix(g))
    lo, hi = smallest_root_interval(poly)
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
    return _at_threshold(interval.poly) == (0, True)
