"""Exact characteristic polynomials, Sturm certification, threshold."""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import hoffline
from hoffline.core import HoffmanGraph
from hoffline.families import family_graph
from hoffline import spectral, verify
from hoffline.spectral import (
    CertificationError,
    EmptyGraph,
    Verdict,
    char_poly,
    compare_threshold,
    count_eigenvalues_below_threshold,
    equals_threshold,
    smallest_eigenvalue,
    special_matrix,
)

from bruteforce import (
    _integer_roots,
    char_poly_berkowitz,
    charpoly_bruteforce,
    smallest_root_interval_fractions,
    square_free,
)
from helpers import slim_complete, slim_cycle, slim_path

TAU = -1 - math.sqrt(2)


def _adjacency(g):
    n = g.slim_count
    return np.array(
        [[1.0 if g.adjacent(i, j) else 0.0 for j in range(n)] for i in range(n)]
    )


# -- special matrix -------------------------------------------------------


def test_special_matrix_of_slim_graph_is_adjacency():
    g = slim_path(4)
    m = special_matrix(g)
    for i in range(4):
        for j in range(4):
            assert m[i][j] == (1 if g.adjacent(i, j) else 0)


def test_special_matrix_entries():
    h5 = family_graph("H5")
    m = special_matrix(h5)
    assert [m[i][i] for i in range(3)] == [-1, -1, -1]
    # the adjacent slim pair shares the hub: 1 - 1 = 0; the others -1
    off = sorted(m[i][j] for i in range(3) for j in range(3) if i < j)
    assert off == [-1, -1, 0]


def test_special_matrix_matches_definition(fat_corpus):
    # every entry from the vertex methods: adjacency less common fat
    # neighbours off the diagonal, minus the fat degree on it
    for g in fat_corpus:
        m = special_matrix(g)
        s = g.slim_count
        assert len(m) == s and all(len(row) == s for row in m)
        for x in range(s):
            fx = g.fat_neighbors(x)
            assert m[x][x] == -fx.bit_count()
            for y in range(s):
                if y != x:
                    common = (fx & g.fat_neighbors(y)).bit_count()
                    assert m[x][y] == int(g.adjacent(x, y)) - common, (s, list(g.adj))


# -- characteristic polynomial ---------------------------------------------


def test_char_poly_h1_h2():
    assert char_poly(special_matrix(family_graph("H1"))) == (1, 1)
    assert char_poly(special_matrix(family_graph("H2"))) == (2, 1)


def test_char_poly_h5_has_threshold_factor():
    p = char_poly(special_matrix(family_graph("H5")))
    assert p == (-1, 1, 3, 1)  # (x + 1)(x^2 + 2x - 1)
    assert spectral._eval_at_tau(p) == (0, 0)


def test_char_poly_matches_permutation_expansion():
    rng = random.Random(13)
    for _ in range(80):
        n = rng.randint(0, 5)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = rng.randint(-2, 0)
            for j in range(i + 1, n):
                m[i][j] = m[j][i] = rng.randint(-2, 2)
        assert char_poly(m) == charpoly_bruteforce(m)


def test_char_poly_empty_matrix():
    assert char_poly([]) == (1,)


def test_char_poly_matches_berkowitz_on_the_corpora(spectral_corpus, fat_corpus):
    # the special matrices of both corpora and of the line layers up to
    # n = 8, each distinct one once
    line = [g for n in range(1, 9) for g in verify._layer(n)[0]]
    matrices = {tuple(map(tuple, special_matrix(g))) for g in spectral_corpus + fat_corpus + line}
    for m in matrices:
        assert char_poly(m) == char_poly_berkowitz(m), m


def test_char_poly_matches_berkowitz_at_the_slot_width_edge():
    # the slots hold entries of M^k up to (n top)^n; dense matrices with
    # the largest entries come nearest, -6 J on 18 vertices the nearest
    rng = random.Random(37)
    cases = [[[-6] * n for _ in range(n)] for n in (1, 2, 17, 18)]
    for _ in range(120):
        n = rng.randint(1, 18)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = rng.randint(-6, 0)
            for j in range(i + 1, n):
                m[i][j] = m[j][i] = rng.randint(-3, 1)
        cases.append(m)
    for m in cases:
        assert char_poly(m) == char_poly_berkowitz(m), m


def test_char_poly_of_the_dense_24_vertex_line_graphs():
    # CP(12) has the spectrum 22, 0^12, (-2)^11; K24 - e against the
    # reference
    pairs = [(u, v) for u in range(24) for v in range(u + 1, 24)]
    cocktail_party = HoffmanGraph.build(24, 0, [(u, v) for u, v in pairs if v != u + 1 or u % 2])
    want = _from_roots((22,) + (0,) * 12 + (-2,) * 11)
    assert char_poly(special_matrix(cocktail_party)) == want
    complete_minus_edge = special_matrix(HoffmanGraph.build(24, 0, pairs[1:]))
    assert char_poly(complete_minus_edge) == char_poly_berkowitz(complete_minus_edge)


# -- eigenvalue intervals ----------------------------------------------------


def test_k2_and_c4_exact():
    e = smallest_eigenvalue(slim_complete(2))
    assert e.lower == e.upper == Fraction(-1)
    e = smallest_eigenvalue(slim_cycle(4))
    assert e.lower == e.upper == Fraction(-2)


def test_empty_graph_raises():
    with pytest.raises(EmptyGraph):
        smallest_eigenvalue(HoffmanGraph.build(0, 0, []))


def test_default_tolerance_width():
    # the one bracket width there is
    assert spectral.BRACKET_WIDTH == Fraction(1, 10**9)
    e = smallest_eigenvalue(slim_path(5))
    assert 0 < e.upper - e.lower <= spectral.BRACKET_WIDTH


def test_interval_brackets_numpy_on_random_graphs():
    rng = random.Random(17)
    for _ in range(500):
        n = rng.randint(1, 10)
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
        ]
        g = HoffmanGraph.build(n, 0, edges)
        e = smallest_eigenvalue(g)
        lam = float(np.linalg.eigvalsh(_adjacency(g)).min())
        assert float(e.lower) - 1e-6 <= lam <= float(e.upper) + 1e-6


def test_interval_on_fat_graphs_vs_numpy():
    rng = random.Random(19)
    for _ in range(150):
        s = rng.randint(1, 5)
        f = rng.randint(1, 3)
        edges = set()
        for fv in range(s, s + f):
            edges.add((rng.randrange(s), fv))
            if rng.random() < 0.5:
                edges.add((rng.randrange(s), fv))
        for i in range(s):
            for j in range(i + 1, s):
                if rng.random() < 0.4:
                    edges.add((i, j))
        g = HoffmanGraph.build(s, f, edges)
        m = np.array(special_matrix(g), dtype=float)
        lam = float(np.linalg.eigvalsh(m).min())
        e = smallest_eigenvalue(g)
        assert float(e.lower) - 1e-6 <= lam <= float(e.upper) + 1e-6


# -- threshold comparison ----------------------------------------------------


def test_h5_is_exactly_at_threshold():
    e = smallest_eigenvalue(family_graph("H5"))
    assert compare_threshold(e) is Verdict.AT_OR_ABOVE
    assert equals_threshold(e)


def test_k23_certifies_below():
    k23 = HoffmanGraph.build(5, 0, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    e = smallest_eigenvalue(k23)
    assert compare_threshold(e) is Verdict.BELOW
    assert not equals_threshold(e)


def test_verdicts_match_float_comparison_when_clear():
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randint(1, 9)
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
        ]
        g = HoffmanGraph.build(n, 0, edges)
        lam = float(np.linalg.eigvalsh(_adjacency(g)).min())
        if abs(lam - TAU) < 1e-7:
            continue
        want = Verdict.BELOW if lam < TAU else Verdict.AT_OR_ABOVE
        assert compare_threshold(smallest_eigenvalue(g)) is want


def test_count_below_threshold_matches_numpy():
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(1, 8)
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
        ]
        g = HoffmanGraph.build(n, 0, edges)
        eig = np.linalg.eigvalsh(_adjacency(g))
        clear = np.abs(eig - TAU) > 1e-7
        if not clear.all():
            continue
        # multiplicity-free count: compare against distinct roots below
        poly = char_poly(special_matrix(g))
        want = len({round(x, 6) for x in eig[eig < TAU]})
        assert count_eigenvalues_below_threshold(poly) == want


def _distinct_below_tau(values):
    """How many values lie below tau, counting values within 1e-4 of
    each other once: floating roots of a repeated factor come apart."""
    below = sorted(float(x) for x in values if x < TAU - 1e-4)
    return sum(1 for a, b in zip([-math.inf] + below, below) if b - a > 1e-4)


def test_count_at_a_threshold_root_matches_numpy(spectral_corpus, fat_corpus):
    # tau an eigenvalue with others below it: the count at tau itself
    # leaves tau out
    found = 0
    for g in spectral_corpus + fat_corpus:
        poly = char_poly(special_matrix(g))
        if spectral._eval_at_tau(poly) != (0, 0):
            continue
        eig = np.linalg.eigvalsh(np.array(special_matrix(g), dtype=float))
        want = _distinct_below_tau(eig)
        assert count_eigenvalues_below_threshold(poly) == want, (g.slim_count, list(g.adj))
        found += want > 0
    assert found >= 10


@pytest.mark.parametrize(
    "roots, power",
    [((-3,), 1), ((-3,), 2), ((-4, -3), 1), ((-3, -3, 1), 2), ((-5, 0, 3), 1), ((-2, 0), 1)],
)
def test_count_at_a_threshold_root_of_a_polynomial(roots, power):
    # (x^2 + 2x - 1)^power times (x - r) for each r: the integer roots
    # below tau are those up to -3, and repeated roots count once
    poly = np.polynomial.polynomial.polyfromroots(roots)
    tau_factor = np.polynomial.polynomial.polypow([-1, 2, 1], power)
    poly = np.polynomial.polynomial.polymul(poly, tau_factor)
    poly = tuple(int(round(c)) for c in poly)
    assert spectral._eval_at_tau(poly) == (0, 0)
    want = _distinct_below_tau(np.roots(poly[::-1]).real)
    assert want == len({r for r in roots if r <= -3})
    assert count_eigenvalues_below_threshold(poly) == want


def _from_roots(roots):
    """The monic integer polynomial with the roots ``roots``."""
    p = [1]
    for r in roots:
        p = [a - r * b for a, b in zip([0] + p, p + [0])]
    return tuple(p)


@pytest.mark.parametrize(
    "roots",
    [(-1, -1, -1, 2, 2)]
    + [(0,) * n for n in range(1, 7)]
    + [(n - 1,) + (-1,) * (n - 1) for n in range(2, 9)],
    ids=["(x+1)^3(x-2)^2"] + [f"x^{n}" for n in range(1, 7)] + [f"K{n}" for n in range(2, 9)],
)
def test_count_leq_at_repeated_integer_roots(roots):
    # the chain read off p's own counts each distinct root once, also at
    # the root itself, across the Cauchy range of the radical
    chain = spectral._chain(_from_roots(roots))
    bound = 1 + max(abs(c) for c in chain[0][:-1])
    for twice in range(-2 * bound - 2, 2 * bound + 3):
        x = Fraction(twice, 2)
        want = len({r for r in roots if r <= x})
        assert spectral._count_leq(chain, x.numerator, x.denominator) == want, x


def test_one_sturm_chain_per_polynomial(spectral_corpus, fat_corpus, monkeypatch):
    # the bracket and both threshold comparisons of a graph read one
    # pseudo-remainder sequence, that of its characteristic polynomial;
    # the graphs go by polynomial, so the memo never drops one in use
    runs = []
    sturm_chain = spectral.sturm_chain
    monkeypatch.setattr(spectral, "sturm_chain", lambda p: runs.append(tuple(p)) or sturm_chain(p))
    polys = {g: char_poly(special_matrix(g)) for g in spectral_corpus + fat_corpus}
    spectral._chain.cache_clear()
    for g in sorted(polys, key=polys.get):
        interval = smallest_eigenvalue(g)
        compare_threshold(interval)
        equals_threshold(interval)
    assert sorted(runs) == sorted(set(polys.values()))


def test_square_free_removes_multiplicity():
    # (x+1)^2 (x-2) -> (x+1)(x-2), the first member of the chain
    import numpy.polynomial.polynomial as npoly

    coeffs = npoly.polyfromroots([-1, -1, 2]).astype(int)
    sf = spectral._chain(tuple(int(c) for c in coeffs))[0]
    want = npoly.polyfromroots([-1, 2])
    got = [float(c) for c in sf]
    assert np.allclose(got, want)


def test_family_alpha_labels():
    # the published smallest-eigenvalue labels of the named hosts
    exact_minus_2 = []
    for name in ("H2", "H3"):
        e = smallest_eigenvalue(family_graph(name))
        assert e.lower == e.upper == Fraction(-2)
    e1 = smallest_eigenvalue(family_graph("H1"))
    assert e1.lower == e1.upper == Fraction(-1)
    assert equals_threshold(smallest_eigenvalue(family_graph("H5")))


def test_failed_certification_check_raises(monkeypatch):
    # an explicit raise, so the check also holds under python -O
    monkeypatch.setattr(spectral, "_count_leq", lambda chain, num, den: 1)
    with pytest.raises(CertificationError):
        spectral.smallest_root_interval((-2, 0, 1))


def test_inexact_integer_division_raises(monkeypatch):
    # a chain whose last member does not divide the first: 2x + 1 into
    # x^2 - 1; the chain of x^2 - 1 may be memoized from an earlier test,
    # so the memo is emptied
    spectral._chain.cache_clear()
    monkeypatch.setattr(spectral, "sturm_chain", lambda p: [list(p), [1, 2]])
    with pytest.raises(CertificationError):
        spectral.smallest_root_interval((-1, 0, 1))


def test_bisection_point_at_a_root_gives_that_root():
    # the first bisection point of x^2 - x, 0, is its least root: the
    # count there is exact, and the zero-width bracket comes at the end
    want = smallest_root_interval_fractions((0, -1, 1))
    assert spectral.smallest_root_interval((0, -1, 1)) == want == (0, 0)


def _record_counts(monkeypatch):
    """The points ``_count_leq`` is asked about from now on, in order."""
    counted = []
    count_leq = spectral._count_leq

    def recording_count_leq(chain, num, den):
        counted.append(Fraction(num, den))
        return count_leq(chain, num, den)

    monkeypatch.setattr(spectral, "_count_leq", recording_count_leq)
    return counted


def test_midpoint_at_a_root_becomes_the_upper_end(monkeypatch):
    # x^2 + x - 6 from the Cauchy bracket (-8, 8] (with no estimate):
    # each step counts at its midpoint; the fourth midpoint, -3, is the
    # least root, where the count is 1 and the upper end moves onto it,
    # and every later midpoint, 2^-k * 16 below -3, counts none; the last
    # count confirms -3 as the least root
    monkeypatch.setattr(spectral, "_estimate", lambda p: math.nan)
    counted = _record_counts(monkeypatch)
    want = smallest_root_interval_fractions((-6, 1, 1))
    assert spectral.smallest_root_interval((-6, 1, 1)) == want == (-3, -3)
    later = [-3 - Fraction(16, 2**k) for k in range(5, 35)]
    assert counted == [-8, 8, 0, -4, -2, -3, *later, -3]


def test_integer_least_root_met_by_no_midpoint_gets_one_count(monkeypatch):
    # x^2 + 2x - 3 from the Cauchy bracket (-5, 5] (with no estimate):
    # no midpoint is -3, so each of the 34 steps counts at a midpoint on
    # its way to -3; the last bracket holds the one integer -3, where p
    # vanishes, and one count there shows no root below it
    monkeypatch.setattr(spectral, "_estimate", lambda p: math.nan)
    counted = _record_counts(monkeypatch)
    want = smallest_root_interval_fractions((-3, 2, 1))
    assert spectral.smallest_root_interval((-3, 2, 1)) == want == (-3, -3)
    lo, hi, mids = Fraction(-5), Fraction(5), []
    for _ in range(34):
        mids.append((lo + hi) / 2)
        lo, hi = (mids[-1], hi) if mids[-1] < -3 else (lo, mids[-1])
    assert mids[:6] == [0, Fraction(-5, 2), Fraction(-15, 4), Fraction(-25, 8), Fraction(-45, 16), Fraction(-95, 32)]
    assert counted == [-5, 5, *mids, -3]


def test_seeded_cell_with_the_least_root_at_its_upper_end(monkeypatch):
    # x^2 + x - 6 from its estimate -3: the last level's cells are
    # 2^-30 wide from -8, so -3 is the upper end of one; no root lies at
    # or below its lower end, and p vanishes at -3, so the loop starts
    # there; the one count more is the zero-width bracket's at -3
    counted = _record_counts(monkeypatch)
    assert spectral._estimate(list(spectral._chain((-6, 1, 1))[0])) == -3
    want = smallest_root_interval_fractions((-6, 1, 1))
    assert spectral.smallest_root_interval((-6, 1, 1)) == want == (-3, -3)
    assert counted == [-3 - Fraction(1, 2**30), -3]


def test_seeded_cell_with_the_least_root_inside(monkeypatch):
    # x^2 + 2x - 3 from its estimate -3: the last level's cells are
    # 5 * 2^-33 wide from -5, so -3 lies inside one, (-3 - 2^-31, ...];
    # no root lies at or below its lower end, and p changes sign across
    # it, so the loop starts there; the one count more is at -3
    counted = _record_counts(monkeypatch)
    assert spectral._estimate(list(spectral._chain((-3, 2, 1))[0])) == -3
    want = smallest_root_interval_fractions((-3, 2, 1))
    assert spectral.smallest_root_interval((-3, 2, 1)) == want == (-3, -3)
    assert counted == [-3 - Fraction(1, 2**31), -3]


def test_sturm_chain_of_a_characteristic_polynomial_leads_positive(spectral_corpus, fat_corpus):
    # ``_chain`` divides by the last member as it stands: with only real
    # roots, every member of the chain leads with a positive coefficient
    polys = {char_poly(special_matrix(g)) for g in spectral_corpus + fat_corpus}
    for poly in polys:
        chain = spectral.sturm_chain(poly)
        assert all(member[-1] > 0 for member in chain), poly


_FAILURES_UNDER_O = """
import json, sys
from hoffline import spectral

def raises(poly, **patches):
    saved = {name: getattr(spectral, name) for name in patches}
    for name, value in patches.items():
        setattr(spectral, name, value)
    try:
        spectral.smallest_root_interval(poly)
    except spectral.CertificationError:
        return True
    finally:
        for name, value in saved.items():
            setattr(spectral, name, value)
    return False

print(json.dumps({
    "optimize": sys.flags.optimize,
    "lower_bound": raises((-2, 0, 1), _count_leq=lambda chain, num, den: 1),
    "inexact_division": raises((-1, 0, 1), sturm_chain=lambda p: [list(p), [1, 2]]),
}))
"""


def test_certification_checks_hold_under_python_O():
    # python -O strips asserts; the checks are explicit raises, so the
    # two failures above still raise there
    src = str(Path(hoffline.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _FAILURES_UNDER_O],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "optimize": 1,
        "lower_bound": True,
        "inexact_division": True,
    }


# -- dyadic bisection against the Fraction bisection it replaced -------------


@pytest.fixture(scope="module")
def corpus_polys(spectral_corpus, fat_corpus):
    """The distinct characteristic polynomials of both corpora."""
    return sorted({char_poly(special_matrix(g)) for g in spectral_corpus + fat_corpus})


@pytest.fixture(scope="module")
def corpus_brackets(corpus_polys):
    """The Fraction reference's bracket of each corpus polynomial, at
    the width ``BRACKET_WIDTH``."""
    return {poly: smallest_root_interval_fractions(poly) for poly in corpus_polys}


@pytest.mark.parametrize("width", [Fraction(1, 10**9)], ids=["10^-9"])
def test_interval_matches_fraction_bisection(corpus_brackets, width):
    # the dyadic bisection at its one width against the Fraction
    # bisection run to the same width
    assert spectral.BRACKET_WIDTH == width
    for poly, want in corpus_brackets.items():
        assert spectral.smallest_root_interval(poly) == want, poly


# -- the seeded start: a float proposes the last level's cell ---------------


def _last_cell(p):
    """The Cauchy lower end of the radical ``p`` and the width of a cell
    at the bisection's last level, the first at most ``BRACKET_WIDTH``."""
    bound = 1 + max(abs(c) for c in p[:-1])
    cell = Fraction(2 * (bound + 1))
    while cell > spectral.BRACKET_WIDTH:
        cell /= 2
    return -bound - 1, cell


_ESTIMATES = {
    "nan": lambda p, lo, hi: math.nan,
    "+inf": lambda p, lo, hi: math.inf,
    "-inf": lambda p, lo, hi: -math.inf,
    "cauchy-lower-end": lambda p, lo, hi: float(_last_cell(p)[0]),
    "cell-below": lambda p, lo, hi: float((lo + hi) / 2 - _last_cell(p)[1]),
    "cell-above": lambda p, lo, hi: float((lo + hi) / 2 + _last_cell(p)[1]),
}


@pytest.mark.parametrize("name", list(_ESTIMATES))
def test_any_estimate_gives_the_reference_bracket(corpus_brackets, monkeypatch, name):
    # the float only proposes a cell: a wrong or missing estimate fails a
    # check, and the bisection from the Cauchy bound gives the bracket
    estimate = _ESTIMATES[name]
    # ``_estimate`` sees the radical, which has the least root of p
    by_radical = {spectral._chain(poly)[0]: want for poly, want in corpus_brackets.items()}
    monkeypatch.setattr(spectral, "_estimate", lambda p: estimate(p, *by_radical[p]))
    counted = _record_counts(monkeypatch)
    for poly, want in corpus_brackets.items():
        counted.clear()
        assert spectral.smallest_root_interval(poly) == want, poly
        if name in ("nan", "+inf", "-inf", "cauchy-lower-end"):
            # the level-0 count at the Cauchy upper end
            assert -_last_cell(spectral._chain(poly)[0])[0] in counted, poly


def test_no_float_estimate_past_the_float_range():
    # coefficients past the float range give no estimate, and the
    # bisection from the Cauchy bound the exact root
    assert math.isnan(spectral._estimate((10**400, 1)))
    assert spectral.smallest_root_interval((10**400, 1)) == (-(10**400), -(10**400))


def test_count_leq_calls_over_the_corpus(corpus_polys, monkeypatch):
    # counts only, no timing: from the confirmed cell, one count at its
    # lower end and one where the signs at its ends agree or the least
    # root is an integer; from the Cauchy bracket, as with no estimate,
    # two at its ends and one at every midpoint of the whole bisection
    counted = _record_counts(monkeypatch)
    for poly in corpus_polys:
        spectral.smallest_root_interval(poly)
    seeded = len(counted)
    counted.clear()
    monkeypatch.setattr(spectral, "_estimate", lambda p: math.nan)
    for poly in corpus_polys:
        spectral.smallest_root_interval(poly)
    assert (len(corpus_polys), seeded, len(counted)) == (2395, 2689, 89812)


# -- the reference's integer-root scan against the full Cauchy range ---------


def _cauchy_bound(p):
    return 1 + max(abs(c) for c in p[:-1])


def _integer_roots_unpruned(p):
    bound = _cauchy_bound(p)
    return [
        k for k in range(-bound - 1, bound + 2)
        if sum(c * k**i for i, c in enumerate(p)) == 0
    ]


def _check_integer_roots(poly):
    p = square_free(poly)
    roots, work = _integer_roots(p, _cauchy_bound(p))
    assert roots == _integer_roots_unpruned(p)
    assert len(work) - 1 == len(p) - 1 - len(roots)
    return roots


def test_integer_root_scan_matches_cauchy_range(spectral_corpus):
    found = 0
    for g in spectral_corpus:
        found += len(_check_integer_roots(char_poly(special_matrix(g))))
    assert found > len(spectral_corpus)


@pytest.mark.parametrize("n", range(2, 9))
def test_integer_root_scan_complete_graph(n):
    # the root n - 1 of K_n lies just inside the Newton bound:
    # (x - n + 1)(x + 1) has sum of squares n^2 - 2n + 2 < n^2
    poly = char_poly(special_matrix(slim_complete(n)))
    assert _check_integer_roots(poly) == [-1, n - 1]
    assert spectral.smallest_root_interval(poly) == (-1, -1)


@pytest.mark.parametrize(
    "poly, roots, lowest",
    [
        ((3, 1), [-3], -3),  # degree 1
        ((-2, -3, 0, 1), [-1, 2], -1),  # (x + 1)^2 (x - 2)
        ((0, -6, -1, 1), [-2, 0, 3], -2),  # (x + 2) x (x - 3)
        ((2, -2, -1, 1), [1], -math.sqrt(2)),  # (x - 1)(x^2 - 2)
    ],
)
def test_integer_root_scan_edge_cases(poly, roots, lowest):
    assert _check_integer_roots(poly) == roots
    lo, hi = spectral.smallest_root_interval(poly)
    assert lo <= lowest <= hi and hi - lo <= Fraction(1, 10**9)


# -- integer Sturm chains against the classical chain over Q -----------------


def _classical_sturm_chain(p):
    def rem(a, b):
        r = list(a)
        while len(r) >= len(b) and any(r):
            coef = r[-1] / b[-1]
            shift = len(r) - len(b)
            for i, c in enumerate(b):
                r[shift + i] -= coef * c
            r.pop()
            while len(r) > 1 and r[-1] == 0:
                r.pop()
        return r

    chain = [[Fraction(c) for c in p]]
    d = [i * c for i, c in enumerate(chain[0])][1:]
    if any(d):
        chain.append(d)
        while len(chain[-1]) > 1:
            r = rem(chain[-2], chain[-1])
            if not any(r):
                break
            chain.append([-c for c in r])
    return chain


def test_integer_sturm_chain_is_a_positive_multiple_of_the_classical_one():
    # each member a positive multiple, so every sign count is unchanged;
    # random polynomials reach degree gaps and negative leading terms
    rng = random.Random(31)
    for _ in range(2000):
        p = [rng.randint(-4, 4) for _ in range(rng.randint(2, 8))]
        p.append(rng.choice((1, -1, 2, -3)))
        chain = spectral.sturm_chain(p)
        classical = _classical_sturm_chain(p)
        assert len(chain) == len(classical)
        for ours, theirs in zip(chain, classical):
            ratio = Fraction(ours[-1]) / theirs[-1]
            assert ratio > 0
            assert [Fraction(c) for c in ours] == [ratio * c for c in theirs]


def test_constant_polynomial_has_no_least_root():
    with pytest.raises(EmptyGraph, match="constant polynomial"):
        spectral.smallest_root_interval((1,))
