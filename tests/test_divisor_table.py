"""The decks' shared power table, checked against a brute-force reference.

The reference recomputes every divisor ``lam_l^P mu_l^Q - eigen`` from raw
``base ** e`` products, with no table and no monomial shared between
targets.  It enumerates the scan's points in the order the scan documents
(by |Q|, then Q ascending, then |P|, the moduli of P ascending, signs with +
first), so it rebuilds the whole report: minimum, argmin with its deck,
resonances, the (D, tau) fit and its violations.
"""

import itertools
import math
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from germlin import divisors
from germlin.divisors import (
    TAU_LADDER, CochainSystem, apply_operator, diophantine_scan, solve_family,
)
from germlin.scalars import QC, QQI
from germlin.series import FormalSeries
from germlin.toroidal import DeckLinearData

UNITS = ((3, 5, 4, 5), (5, 13, 12, 13), (8, 17, 15, 17), (1, 1, 0, 1), (0, 1, 1, 1))


def _power_product(one, bases, exps):
    out = one
    for base, e in zip(bases, exps):
        if e:
            out = out * base ** e
    return out


def _abs2(val, exact):
    return val.abs2() if exact else val.real * val.real + val.imag * val.imag


def scan_points(n, n_h, d):
    pts = [(p, q) for q in itertools.product(range(n + 1), repeat=d)
           for p in itertools.product(range(-n, n + 1), repeat=n_h)
           if sum(q) >= 2 and sum(q) + sum(map(abs, p)) <= n]
    return sorted(pts, key=lambda pq: (sum(pq[1]), pq[1], sum(map(abs, pq[0])),
                                       tuple(map(abs, pq[0])),
                                       tuple(x < 0 for x in pq[0])))


def reference_divisors(decks, p, q, kind, comp):
    """Every deck's divisor at (P, Q) for one target, and the deck of the
    largest modulus (the first one on ties)."""
    exact = decks.field is QQI
    one = QC(1) if exact else 1 + 0j
    monos = [_power_product(one, decks.lam[l], p) * _power_product(one, decks.mu[l], q)
             for l in range(decks.q)]
    eigen = decks.mu if kind == "v" else decks.lam
    vals = [monos[l] - eigen[l][comp] for l in range(decks.q)]
    best = max(range(decks.q), key=lambda l: _abs2(vals[l], exact))
    return best, vals[best], monos[best]


def reference_report(decks, n, scan_mode):
    exact = decks.field is QQI
    targets = [("v", j) for j in range(decks.d)]
    if scan_mode == "full":
        targets += [("h", i) for i in range(decks.n_h)]
    min_div, argmin, resonances, points = math.inf, None, [], []
    for p, q in scan_points(n, decks.n_h, decks.d):
        for kind, comp in targets:
            l, val, mono = reference_divisors(decks, p, q, kind, comp)
            if (not val) if exact else abs(val) < divisors.FLOAT_RESONANCE_EPS * (1.0 + abs(mono)):
                resonances.append({"P": list(p), "Q": list(q), "target": [kind, comp]})
                continue
            size, mag = sum(map(abs, p)) + sum(q), abs(val)
            points.append((size, mag))
            if mag < min_div:
                min_div = mag
                argmin = {"P": list(p), "Q": list(q), "target": [kind, comp], "l": l}
    out = {"mode": scan_mode, "N": n, "resonances": resonances}
    if resonances:
        return dict(out, min_divisor=0.0, argmin=None, D=None, tau=None, violations=[])
    # least-squares log-log slope of the per-size minima, snapped up the ladder
    per_size = {}
    for s, mag in points:
        per_size[s] = min(per_size.get(s, math.inf), mag)
    xs = [math.log(s) for s in sorted(per_size)]
    ys = [math.log(per_size[s]) for s in sorted(per_size)]
    slope = 0.0
    if len(xs) >= 2:
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        den = sum((x - mx) ** 2 for x in xs)
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den if den else 0.0
    tau = next((t for t in TAU_LADDER if t >= -slope), TAU_LADDER[-1])
    d_const = min(mag * s ** tau for s, mag in points) * (1 - 1e-9)
    violations = [(s, mag) for s, mag in points if not mag > d_const / s ** tau]
    return dict(out, min_divisor=min_div, argmin=argmin, D=d_const, tau=tau,
                violations=violations)


@st.composite
def eigenvalue(draw, exact):
    if draw(st.booleans()):
        a, b, c, e = draw(st.sampled_from(UNITS))
    else:
        a, c = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
        assume(a or c)
        b, e = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    val = QC(Fraction(a, b), Fraction(c, e))
    return val if exact else val.to_complex()


@st.composite
def deck_sets(draw, exact=None, planted=None):
    """Random decks with q in {1, 2, 3}; a planted set has the resonance
    mu_1 = lam_0 mu_0^2 in every deck, and a repeated last deck makes every
    deck choice a tie."""
    if exact is None:
        exact = draw(st.booleans())
    n_h, d, q = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 3))
    if planted is None:
        planted = d == 2 and draw(st.booleans())
    lam = [[draw(eigenvalue(exact)) for _ in range(n_h)] for _ in range(q)]
    mu = [[draw(eigenvalue(exact)) for _ in range(d)] for _ in range(q)]
    if planted:
        for l in range(q):
            mu[l][1] = lam[l][0] * mu[l][0] ** 2
    if q > 1 and draw(st.booleans()):
        lam[-1], mu[-1] = lam[0], mu[0]
    return DeckLinearData(lam, mu), planted


@settings(max_examples=60, deadline=None, derandomize=True)
@given(deck_sets(), st.integers(3, 6), st.sampled_from(("vertical", "full")))
def test_scan_report_matches_bruteforce_reference(case, n, scan_mode):
    decks, planted = case
    ref = reference_report(decks, n, scan_mode)
    if planted:
        witness = {"P": [1] + [0] * (decks.n_h - 1), "Q": [2, 0], "target": ["v", 1]}
        assert witness in ref["resonances"]
    assert diophantine_scan(decks, n, scan_mode).to_json_dict() == ref


def test_float_resonance_threshold_scales_with_the_monomial():
    # planted as (lam mu_0) mu_0, the float divisor at the witness is about
    # 2.8e-15: above the bare eps, below eps (1 + |lam mu_0^2|) ~ 9.7e-15
    lam, mu0 = complex(3 / 7, -6 / 7), complex(3, 1 / 5)
    decks = DeckLinearData([[lam]], [[mu0, (lam * mu0) * mu0]])
    ref = reference_report(decks, 3, "vertical")
    assert {"P": [1], "Q": [2, 0], "target": ["v", 1]} in ref["resonances"]
    assert diophantine_scan(decks, 3, "vertical").to_json_dict() == ref


@settings(max_examples=30, deadline=None, derandomize=True)
@given(deck_sets(exact=True, planted=False), st.data())
def test_solve_family_divides_by_reference_deck(case, data):
    decks, _ = case
    key = st.tuples(st.tuples(*[st.integers(-2, 2)] * decks.n_h),
                    st.tuples(*[st.integers(0, 3)] * decks.d))
    coeff = st.integers(-3, 3).filter(bool).map(QC)
    g_vec = tuple(FormalSeries(decks.n_h, decks.d,
                               data.draw(st.dictionaries(key.filter(lambda k: sum(k[1]) >= 2),
                                                         coeff, max_size=4)), 12, 8)
                  for _ in range(decks.d))
    for j, comp in enumerate(g_vec):
        for k in comp.terms:
            assume(reference_divisors(decks, k.P, k.Q, "v", j)[1])
    F = tuple(apply_operator(decks, g_vec, i, "vertical") for i in range(decks.q))
    chosen = []
    real = divisors.max_divisor

    def spy(decks_, p, q, kind, comp, *args, **kwargs):
        l, val = real(decks_, p, q, kind, comp, *args, **kwargs)
        chosen.append((tuple(p), tuple(q), comp, l, val))
        return l, val

    divisors.max_divisor = spy
    try:
        solved = solve_family(CochainSystem(decks, F, "vertical"))
    finally:
        divisors.max_divisor = real
    assert len(chosen) == len({(k, j) for j, comp in enumerate(F[0]) for k in
                               set().union(*(F[i][j].terms for i in range(decks.q)))})
    for p, q, comp, l, val in chosen:
        assert (l, val) == reference_divisors(decks, p, q, "v", comp)[:2]
    assert [s.terms for s in solved] == [s.terms for s in g_vec]


def test_power_table_memoizes_and_stays_bounded():
    lam = [[QC(Fraction(3, 5), Fraction(4, 5)), QC(Fraction(5, 13), Fraction(12, 13))],
           [QC(Fraction(8, 17), Fraction(15, 17)), QC(Fraction(7, 25), Fraction(24, 25))]]
    mu = [[QC(Fraction(1, 2)), QC(Fraction(1, 3))], [QC(Fraction(1, 5)), QC(Fraction(2, 7))]]
    decks = DeckLinearData(lam, mu)
    first = decks.lam_pow(1, [2, -1])
    assert first == lam[1][0] ** 2 * lam[1][1] ** -1
    assert decks.lam_pow(1, (2, -1)) == first == decks.lam_pow(1, [2, -1])
    assert decks.mu_pow(0, [3, 0]) == decks.mu_pow(0, (3, 0)) == mu[0][0] ** 3
    # equal exponents of lam and mu are different entries
    assert decks.mu_pow(1, (1, 1)) != decks.lam_pow(1, (1, 1))
    n = 10
    diophantine_scan(decks, n, "full")
    n_p = sum(1 for p in itertools.product(range(-n, n + 1), repeat=2)
              if sum(map(abs, p)) <= n - 2)
    n_q = sum(1 for q in itertools.product(range(n + 1), repeat=2) if 2 <= sum(q) <= n)
    assert len(decks._table) <= decks.q * (n_p + n_q)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(deck_sets(exact=True, planted=False), st.integers(3, 6),
       st.sampled_from(("vertical", "full")))
def test_exact_and_float_scans_agree(case, n, scan_mode):
    decks, _ = case
    exact = diophantine_scan(decks, n, scan_mode)
    assume(not exact.has_resonance)
    rows = [[[x.to_complex() for x in row] for row in part] for part in (decks.lam, decks.mu)]
    approx = diophantine_scan(DeckLinearData(*rows), n, scan_mode)
    assert not approx.has_resonance
    assert math.isclose(approx.min_divisor, exact.min_divisor, rel_tol=1e-9)
