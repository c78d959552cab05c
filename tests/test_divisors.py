import cmath
import math
import random
from fractions import Fraction

import pytest

from germlin.divisors import (
    CochainSystem, IncompatibleSystem, ResonanceError,
    apply_operator, compatibility_residual, compositions,
    diophantine_scan, divisor_scalar, signed_vectors, solve_family,
)
from germlin.scalars import CC, QC
from germlin.series import FormalSeries
from germlin.toroidal import DeckLinearData
from conftest import random_series

HALF = QC(Fraction(1, 2))
UNIT_A = QC(Fraction(3, 5), Fraction(4, 5))      # |.| = 1
UNIT_B = QC(Fraction(5, 13), Fraction(12, 13))   # |.| = 1


def exact_decks(q=1, d=1):
    lam_rows = [[UNIT_A], [UNIT_B]][:q]
    mu = {1: [HALF], 2: [HALF, QC(Fraction(1, 3))]}[d]
    return DeckLinearData(lam_rows, [list(mu)] * q)


def mono(p, q, c=QC(1), th=12, tv=8):
    return FormalSeries.monomial(1, 1, p, q, c, th, tv)


# ----------------------------------------------------------------------
# single divisor values


def test_divisor_direct_arithmetic():
    decks = DeckLinearData([[QC(1)]], [[HALF]])
    val = abs(divisor_scalar(decks, (0,), (2,), "v", 0, 0))
    assert val == pytest.approx(0.25)


def test_divisor_exact_resonance_is_zero():
    # mu_2 = mu_1^2 with lam trivial: divisor at Q = (2, 0), j = 2 vanishes
    decks = DeckLinearData([[QC(1)]], [[HALF, QC(Fraction(1, 4))]])
    assert abs(divisor_scalar(decks, (0,), (2, 0), "v", 1, 0)) == 0.0


def test_divisor_matches_high_precision_oracle():
    rng = random.Random(3)
    for _ in range(25):
        theta = rng.uniform(0, 2 * math.pi)
        lam = cmath.exp(1j * theta)
        mu = rng.uniform(0.1, 0.9)
        decks = DeckLinearData([[lam]], [[complex(mu)]])
        p, qv = rng.randint(-6, 6), rng.randint(2, 7)
        got = abs(divisor_scalar(decks, (p,), (qv,), "v", 0, 0))
        want = abs(lam ** p * mu ** qv - mu)
        assert got == pytest.approx(want, abs=1e-14)


# ----------------------------------------------------------------------
# scans


def test_scan_unit_lambda_min_divisor_lower_bound():
    decks = DeckLinearData([[UNIT_A]], [[HALF]])
    rep = diophantine_scan(decks, 12)
    assert not rep.has_resonance
    # |lam^P mu^Q| <= 1/4 while |mu| = 1/2, so divisors stay >= 1/4
    assert rep.min_divisor >= 0.25 - 1e-12
    assert rep.d_const is not None and rep.tau in range(1, 11)
    assert rep.violations == []


def test_scan_irrational_rotation_matches_bruteforce():
    lam = cmath.exp(2j * math.pi * math.sqrt(2))
    decks = DeckLinearData([[lam]], [[0.5 + 0j]])
    rep = diophantine_scan(decks, 30)
    best = math.inf
    for qn in range(2, 31):
        for pn in range(0, 31 - qn):
            for p in ({pn, -pn} if pn else {0}):
                best = min(best, abs(lam ** p * (0.5 + 0j) ** qn - 0.5))
    assert rep.min_divisor == best
    assert all(mag > rep.d_const / s ** rep.tau
               for s, mag in rep.per_size_min.items())


def test_scan_constructed_resonance_witness():
    # mu_2 = lam^1 mu_1^2 exactly
    lam = UNIT_A
    mu2 = lam * HALF * HALF
    decks = DeckLinearData([[lam]], [[HALF, mu2]])
    rep = diophantine_scan(decks, 6)
    assert rep.has_resonance
    assert ((1,), (2, 0), ("v", 1)) in rep.resonances
    assert rep.d_const is None


def test_scan_monotone_min_divisor():
    decks = exact_decks(q=1, d=1)
    mins = [diophantine_scan(decks, n).min_divisor for n in (4, 8, 12, 16)]
    assert all(a >= b - 1e-15 for a, b in zip(mins, mins[1:]))


def test_enumeration_helpers():
    assert set(compositions(2, 2)) == {(0, 2), (1, 1), (2, 0)}
    assert set(signed_vectors(1, 2)) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert set(signed_vectors(0, 1)) == {(0,)}


# ----------------------------------------------------------------------
# cochain solving


def test_compatibility_of_coboundary_family():
    decks = exact_decks(q=2, d=1)
    h_vec = (mono((1,), (2,)).add(mono((-1,), (3,), QC(Fraction(2, 7)))),)
    F = tuple(apply_operator(decks, h_vec, i, "vertical") for i in range(2))
    sys = CochainSystem(decks, F, "vertical")
    assert compatibility_residual(sys) == 0.0


def test_compatibility_single_deck_vacuous():
    decks = exact_decks(q=1, d=1)
    sys = CochainSystem(decks, ((mono((0,), (2,)),),), "vertical")
    assert compatibility_residual(sys) == 0.0


def test_compatibility_residual_matches_coefficient_oracle():
    decks = exact_decks(q=2, d=1)
    f1 = (mono((1,), (2,), QC(1)),)
    f2 = (mono((1,), (2,), QC(Fraction(1, 3))),)
    sys = CochainSystem(decks, (f1, f2), "vertical")
    res = compatibility_residual(sys)
    key_p, key_q = (1,), (2,)
    div0 = decks.lam_pow(0, key_p) * decks.mu_pow(0, key_q) - decks.mu[0][0]
    div1 = decks.lam_pow(1, key_p) * decks.mu_pow(1, key_q) - decks.mu[1][0]
    oracle = abs(div0 * f2[0].coeff(key_p, key_q) - div1 * f1[0].coeff(key_p, key_q))
    assert res == pytest.approx(oracle, rel=1e-12)


def test_solve_family_zero_input():
    decks = exact_decks(q=2, d=1)
    zero = (FormalSeries.zero(1, 1, 12, 8),)
    sys = CochainSystem(decks, (zero, zero), "vertical")
    g = solve_family(sys)
    assert all(comp.is_zero() for comp in g)


def test_solve_family_monomial_substitution_oracle():
    decks = exact_decks(q=1, d=1)
    c = QC(Fraction(3, 7), Fraction(-1, 5))
    f = (mono((2,), (3,), c),)
    sys = CochainSystem(decks, (f,), "vertical")
    g = solve_family(sys)
    div = decks.lam_pow(0, (2,)) * decks.mu_pow(0, (3,)) - decks.mu[0][0]
    assert g[0].coeff((2,), (3,)) == c / div
    back = apply_operator(decks, g, 0, "vertical")
    assert back[0] == f[0].with_caps(back[0].trunc_h, back[0].trunc_v)


def test_solve_family_recovers_coboundary_generator():
    decks = exact_decks(q=2, d=1)
    h_vec = (mono((1,), (2,)).add(mono((0,), (4,), QC(Fraction(-2, 3)))),)
    F = tuple(apply_operator(decks, h_vec, i, "vertical") for i in range(2))
    sys = CochainSystem(decks, F, "vertical")
    g = solve_family(sys)
    assert g[0].terms == h_vec[0].terms


def test_solve_family_exact_postcondition_all_decks(rng):
    decks = exact_decks(q=2, d=2)
    h_vec = (random_series(rng, n_v=2, min_q=2, n_terms=6, trunc_h=20),
             random_series(rng, n_v=2, min_q=2, n_terms=6, trunc_h=20))
    F = tuple(apply_operator(decks, h_vec, i, "vertical") for i in range(2))
    sys = CochainSystem(decks, F, "vertical")
    g = solve_family(sys)
    for i in range(2):
        back = apply_operator(decks, g, i, "vertical")
        for a, b in zip(back, F[i]):
            assert a.sub(b.with_caps(a.trunc_h, a.trunc_v)).is_zero()


def test_solve_family_incompatible_raises():
    decks = exact_decks(q=2, d=1)
    # equal data at P != 0 cannot be compatible: the deck divisors differ
    f1 = (mono((1,), (2,)),)
    f2 = (mono((1,), (2,)),)
    sys = CochainSystem(decks, (f1, f2), "vertical")
    with pytest.raises(IncompatibleSystem):
        solve_family(sys)


def test_solve_family_resonance_refused():
    lam = UNIT_A
    mu2 = lam * HALF * HALF
    decks = DeckLinearData([[lam]], [[HALF, mu2]])
    f = (FormalSeries.zero(1, 2, 12, 8),
         FormalSeries.monomial(1, 2, (1,), (2, 0), QC(1), 12, 8))
    sys = CochainSystem(decks, (f,), "vertical")
    with pytest.raises(ResonanceError):
        solve_family(sys)


def test_solve_scaling_equivariance(rng):
    decks = exact_decks(q=1, d=1)
    f = (random_series(rng, min_q=2, n_terms=5, trunc_h=20),)
    c = QC(Fraction(5, 3), Fraction(1, 2))
    g = solve_family(CochainSystem(decks, (f,), "vertical"))
    g_scaled = solve_family(CochainSystem(decks, (tuple(s.scale(c) for s in f),),
                                          "vertical"))
    assert g_scaled[0].terms == {k: v * c for k, v in g[0].terms.items()}


def test_forward_inverse_family_consistency(rng):
    # transform the data per the inverse operator and check both solution
    # paths produce the same underlying solution series
    decks = exact_decks(q=2, d=1)
    h_vec = (random_series(rng, min_q=2, n_terms=5, trunc_h=24),)
    F_fwd = tuple(apply_operator(decks, h_vec, i, "vertical") for i in range(2))
    inverse = decks.inverted()
    F_inv = tuple(apply_operator(inverse, h_vec, i, "vertical") for i in range(2))
    g1 = solve_family(CochainSystem(decks, F_fwd, "vertical"))
    g2 = solve_family(CochainSystem(inverse, F_inv, "vertical"))
    assert g1[0].terms == g2[0].terms == h_vec[0].terms


def test_cochain_verify_flag(rng):
    decks = exact_decks(q=2, d=1)
    h_vec = (random_series(rng, min_q=2, n_terms=4, trunc_h=20),)
    F = tuple(apply_operator(decks, h_vec, i, "vertical") for i in range(2))
    assert CochainSystem(decks, F, "vertical").verify()
    broken = (F[0], (F[1][0].add(mono((1,), (2,))),))
    assert not CochainSystem(decks, broken, "vertical").verify()


FLOAT_DECKS = DeckLinearData([[cmath.exp(0.7j)], [cmath.exp(2.1j)]],
                             [[0.5 + 0.1j], [0.3 - 0.2j]])


def float_family(rng, scale, bump=0.0):
    """L_i(h) over CC for a random h at coefficient scale ``scale``; deck 1's
    vector is then multiplied by 1 + bump."""
    h = random_series(rng, min_q=2, n_terms=6, trunc_h=20, field=CC).scale(scale)
    F = [apply_operator(FLOAT_DECKS, (h,), i, "vertical") for i in range(2)]
    F[1] = (F[1][0].scale(1 + bump),)
    return CochainSystem(FLOAT_DECKS, F, "vertical")


def test_float_compatibility_is_relative_to_coefficient_scale(rng):
    # at scale 1e6 the rounding residual, about 3e-11, exceeds an absolute 1e-12
    big = float_family(rng, 1e6)
    assert big.verify()
    assert solve_family(big)[0].terms
    # at scale 1e-14 a 50 % bump leaves a residual, about 8e-16, under it
    tiny = float_family(rng, 1e-14, bump=0.5)
    assert not tiny.verify()
    with pytest.raises(IncompatibleSystem):
        solve_family(tiny)


def test_all_zero_float_family_is_compatible():
    zero = (FormalSeries.zero(1, 1, 12, 8, CC),)
    sys = CochainSystem(FLOAT_DECKS, (zero, zero), "vertical")
    assert sys.verify()
    assert solve_family(sys)[0].is_zero()


def test_scan_full_mode_covers_horizontal_targets():
    decks = exact_decks(q=1, d=1)
    rep = diophantine_scan(decks, 10, "full")
    assert rep.mode == "full"
    # unit-modulus lambdas keep horizontal divisors >= 1 - mu_max^2 = 3/4,
    # so the minimum still comes from a vertical target
    assert rep.argmin.target[0] == "v"
    assert rep.min_divisor >= 0.25 - 1e-12
    vert = diophantine_scan(decks, 10, "vertical")
    assert rep.min_divisor == vert.min_divisor
