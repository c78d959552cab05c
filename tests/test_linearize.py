import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from germlin import linearize
from germlin.divisors import IncompatibleSystem, diophantine_scan
from germlin.linearize import (
    DeckPerturbation, LinearizeError, MajorantFailure, check_commutation,
    certify_domination, compose_decks, conjugate_linear_decks,
    conjugacy_residual, default_linear_decks, eta_sequence,
    fit_majorant_constants, full_linearize, generate_commuting_decks,
    grid_ladder, invert_near_identity, majorant_functional_solve, vec_sub,
    vertical_linearize, _rhs,
)
from germlin.scalars import QC
from germlin.series import FormalSeries, GridSpec, substitute_shift
from germlin.toroidal import DeckLinearData

N_V = 5
BUDGET = (N_V + 1) * 2 + 1


def mono(p, q, c=QC(1), n_h=1, d=1):
    return FormalSeries.monomial(n_h, d, p, q, c, BUDGET, N_V)


def zero_vec(ncomp, n_h=1, d=1):
    return tuple(FormalSeries.zero(n_h, d, BUDGET, N_V) for _ in range(ncomp))


def linear_pert(n_h=1, d=1, q=1):
    decks = default_linear_decks(n_h, d, q)
    zeros_h = tuple(zero_vec(n_h, n_h, d) for _ in range(q))
    zeros_v = tuple(zero_vec(d, n_h, d) for _ in range(q))
    return DeckPerturbation(decks, zeros_h, zeros_v, N_V, BUDGET)


# ----------------------------------------------------------------------
# generation and commutation


def test_linear_decks_have_zero_perturbation_and_commute():
    gen = generate_commuting_decks(1, (1, 1, 1), N_V, scale=Fraction(0))
    assert all(s.is_zero() for vec in gen.pert.tau_h for s in vec)
    assert all(s.is_zero() for vec in gen.pert.tau_v for s in vec)
    assert check_commutation(linear_pert(1, 1, 2)) == 0.0


def test_coboundary_vertical_quadratic_expansion_oracle():
    # phi0 = (0, v^2): tau^v = mu v + (mu^2 - mu) v^2 + O(v^3)
    decks = default_linear_decks(1, 1, 1)
    mu = decks.mu[0][0]
    phi0_v = (mono((0,), (2,)),)
    pert = conjugate_linear_decks(decks, zero_vec(1), phi0_v, N_V, BUDGET)
    coeff = pert.tau_v[0][0].coeff((0,), (2,))
    assert coeff == mu * mu - mu


def test_generated_decks_commute_exactly():
    for seed in (2, 3, 4):
        gen = generate_commuting_decks(seed, (1, 1, 2), N_V)
        assert check_commutation(gen.pert) == 0.0


def test_hand_broken_perturbation_fails_commutation():
    decks = default_linear_decks(1, 1, 2)
    tau_h = (zero_vec(1), zero_vec(1))
    tau_v = ((mono((0,), (2,)),), zero_vec(1))
    pert = DeckPerturbation(decks, tau_h, tau_v, N_V, BUDGET)
    residual = check_commutation(pert)
    assert residual > 0
    diff = vec_sub(compose_decks(pert, 0, 1), compose_decks(pert, 1, 0))
    assert any(key.q_size == 2 for comp in diff for key in comp.terms)


def test_generic_profile_hides_ground_truth():
    gen = generate_commuting_decks(5, (1, 1, 1), N_V, profile="generic")
    assert gen.phi0_h is None and gen.phi0_v is None
    assert check_commutation(gen.pert) == 0.0


def test_inverse_parts_invert_exactly():
    gen = generate_commuting_decks(6, (1, 1, 1), N_V)
    pert = gen.pert
    inverse = pert.inverted()
    inv_h, inv_v = inverse.tau_h[0], inverse.tau_v[0]
    # tau o tau^{-1} = Id: compose the perturbed maps directly
    decks = pert.decks
    lam, mu = decks.lam[0], decks.mu[0]
    # sigma = tauhat^{-1} + sigma*; compute tau(sigma(x)) - x
    pulled = tuple(s.compose_linear([QC(1) / x for x in lam],
                                    [QC(1) / x for x in mu])
                   for s in pert.stacked(0))
    shift_h = tuple(s.scale(lam[i]) for i, s in enumerate(inv_h))
    shift_v = tuple(s.scale(mu[j]) for j, s in enumerate(inv_v))
    comp = substitute_shift(pulled, shift_h, shift_v, N_V, BUDGET)
    lin_h = tuple(s.scale(lam[i]) for i, s in enumerate(inv_h))
    lin_v = tuple(s.scale(mu[j]) for j, s in enumerate(inv_v))
    total = tuple(a.add(b) for a, b in zip(lin_h + lin_v, comp))
    assert all(t.is_zero() for t in total)


@settings(max_examples=24, deadline=None, derandomize=True)
@given(st.integers(0, 99), st.sampled_from([(1, 1, 1), (1, 1, 2), (2, 1, 2), (1, 2, 2)]))
def test_inverted_decks_round_trip_and_share_the_solution(seed, dims):
    # Phi o tauhat_i = tau_i o Phi gives Phi o tauhat_i^{-1} = tau_i^{-1} o Phi,
    # so solving the inverse decks reproduces the forward phi; with q = 2
    # the compatibility check of the inverse family is not vacuous
    pert = generate_commuting_decks(seed, dims, 4, scale=Fraction(1, 16)).pert
    inverse = pert.inverted()
    again = inverse.inverted()
    assert (again.decks.lam, again.decks.mu) == (pert.decks.lam, pert.decks.mu)
    for got, want in zip(again.tau_h + again.tau_v, pert.tau_h + pert.tau_v):
        assert [s.terms for s in got] == [s.terms for s in want]
    for solve in (full_linearize, vertical_linearize):
        fwd, inv = solve(pert, 4), solve(inverse, 4)
        assert inv.max_residual == 0.0
        assert [s.terms for s in inv.phi_h + inv.phi_v] == \
            [s.terms for s in fwd.phi_h + fwd.phi_v]


# ----------------------------------------------------------------------
# vertical linearization


def test_vertical_trivial_on_linear_decks():
    pert = linear_pert()
    rep = diophantine_scan(pert.decks, N_V + 4)
    res = vertical_linearize(pert, N_V, rep)
    assert all(s.is_zero() for s in res.phi_v)
    assert res.max_residual == 0.0


def test_vertical_recovers_purely_vertical_coboundary():
    gen = generate_commuting_decks(7, (1, 1, 1), N_V, vertical_only=True)
    rep = diophantine_scan(gen.pert.decks, N_V + 4)
    res = vertical_linearize(gen.pert, N_V, rep)
    assert res.max_residual == 0.0
    assert res.phi_v[0].terms == gen.phi0_v[0].truncate_v(N_V).terms


def test_vertical_mixed_coboundary_residual_vanishes():
    gen = generate_commuting_decks(8, (1, 1, 1), N_V)
    rep = diophantine_scan(gen.pert.decks, N_V + 4)
    res = vertical_linearize(gen.pert, N_V, rep)
    assert res.max_residual == 0.0


def test_vertical_degree_two_step_is_family_solve():
    from germlin.divisors import CochainSystem, solve_family
    gen = generate_commuting_decks(9, (1, 1, 2), N_V)
    pert = gen.pert
    rep = diophantine_scan(pert.decks, N_V + 4)
    res = vertical_linearize(pert, N_V, rep)
    rhs2 = tuple((pert.tau_v[i][0].homogeneous_part(2),) for i in range(2))
    base = solve_family(CochainSystem(pert.decks, rhs2, "vertical"), rep)
    assert res.phi_v[0].homogeneous_part(2).terms == base[0].terms


def test_vertical_incompatible_decks_raise():
    decks = default_linear_decks(1, 1, 2)
    tau_h = (zero_vec(1), zero_vec(1))
    tau_v = ((mono((1,), (2,)),), zero_vec(1))
    pert = DeckPerturbation(decks, tau_h, tau_v, N_V, BUDGET)
    with pytest.raises(IncompatibleSystem):
        vertical_linearize(pert, N_V)


# ----------------------------------------------------------------------
# full linearization


def test_full_trivial_on_linear_decks():
    pert = linear_pert()
    rep = diophantine_scan(pert.decks, N_V + 4, "full")
    res = full_linearize(pert, N_V, rep)
    assert all(s.is_zero() for s in res.phi_h + res.phi_v)
    assert res.max_residual == 0.0


def test_full_recovers_hidden_coboundary_exactly():
    for seed in (11, 12, 13):
        gen = generate_commuting_decks(seed, (1, 1, 1), N_V)
        rep = diophantine_scan(gen.pert.decks, N_V + 4, "full")
        res = full_linearize(gen.pert, N_V, rep)
        assert res.max_residual == 0.0
        assert res.phi_h[0].terms == gen.phi0_h[0].truncate_v(N_V).terms
        assert res.phi_v[0].terms == gen.phi0_v[0].truncate_v(N_V).terms


def test_full_component_isolation_horizontal_only():
    gen = generate_commuting_decks(14, (1, 1, 1), N_V, horizontal_only=True)
    rep = diophantine_scan(gen.pert.decks, N_V + 4, "full")
    res = full_linearize(gen.pert, N_V, rep)
    assert res.max_residual == 0.0
    assert all(s.is_zero() for s in res.phi_v)
    assert res.phi_h[0].terms == gen.phi0_h[0].truncate_v(N_V).terms


def test_full_forward_inverse_identical_phi():
    for seed in (15, 16):
        gen = generate_commuting_decks(seed, (1, 1, 1), N_V)
        rep = diophantine_scan(gen.pert.decks, N_V + 4, "full")
        fwd = full_linearize(gen.pert, N_V, rep)
        inv = full_linearize(gen.pert.inverted(), N_V, rep)
        assert inv.max_residual == 0.0
        for a, b in zip(fwd.phi_h + fwd.phi_v, inv.phi_h + inv.phi_v):
            assert a.terms == b.terms


def test_solves_below_fixture_truncation():
    # fixture at n_v = 8, solved at n_v = 5: the deck keys above degree 5
    # only feed degrees above it and must be cut, not rejected
    gen = generate_commuting_decks(3, (1, 1, 2), 8, scale=Fraction(1, 16))
    full = full_linearize(gen.pert, 5)
    assert full.n_v == 5 and full.max_residual == 0.0
    for got, want in zip(full.phi_h + full.phi_v, gen.phi0_h + gen.phi0_v):
        assert got.terms == want.truncate_v(5).terms
        assert got.trunc_v == 5
    deep = vertical_linearize(gen.pert, 8)
    vert = vertical_linearize(gen.pert, 5)
    assert vert.max_residual == 0.0
    for got, want in zip(vert.phi_v, deep.phi_v):
        assert got.terms == want.truncate_v(5).terms


def test_residual_sensitive_to_coefficient_bump():
    gen = generate_commuting_decks(17, (1, 1, 1), N_V)
    rep = diophantine_scan(gen.pert.decks, N_V + 4, "full")
    res = full_linearize(gen.pert, N_V, rep)
    bumped_v = (res.phi_v[0].add(mono((0,), (3,), QC(1))),)
    residuals = conjugacy_residual(bumped_v, gen.pert, N_V, "full",
                                   phi_h=res.phi_h)
    assert residuals[3] > 0


@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_vertical_residual_sensitive_to_coefficient_bump(direction):
    gen = generate_commuting_decks(17, (1, 1, 2), N_V)
    pert = gen.pert if direction == "forward" else gen.pert.inverted()
    rep = diophantine_scan(gen.pert.decks, N_V + 4)
    res = vertical_linearize(pert, N_V, rep)
    assert res.max_residual == 0.0
    bumped_v = (res.phi_v[0].add(mono((0,), (3,), QC(1))),)
    residuals = conjugacy_residual(bumped_v, pert, N_V, "vertical")
    assert residuals[:3] == [0.0, 0.0, 0.0]
    assert residuals[3] > 0


def _bumped(vec, degree):
    """vec with 1/7 added to its first component at P = 0, Q = (degree, 0, ...)."""
    s = vec[0]
    q = (degree,) + (0,) * (s.n_v - 1)
    bump = FormalSeries.monomial(s.n_h, s.n_v, (0,) * s.n_h, q, QC(Fraction(1, 7)),
                                 s.trunc_h, s.trunc_v)
    return (s.add(bump),) + tuple(vec[1:])


@pytest.mark.parametrize("mode", ["full", "vertical"])
@pytest.mark.parametrize("degree", [3, N_V])
@pytest.mark.parametrize("dims", [(1, 1, 1), (1, 2, 2), (2, 1, 2)])
def test_residual_reuses_the_top_degree_composition(dims, degree, mode):
    # the residual takes the solver's composition at cap n_v, made before
    # phi's degree-n_v part was added: that part moves rhs_i only above
    # degree n_v, so the residual is the recomposed one even for a wrong phi
    gen = generate_commuting_decks(4, dims, N_V, scale=Fraction(1, 16))
    res = (full_linearize if mode == "full" else vertical_linearize)(gen.pert, N_V)
    phi_h, phi_v = res.phi_h, _bumped(res.phi_v, degree)
    below = tuple(s.sub(s.homogeneous_part(N_V)) for s in phi_h + phi_v)
    reused = conjugacy_residual(phi_v, gen.pert, N_V, mode, phi_h,
                                rhs=_rhs(gen.pert, below, mode, N_V))
    assert reused == conjugacy_residual(phi_v, gen.pert, N_V, mode, phi_h)
    assert reused[degree] > 0


@pytest.mark.parametrize("solve", [full_linearize, vertical_linearize])
@pytest.mark.parametrize("dims, n_v", [((1, 2, 2), 3), ((1, 1, 1), N_V)])
def test_residual_sees_a_wrong_solve(monkeypatch, solve, dims, n_v):
    # a degree-3 coefficient off in the solve shows in the residual the
    # solver hands over: as its top degree, or below it with one deck, where
    # the family stays compatible
    calls, solve_family = [], linearize.solve_family

    def bumped(system, report=None):
        calls.append(None)
        out = solve_family(system, report)
        return _bumped(out, 3) if len(calls) == 2 else out

    monkeypatch.setattr(linearize, "solve_family", bumped)
    gen = generate_commuting_decks(4, dims, n_v, scale=Fraction(1, 16))
    res = solve(gen.pert, n_v)
    assert res.residual_per_degree[:3] == [0.0, 0.0, 0.0]
    assert res.residual_per_degree[3] > 0


# ----------------------------------------------------------------------
# majorant machinery


def test_eta_base_and_degree_two():
    c1, margin, tau, nu = 0.7, 0.25, 2.0, 3.0
    seq = eta_sequence(c1, margin, tau, nu, 10)
    assert seq.values[1] == 1.0
    want2 = (c1 / margin ** (tau + nu)) * 4 ** (tau + nu)
    assert seq.values[2] == pytest.approx(want2, rel=1e-12)


def test_eta_growth_bound_and_log_domain():
    seq = eta_sequence(2.0, 0.2, 3.0, 4.0, 40)
    for m in range(1, 41):
        assert seq.log_values[m] <= m * math.log(seq.d_growth) + 1e-9
    # direct recursion check at degree 3: partitions {1,1,1}, {2}, {1,1}, ...
    c1, margin, tau, nu = 2.0, 0.2, 3.0, 4.0
    pref = c1 / margin ** (tau + nu)
    e2 = pref * 4 ** (tau + nu)
    best = max(1.0, e2)
    want3 = pref * 2 ** (3 * (tau + nu)) * best
    assert seq.values[3] == pytest.approx(want3, rel=1e-9)


def vertical_constants(**over):
    base = {"r_prime": 0.3, "c1": 0.5, "eta_margin": 0.25, "tau": 1.0,
            "nu": 3.0, "n_h": 1, "d": 1, "q": 1,
            "c": 1.0, "c_prime": 1.0, "c_dprime": 1.0}
    base.update(over)
    return base


def test_majorant_vertical_base_coefficients():
    cert = majorant_functional_solve("vertical", vertical_constants(), 12)
    # A_2 = B_2 = [G(t,0)]_2 = R'^2 for d = 1
    assert cert.a_seq[2] == pytest.approx(0.3 ** 2)
    assert all(x >= 0 for x in cert.a_seq)


def test_majorant_failure_is_separate_from_input_errors(monkeypatch):
    # a negative coefficient raised the same class as a bad mode or m_max
    import germlin.linearize as lin

    for bad in (lambda: majorant_functional_solve("bogus", vertical_constants(), 6),
                lambda: majorant_functional_solve("vertical", vertical_constants(), 1)):
        with pytest.raises(LinearizeError) as info:
            bad()
        assert not isinstance(info.value, MajorantFailure)
    g_of = lin._g_of
    monkeypatch.setattr(lin, "_g_of", lambda *args: [-x for x in g_of(*args)])
    with pytest.raises(MajorantFailure, match="degree 2"):
        majorant_functional_solve("vertical", vertical_constants(), 6)


def test_majorant_vertical_d2_base_count():
    cert = majorant_functional_solve("vertical", vertical_constants(d=2), 6)
    # three multi-indices of size 2 in two variables
    assert cert.a_seq[2] == pytest.approx(3 * 0.3 ** 2)


def test_majorant_full_low_degrees_vanish():
    constants = {"r_prime": 0.3, "c1": 0.5, "eta_margin": 0.25, "tau": 1.0,
                 "nu": 3.0, "n_h": 1, "d": 1, "q": 1, "m_denom": 2.0}
    cert = majorant_functional_solve("full", constants, 10)
    assert cert.a_seq[2] == 0.0 and cert.a_seq[3] == 0.0
    want4 = (0.3 ** 2) * (1.0 / 2.0 ** 2)
    assert cert.a_seq[4] == pytest.approx(want4)
    assert all(x >= 0 for x in cert.a_seq)


def test_grid_ladder_minorants():
    base = GridSpec([(0.9, 1.1)], 0.5, 8)
    grids = grid_ladder(base, 12, 0.25)
    r1 = base.v_radius
    for g in grids[2:]:
        assert g.v_radius > r1 * math.exp(-1)
        for row, base_row in zip(g.h_radii, base.h_radii):
            for r, rb in zip(row, base_row):
                assert abs(math.log(r)) >= abs(math.log(rb)) * 0.5


def test_certify_domination_end_to_end():
    gen = generate_commuting_decks(21, (1, 1, 1), 6, scale=Fraction(1, 100))
    rep = diophantine_scan(gen.pert.decks, 10)
    res = vertical_linearize(gen.pert, 6, rep)
    base = GridSpec([(0.9, 1.1)], 0.4, 12)
    constants = fit_majorant_constants(gen.pert, rep, base)
    cert = majorant_functional_solve("vertical", constants, 6)
    grids = grid_ladder(base, 6, constants["eta_margin"])
    verdict = certify_domination(res, cert, grids, gen.pert.decks)
    assert verdict.passed, verdict.rows


def test_certify_domination_zero_phi_trivial():
    pert = linear_pert()
    rep = diophantine_scan(pert.decks, 8)
    res = vertical_linearize(pert, N_V, rep)
    cert = majorant_functional_solve("vertical", vertical_constants(), N_V)
    grids = grid_ladder(GridSpec([(1.0,)], 0.4, 8), N_V)
    verdict = certify_domination(res, cert, grids, pert.decks)
    assert verdict.passed


def test_certify_domination_sensitivity_zeroed_cert():
    gen = generate_commuting_decks(22, (1, 1, 1), 4, scale=Fraction(1, 50))
    rep = diophantine_scan(gen.pert.decks, 8)
    res = vertical_linearize(gen.pert, 4, rep)
    base = GridSpec([(0.9, 1.1)], 0.4, 8)
    constants = fit_majorant_constants(gen.pert, rep, base)
    cert = majorant_functional_solve("vertical", constants, 4)
    cert.a_seq[:] = [0.0] * len(cert.a_seq)
    grids = grid_ladder(base, 4, constants["eta_margin"])
    verdict = certify_domination(res, cert, grids, gen.pert.decks)
    assert not verdict.passed
    assert verdict.first_fail == 2


def test_eta_partition_max_matches_naive_enumeration():
    # brute-force the partition maximum for small degrees
    c1, margin, tau, nu = 1.3, 0.3, 1.5, 2.0
    seq = eta_sequence(c1, margin, tau, nu, 8)
    pref = c1 / margin ** (tau + nu)

    def partitions(total, cap):
        # multisets of parts in 1..cap summing to exactly total
        if total == 0:
            yield ()
            return
        for first in range(1, min(total, cap) + 1):
            for rest in partitions(total - first, first):
                yield (first,) + rest

    for m in range(2, 9):
        best = 1.0  # empty product, s = m
        for t in range(1, m + 1):
            for parts in partitions(t, m - 1):
                prod = 1.0
                for p in parts:
                    prod *= seq.values[p]
                best = max(best, prod)
        want = pref * 2 ** (m * (tau + nu)) * best
        assert seq.values[m] == pytest.approx(want, rel=1e-9), m


def test_inverse_deck_both_composition_orders():
    gen = generate_commuting_decks(55, (1, 1, 1), N_V)
    pert = gen.pert
    decks = pert.decks
    inverse = pert.inverted()
    inv_h, inv_v = inverse.tau_h[0], inverse.tau_v[0]
    lam, mu = decks.lam[0], decks.mu[0]
    lam_inv = tuple(QC(1) / x for x in lam)
    mu_inv = tuple(QC(1) / x for x in mu)
    star = pert.stacked(0)
    inv = inv_h + inv_v

    # tau^{-1} o tau = Id: perturbation of the composite must vanish
    pulled = tuple(s.compose_linear(lam, mu) for s in inv)
    shift_h = tuple(s.scale(lam_inv[i]) for i, s in enumerate(star[:1]))
    shift_v = tuple(s.scale(mu_inv[j]) for j, s in enumerate(star[1:]))
    comp = substitute_shift(pulled, shift_h, shift_v, N_V, BUDGET)
    lin = (tuple(s.scale(lam_inv[i]) for i, s in enumerate(star[:1]))
           + tuple(s.scale(mu_inv[j]) for j, s in enumerate(star[1:])))
    total = tuple(a.add(b) for a, b in zip(lin, comp))
    assert all(t.is_zero() for t in total)
