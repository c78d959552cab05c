"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line per criterion (visible with -s / in captured output)."""

import cmath
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from germlin.divisors import CochainSystem, diophantine_scan, solve_family
from germlin.hopf import (
    FlatBundle, HopfSpec, ShilovPiece, TransitionGraph, build_covering,
    covering_piece, delta_membership, delta_membership_bruteforce,
    hopf_precheck, hopf_transition_graph, jordan_field_matrix, orbit_hits,
    shilov_constant, transition_chain_search,
)
from germlin.linearize import (
    certify_domination, conjugacy_residual, eta_sequence,
    fit_majorant_constants, full_linearize, generate_commuting_decks,
    grid_ladder, majorant_functional_solve, vertical_linearize,
)
from germlin.scalars import CC, QC
from germlin.series import FormalSeries, GridSpec, cauchy_bound_check
from germlin.toroidal import DeckLinearData, kappa0_estimate, kappa0_grid_check
from conftest import random_series

N_V = 5


def note(num, name):
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def to_float_series(s: FormalSeries) -> FormalSeries:
    out = FormalSeries(s.n_h, s.n_v, None, s.trunc_h, s.trunc_v, CC)
    out.terms = {k: c.to_complex() for k, c in s.terms.items()}
    return out


def to_float_decks(decks: DeckLinearData) -> DeckLinearData:
    return DeckLinearData([[x.to_complex() for x in row] for row in decks.lam],
                          [[x.to_complex() for x in row] for row in decks.mu])


def to_float_fixture(gen):
    from germlin.linearize import DeckPerturbation
    pert = gen.pert
    decks = to_float_decks(pert.decks)
    tau_h = tuple(tuple(to_float_series(s) for s in vec) for vec in pert.tau_h)
    tau_v = tuple(tuple(to_float_series(s) for s in vec) for vec in pert.tau_v)
    return DeckPerturbation(decks, tau_h, tau_v, pert.n_v, pert.n_h_budget)


# ----------------------------------------------------------------------


def test_criterion_01_exact_full_conjugacy_twenty_seeds():
    for seed in range(20):
        started = time.monotonic()
        gen = generate_commuting_decks(seed, (1, 1, 1), N_V)
        report = diophantine_scan(gen.pert.decks, N_V + 4, "full")
        result = full_linearize(gen.pert, N_V, report)
        assert len(result.residual_per_degree) == N_V + 1
        assert all(r == 0.0 for r in result.residual_per_degree), seed
        assert time.monotonic() - started < 10.0, f"seed {seed} too slow"
    note(1, "exact full-mode conjugacy, 20 seeds")


def test_criterion_02_oracle_recovery_exact_and_float():
    for seed in range(20):
        gen = generate_commuting_decks(seed, (1, 1, 1), N_V)
        report = diophantine_scan(gen.pert.decks, N_V + 4, "full")
        result = full_linearize(gen.pert, N_V, report)
        hidden = gen.phi0_h + gen.phi0_v
        for got, want in zip(result.phi_h + result.phi_v, hidden):
            assert got.terms == want.truncate_v(N_V).terms, seed
    # float mode on one fixture: recovery within 1e-10
    gen = generate_commuting_decks(4, (1, 1, 1), N_V)
    pert_f = to_float_fixture(gen)
    report = diophantine_scan(pert_f.decks, N_V + 4, "full")
    result = full_linearize(pert_f, N_V, report)
    for got, want in zip(result.phi_h + result.phi_v, gen.phi0_h + gen.phi0_v):
        want_f = to_float_series(want.truncate_v(N_V))
        diff = got.sub(want_f)
        assert diff.max_abs() < 1e-10
    note(2, "hidden coboundary recovered exactly (and to 1e-10 in float)")


def test_criterion_03_vertical_mode():
    for seed in (1, 2, 3, 4, 5):
        gen = generate_commuting_decks(seed, (1, 1, 1), N_V, vertical_only=True)
        report = diophantine_scan(gen.pert.decks, N_V + 4)
        result = vertical_linearize(gen.pert, N_V, report)
        assert result.phi_v[0].terms == gen.phi0_v[0].truncate_v(N_V).terms
        assert all(r == 0.0 for r in result.residual_per_degree)
    for seed in (6, 7, 8):
        gen = generate_commuting_decks(seed, (1, 1, 1), N_V)   # mixed phi0
        report = diophantine_scan(gen.pert.decks, N_V + 4)
        result = vertical_linearize(gen.pert, N_V, report)
        assert all(r == 0.0 for r in result.residual_per_degree)
    note(3, "vertical (foliation) mode: recovery and residuals")


def test_criterion_04_forward_inverse_consistency():
    # the inverse decks' divisors vanish where the forward ones do, so the
    # forward scan report admits both solves
    for seed in range(10):
        gen = generate_commuting_decks(seed, (1, 1, 1), N_V)
        inverse = gen.pert.inverted()
        report = diophantine_scan(gen.pert.decks, N_V + 4, "full")
        fwd = full_linearize(gen.pert, N_V, report)
        inv = full_linearize(inverse, N_V, report)
        assert inv.max_residual == 0.0
        for a, b in zip(fwd.phi_h + fwd.phi_v, inv.phi_h + inv.phi_v):
            assert a.terms == b.terms, seed
        vrep = diophantine_scan(gen.pert.decks, N_V + 4)
        vfwd = vertical_linearize(gen.pert, N_V, vrep)
        vinv = vertical_linearize(inverse, N_V, vrep)
        assert vinv.max_residual == 0.0
        for a, b in zip(vfwd.phi_v, vinv.phi_v):
            assert a.terms == b.terms, seed
    note(4, "forward and inverse operators give identical phi, 10 fixtures")


def test_criterion_05_scan_vs_bruteforce():
    started = time.monotonic()
    lam = cmath.exp(2j * math.pi * math.sqrt(2))
    mu = 0.5 + 0j
    decks = DeckLinearData([[lam]], [[mu]])
    report = diophantine_scan(decks, 30)
    best = math.inf
    for qn in range(2, 31):
        for pn in range(0, 31 - qn):
            for p in ({pn, -pn} if pn else {0}):
                best = min(best, abs(lam ** p * mu ** qn - mu))
    assert report.min_divisor == best
    assert report.d_const is not None and report.violations == []
    for size, mag in report.per_size_min.items():
        assert mag > report.d_const / size ** report.tau
    assert time.monotonic() - started < 5.0
    note(5, "scan min divisor equals brute force; (D, tau) valid everywhere")


def test_criterion_06_kappa0_hundred_instances():
    rng = random.Random(61)
    done = 0
    while done < 100:
        dim = rng.choice((2, 3))
        slab = np.array([[rng.uniform(-2, 2) for _ in range(dim)]
                         for _ in range(rng.choice((1, dim)))])
        if np.linalg.matrix_rank(slab) < slab.shape[0]:
            continue
        p = tuple(rng.randint(-5, 5) for _ in range(dim))
        if not any(p):
            continue
        eps = rng.uniform(0.1, 1.0)
        eps_p = rng.uniform(0.0, eps * 0.95)
        res = kappa0_estimate(slab, eps, eps_p, p)
        assert kappa0_grid_check(slab, eps, eps_p, p, res, 1000, seed=done)
        done += 1
    note(6, "kappa0 far-face estimate certified on 1000-point grids, 100 runs")


def test_criterion_07_majorant_certificates():
    c1, margin, tau, nu = 0.8, 0.25, 2.0, 3.0
    seq = eta_sequence(c1, margin, tau, nu, 40)
    assert seq.values[1] == 1.0
    assert seq.values[2] == pytest.approx((c1 / margin ** (tau + nu)) * 4 ** (tau + nu))
    for m in range(1, 41):
        assert seq.log_values[m] <= m * math.log(seq.d_growth) + 1e-9
    constants = {"r_prime": 0.3, "c1": c1, "eta_margin": margin, "tau": tau,
                 "nu": nu, "n_h": 1, "d": 1, "q": 1,
                 "c": 1.0, "c_prime": 1.0, "c_dprime": 1.0}
    cert = majorant_functional_solve("vertical", constants, 20)
    assert all(x >= 0 for x in cert.a_seq)
    full_constants = dict(constants, m_denom=2.0)
    for key in ("c", "c_prime", "c_dprime"):
        del full_constants[key]
    cert_full = majorant_functional_solve("full", full_constants, 20)
    assert all(x >= 0 for x in cert_full.a_seq)
    # end-to-end domination on a small-coefficient fixture
    gen = generate_commuting_decks(70, (1, 1, 1), 6, scale=Fraction(1, 100))
    report = diophantine_scan(gen.pert.decks, 10)
    result = vertical_linearize(gen.pert, 6, report)
    base = GridSpec([(0.9, 1.1)], 0.4, 12)
    fitted = fit_majorant_constants(gen.pert, report, base)
    cert_fit = majorant_functional_solve("vertical", fitted, 6)
    grids = grid_ladder(base, 6, fitted["eta_margin"])
    verdict = certify_domination(result, cert_fit, grids, gen.pert.decks)
    assert verdict.passed, verdict.rows
    note(7, "eta recursion, nonnegative majorants, domination through degree 6")


def test_criterion_08_delta_membership_two_hundred():
    started = time.monotonic()
    rng = random.Random(83)
    for trial in range(200):
        n = rng.choice((2, 3))
        alpha = sorted(rng.uniform(0.12, 0.93) for _ in range(n))
        spec = HopfSpec(tuple(complex(a) for a in alpha))
        if rng.random() < 0.5:
            v = [rng.randint(-4, 4) for _ in range(n)]
            beta = complex(np.prod([a ** e for a, e in zip(alpha, v)]))
        else:
            beta = complex(rng.uniform(0.05, 3.0), rng.uniform(-0.2, 0.2))
        fast = delta_membership(beta, spec, 1, 12)
        slow = delta_membership_bruteforce(beta, spec, 1, 12)
        assert fast.member == slow.member and fast.witness == slow.witness, trial
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"membership suite took {elapsed:.1f}s"
    note(8, "Delta-membership agrees with brute force on 200 instances")


def test_criterion_09_precheck_oracle_equivalence():
    rng = random.Random(97)
    done = 0
    while done < 50:
        n = rng.choice((2, 3))
        alpha = sorted(rng.uniform(0.15, 0.88) for _ in range(n))
        spec = HopfSpec(tuple(complex(a) for a in alpha))
        beta = complex(rng.uniform(0.08, 2.2), rng.uniform(-0.4, 0.4))
        try:
            rep = hopf_precheck(FlatBundle(beta), spec, n_v=6, exp_bound=8)
        except Exception:
            continue
        for it in rep.items:
            if it.name == "beta*alpha":
                target = beta * alpha[it.index]
            elif it.name == "beta/alpha":
                target = beta / alpha[it.index]
            else:
                target = beta ** (-it.power) * alpha[it.index]
            want = delta_membership_bruteforce(target, spec, 1, 8)
            assert it.passed == (not want.member), (alpha, beta, it)
        done += 1
    note(9, "precheck checklist equals direct brute force, 50 pairs")


def test_criterion_10_covering_and_chains():
    spec = HopfSpec((QC(Fraction(1, 2)), QC(Fraction(5, 9))))
    cov = build_covering(spec, Fraction(18, 100), [Fraction(1), Fraction(1)])
    for j, mod in enumerate((Fraction(1, 2), Fraction(5, 9))):
        assert cov.radii[3][j] * mod == cov.radii[0][j]   # exact, rational
    rng = random.Random(101)
    for _ in range(10000):
        z = [cmath.rect(rng.uniform(0.2, 3.0), rng.uniform(0, 2 * math.pi))
             for _ in range(2)]
        hits = orbit_hits(cov, spec, z)
        assert hits, f"uncovered point {z}"
        for j in range(2):
            assert {i for (i, jj, _) in hits if jj == j} != {1, 2, 3}
    for beta in (0.6 + 0.1j, 2.0 + 0.3j):      # contracting and expanding
        graph = hopf_transition_graph(cov, spec, FlatBundle(beta))
        chains = transition_chain_search(graph)
        assert all(chain is not None for chain in chains.values()), beta
    unimodular = hopf_transition_graph(cov, spec, FlatBundle(cmath.exp(0.7j)))
    assert all(chain is None
               for chain in transition_chain_search(unimodular).values())
    note(10, "covering exactness, 10^4-point Monte Carlo, chain search")


def test_criterion_11_shilov_constants():
    piece = ShilovPiece(3, 0, (0.8, 1.2), 2.1)
    closed = max(1 / 0.8, 1 / 2.1)
    assert abs(shilov_constant(piece, "diagonal") - closed) <= 1e-12
    rng = random.Random(103)
    alpha = 0.5
    jordan_piece = ShilovPiece(3, 1, (0.9, 1.3), 1.0)
    got = shilov_constant(jordan_piece, ("jordan", alpha))
    worst = 0.0
    for _ in range(1000):
        radii = [jordan_piece.disc_radius, rng.choice(jordan_piece.annulus),
                 jordan_piece.disc_radius]
        z = [cmath.rect(r, rng.uniform(0, 2 * math.pi)) for r in radii]
        inv = np.linalg.inv(jordan_field_matrix(alpha, z))
        worst = max(worst, float(np.max(np.sum(np.abs(inv), axis=1))))
    assert abs(got - worst) <= 1e-9
    note(11, "Shilov constants: closed form and dense-inversion cross-check")


def test_criterion_12_cauchy_bound_hundred_series():
    rng = random.Random(107)
    grid = GridSpec([(0.8, 1.25)], 0.7, 64)
    for trial in range(100):
        f = random_series(rng, n_terms=7, trunc_h=24, trunc_v=9)
        rep = cauchy_bound_check(f, grid, slack=1e-9)
        assert rep.passed, (trial, rep.worst_ratio)
    note(12, "coefficient-slice Cauchy bound on 100 random series")
