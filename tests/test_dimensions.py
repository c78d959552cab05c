"""Cross-cutting checks at higher desk dimensions and remaining edge
surfaces: multi-coordinate decks, the box part of the slab estimate,
float-mode cleanup, and truncation budgets."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from germlin.divisors import diophantine_scan
from germlin.linearize import (
    check_commutation, full_linearize, generate_commuting_decks,
    vertical_linearize,
)
from germlin.scalars import CC, QC
from germlin.series import (
    FormalSeries, GridSpec, SeriesError, TruncationOverflow, substitute_shift,
)
from germlin.toroidal import kappa0_estimate, kappa0_grid_check


def test_full_linearize_two_decks():
    gen = generate_commuting_decks(31, (1, 1, 2), 4)
    assert check_commutation(gen.pert) == 0.0
    rep = diophantine_scan(gen.pert.decks, 8, "full")
    res = full_linearize(gen.pert, 4, rep)
    assert res.max_residual == 0.0
    for got, want in zip(res.phi_h + res.phi_v, gen.phi0_h + gen.phi0_v):
        assert got.terms == want.truncate_v(4).terms


def test_full_linearize_two_vertical_directions():
    gen = generate_commuting_decks(32, (1, 2, 1), 4)
    rep = diophantine_scan(gen.pert.decks, 8, "full")
    res = full_linearize(gen.pert, 4, rep)
    assert res.max_residual == 0.0
    assert len(res.phi_v) == 2
    for got, want in zip(res.phi_h + res.phi_v, gen.phi0_h + gen.phi0_v):
        assert got.terms == want.truncate_v(4).terms


def test_full_linearize_two_horizontal_directions():
    gen = generate_commuting_decks(33, (2, 1, 1), 4)
    rep = diophantine_scan(gen.pert.decks, 8, "full")
    res = full_linearize(gen.pert, 4, rep)
    assert res.max_residual == 0.0
    assert len(res.phi_h) == 2


def test_vertical_linearize_two_decks_two_fibers():
    gen = generate_commuting_decks(34, (1, 2, 2), 4, vertical_only=True)
    rep = diophantine_scan(gen.pert.decks, 8)
    res = vertical_linearize(gen.pert, 4, rep)
    assert res.max_residual == 0.0
    for got, want in zip(res.phi_v, gen.phi0_v):
        assert got.terms == want.truncate_v(4).terms


# ----------------------------------------------------------------------


def test_kappa0_with_box_directions():
    slab = np.array([[1.0, 0.0, 0.2]])
    r_im = np.array([[0.0, 1.0, 0.0], [0.3, 0.0, 1.0]])
    res = kappa0_estimate(slab, 0.6, 0.2, (2, -1, 1), rcap=0.7, r_im=r_im)
    assert res.kappa0 > 0
    assert kappa0_grid_check(slab, 0.6, 0.2, (2, -1, 1), res, 800,
                             rcap=0.7, r_im=r_im, seed=5)


# ----------------------------------------------------------------------


def test_mode_mismatch_rejected():
    f = FormalSeries.monomial(1, 1, (0,), (2,), QC(1), 8, 8)
    g = FormalSeries.monomial(1, 1, (0,), (2,), 1 + 0j, 8, 8, field=CC)
    with pytest.raises(SeriesError):
        f.add(g)


def test_float_cleanup_drops_relative_noise():
    f = FormalSeries(1, 1, {((0,), (2,)): 1.0 + 0j,
                            ((1,), (2,)): 1e-16 + 0j}, 8, 8, field=CC)
    assert len(f.terms) == 1


def test_float_overflow_tolerance_is_relative():
    # an absolute 1e-13 raised on 1e-9 beside 1e6, though 1e-9 is below the
    # prune floor, and silently dropped a coefficient at scale 1e-14
    def mono(p, c, trunc_h):
        return FormalSeries.monomial(1, 1, (p,), (2,), c + 0j, trunc_h, 8, field=CC)

    out = mono(0, 1e6, 1).add(mono(2, 1e-9, 2))
    assert list(out.terms) == [((0,), (2,))]
    with pytest.raises(TruncationOverflow):
        mono(0, 1e-14, 1).add(mono(2, 1e-14, 2))


def test_substitute_overflow_raises_on_small_budget():
    # (h + h^2 v^2)^{-1} spreads to h^{k-1} v^{2k}: |P| = 3 at k = 4
    f = FormalSeries.monomial(1, 1, (-1,), (0,), QC(1), 4, 8)
    phi = FormalSeries.monomial(1, 1, (2,), (2,), QC(1), 4, 8)
    with pytest.raises(TruncationOverflow):
        substitute_shift((f,), [phi], None, 8, n_h=1)
    wide, = substitute_shift((f,), [phi], None, 8, n_h=4)
    assert wide.coeff((3,), (8,)) == QC(1)


def test_substitute_transient_spread_is_not_an_error():
    # intermediate factors overshoot but the result fits |P| <= 3
    f = FormalSeries.monomial(1, 1, (-3,), (0,), QC(1), 3, 8)
    phi = FormalSeries.monomial(1, 1, (1,), (2,), QC(1), 3, 8)
    out, = substitute_shift((f,), [phi], None, 6, n_h=3)
    assert out.coeff((-3,), (2,)) == QC(-3)


def test_grid_requires_positive_data():
    with pytest.raises(SeriesError):
        GridSpec([(1.0,)], 0.5, angles=3)
    with pytest.raises(SeriesError):
        GridSpec([(0.0,)], 0.5)
    with pytest.raises(SeriesError):
        GridSpec([(1.0,)], -0.5)


def test_vertical_linearize_two_decks_mixed_perturbation():
    # mixed phi0: the induced vertical right-hand sides must stay pairwise
    # compatible at every degree for both decks
    gen = generate_commuting_decks(35, (1, 1, 2), 5)
    rep = diophantine_scan(gen.pert.decks, 9)
    res = vertical_linearize(gen.pert, 5, rep)
    assert res.max_residual == 0.0


def test_full_linearize_depth_eight():
    gen = generate_commuting_decks(36, (1, 1, 1), 8)
    rep = diophantine_scan(gen.pert.decks, 12, "full")
    res = full_linearize(gen.pert, 8, rep)
    assert res.max_residual == 0.0
    for got, want in zip(res.phi_h + res.phi_v, gen.phi0_h + gen.phi0_v):
        assert got.terms == want.truncate_v(8).terms
