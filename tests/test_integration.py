"""End-to-end: toroidal lattice data -> deck eigenvalues -> scan ->
linearization, all in float mode."""

import math

import pytest

from germlin.divisors import diophantine_scan
from germlin.linearize import (
    check_commutation, full_linearize, generate_commuting_decks,
    vertical_linearize,
)
from germlin.scalars import CC
from germlin.toroidal import (
    ToroidalSpec, convex_extension_eta, deck_linear_parts,
    shear_to_standard, validate_irrationality,
)


def worked_example_spec():
    # rank-1 toroidal group on (C*)^2 with irrational gluing data
    return ToroidalSpec(n=2, a=0, b=0, q=1,
                        R1=[[0.05]], R2=[[math.sqrt(3)]], R3=[[1j]],
                        P0=[[1j]], P1=[[0j]])


def test_toroidal_pipeline_to_linearization():
    spec = worked_example_spec()
    assert validate_irrationality(spec, 30).passed
    basis = shear_to_standard(spec)
    decks = deck_linear_parts(basis, [[0.5]])
    assert decks.field is CC
    # deck moduli: e^{2 pi a} on the sheared coordinate, e^{-2 pi} on the
    # compact one
    assert abs(decks.lam[0][0]) == pytest.approx(math.exp(2 * math.pi * 0.05))
    assert abs(decks.lam[0][1]) == pytest.approx(math.exp(-2 * math.pi))

    report = diophantine_scan(decks, 7)
    assert not report.has_resonance

    gen = generate_commuting_decks(2, (2, 1, 1), 3, decks=decks)
    assert check_commutation(gen.pert) < 1e-12
    res = vertical_linearize(gen.pert, 3, report)
    assert res.max_residual < 1e-12

    full_report = diophantine_scan(decks, 7, "full")
    assert not full_report.has_resonance
    res_full = full_linearize(gen.pert, 3, full_report)
    assert res_full.max_residual < 1e-12
    for got, want in zip(res_full.phi_h + res_full.phi_v,
                         gen.phi0_h + gen.phi0_v):
        assert got.sub(want.truncate_v(3)).max_abs() < 1e-10

    eta = convex_extension_eta(spec, 0.25)
    assert eta.eta > 0
