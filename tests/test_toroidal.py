import cmath
import itertools
import json
import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest

from germlin.toroidal import (
    DeckLinearData, GeometryError, Kappa0Result, LatticeBasis,
    ToroidalSpec, convex_extension_eta, deck_consistency_residual,
    deck_linear_parts,
    kappa0_estimate, kappa0_grid_check,
    shear_to_standard, validate_irrationality,
)

SQRT2 = math.sqrt(2)
SQRT3 = math.sqrt(3)


def basic_spec(a=SQRT2, b=SQRT3):
    # rank-1 group on (C*)^2: columns [[1, a, b, i], [0, 1, i, 0]]
    return ToroidalSpec(n=2, a=0, b=0, q=1,
                        R1=[[a]], R2=[[b]], R3=[[1j]],
                        P0=[[1j]], P1=[[0j]])


def rank2_spec():
    # q = 2 inside n_h = 3
    return ToroidalSpec(n=3, a=0, b=0, q=2,
                        R1=[[0.3, 0.7]], R2=[[SQRT2, SQRT3]], R3=[[1j]],
                        P0=[[1j, 0.2], [0.1, 1j]], P1=[[0j], [0j]])


# ----------------------------------------------------------------------
# construction and irrationality


def test_rejects_rank_zero():
    with pytest.raises(GeometryError):
        ToroidalSpec(n=1, a=0, b=0, q=0, R1=[[]], R2=[[]], R3=[[1j]],
                     P0=[[]], P1=[[]])


def test_rejects_dependent_basis():
    with pytest.raises(GeometryError):
        # R3 real: no column spans the imaginary direction of coordinate 1
        ToroidalSpec(n=2, a=0, b=0, q=1, R1=[[0.1]], R2=[[0.2]],
                     R3=[[0.5]], P0=[[1j]], P1=[[0j]])


def test_irrationality_irrational_row_passes():
    res = validate_irrationality(basic_spec(SQRT2, SQRT3), 50)
    assert res.passed and res.witness is None and res.bound == 50


def test_irrationality_rational_row_witness():
    res = validate_irrationality(basic_spec(0.5, 1 / 3), 6)
    assert not res.passed
    assert res.witness == (6,)


def test_irrationality_zero_row_unit_witness():
    res = validate_irrationality(basic_spec(0.0, 0.0), 3)
    assert not res.passed
    assert res.witness == (1,)


def test_spec_json_roundtrip():
    spec = basic_spec()
    back = ToroidalSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
    assert np.allclose(back.period_matrix(), spec.period_matrix())


def test_spec_json_keeps_minus_zero_bit_for_bit():
    minus = complex(-0.0, -0.0)
    spec = ToroidalSpec(n=2, a=0, b=0, q=1, R1=[[-0.0]], R2=[[SQRT3]],
                        R3=[[complex(-0.0, 1.0)]], P0=[[1j]], P1=[[minus]])
    data = json.loads(json.dumps(spec.to_json_dict()))
    assert data["P1"][0][0] == {"re": "-0.0", "im": "-0.0"}
    back = ToroidalSpec.from_json_dict(data)
    for name in ("R1", "R2", "R3", "P0", "P1"):
        for row, row_back in zip(getattr(spec, name), getattr(back, name)):
            for x, y in zip(row, row_back):
                x, y = complex(x), complex(y)
                assert struct.pack("<dd", x.real, x.imag) == \
                    struct.pack("<dd", y.real, y.imag), (name, x, y)


# ----------------------------------------------------------------------
# shear and deck data


def test_shear_matches_worked_example():
    a, b = 0.25, 0.75
    basis = shear_to_standard(basic_spec(a, b))
    expect = np.array([[1, 0, b - a * 1j, 1j],
                       [0, 1, 1j, 0]])
    assert np.allclose(basis.gamma_std, expect)
    assert np.allclose(basis.gamma_prime[:, 0], [b - a * 1j, 1j])


def test_shear_identity_when_r1_zero():
    spec = basic_spec(0.0, SQRT3)
    basis = shear_to_standard(spec)
    assert np.allclose(basis.gamma, basis.gamma_std)


def test_deck_linear_parts_example():
    a, b = 0.3, 0.6
    basis = shear_to_standard(basic_spec(a, b))
    decks = deck_linear_parts(basis, [[0.5]])
    lam = decks.lam[0]
    assert abs(lam[0]) == pytest.approx(math.exp(2 * math.pi * a))
    assert lam[1] == pytest.approx(math.exp(-2 * math.pi))
    assert deck_consistency_residual(decks, basis) < 1e-12


def test_deck_linear_parts_zero_and_real_tau():
    gp = np.array([[0.0], [0.3]], dtype=complex)
    basis = LatticeBasis(np.zeros((2, 4), complex), np.zeros((2, 4), complex), gp)
    decks = deck_linear_parts(basis, [[0.5]])
    assert decks.lam[0][0] == pytest.approx(1.0)
    lam_real_tau = decks.lam[0][1]
    assert abs(lam_real_tau) == pytest.approx(1.0)
    assert cmath.phase(lam_real_tau) % (2 * math.pi) == pytest.approx(2 * math.pi * 0.3)


# ----------------------------------------------------------------------
# kappa0


def test_kappa0_standard_box_unit_direction():
    res = kappa0_estimate(np.eye(2), 0.5, 0.1, (1, 0))
    assert res.kappa0 == pytest.approx(1.0)
    assert res.q_point[0] == pytest.approx(1.5)
    assert kappa0_grid_check(np.eye(2), 0.5, 0.1, (1, 0), res, 500)


def test_kappa0_equal_margins_zero():
    res = kappa0_estimate(np.eye(2), 0.5, 0.5, (1, 1))
    assert res.kappa0 == 0.0


def test_kappa0_rejects_zero_p():
    with pytest.raises(GeometryError):
        kappa0_estimate(np.eye(2), 0.5, 0.1, (0, 0))


def test_kappa0_rejects_degenerate_slab():
    with pytest.raises(GeometryError):
        kappa0_estimate([[1.0, 0.0], [2.0, 0.0]], 0.5, 0.1, (1, 0))


def test_kappa0_random_slabs_grid_certified():
    rng = random.Random(17)
    for trial in range(30):
        slab = np.array([[rng.uniform(-2, 2) for _ in range(2)] for _ in range(2)])
        if abs(np.linalg.det(slab)) < 0.1:
            continue
        eps = rng.uniform(0.2, 1.0)
        eps_p = rng.uniform(0.0, eps * 0.9)
        p = (rng.randint(-4, 4), rng.randint(-4, 4))
        if p == (0, 0):
            continue
        res = kappa0_estimate(slab, eps, eps_p, p)
        assert kappa0_grid_check(slab, eps, eps_p, p, res, 400, seed=trial)


# ----------------------------------------------------------------------
# extension margin


def rank_q_spec(q):
    # rank q inside n_h = q + 1, with R1 = 0 and P0 = i I
    return ToroidalSpec(n=q + 1, a=0, b=0, q=q, R1=[[0.0] * q],
                        R2=[[math.sqrt(p) for p in (2, 3, 5, 7)[:q]]], R3=[[1j]],
                        P0=(1j * np.eye(q)).tolist(), P1=[[0j]] * q)


def test_extension_one_dim_unit_translate():
    eps = 0.25
    rep = convex_extension_eta(basic_spec(), eps)
    assert rep.eta >= eps           # comfortably certifiable margin
    assert rep.eta == 1
    assert rep.slab_halfwidth == 1.25


def test_extension_two_dim_margin():
    rep = convex_extension_eta(rank2_spec(), 0.3)
    assert rep.eta == Fraction(1, 2)


def test_extension_rejects_nonpositive_epsilon():
    for eps in (0, -0.1):
        with pytest.raises(GeometryError):
            convex_extension_eta(basic_spec(), eps)


def _in_translate_hull(x, eps):
    # B + 2 conv{+-e_i} with B = [-eps, 1 + eps]^q: l1 distance to B <= 2
    return sum(max(-eps - xi, xi - 1 - eps, 0) for xi in x) <= 2


def _translate_vertices(q, width):
    """Vertices of the +-e_i translates of [-width, 1 + width]^q."""
    for i in range(q):
        for step in (-1, 1):
            for v in itertools.product((-width, 1 + width), repeat=q):
                yield [x + step * (k == i) for k, x in enumerate(v)]


def test_extension_vertices_inside_hull_property():
    # exact re-check: eta fits every vertex, and eta + 1/1000 does not
    for q, eps in itertools.product((1, 2, 3, 4),
                                    (Fraction(1, 20), Fraction(1, 4), Fraction(2, 5))):
        rep = convex_extension_eta(rank_q_spec(q), eps)
        assert rep.slab_halfwidth == eps + rep.eta
        assert all(_in_translate_hull(v, eps)
                   for v in _translate_vertices(q, rep.slab_halfwidth))
        wider = rep.slab_halfwidth + Fraction(1, 1000)
        assert not all(_in_translate_hull(v, eps)
                       for v in _translate_vertices(q, wider))


def test_deck_linear_data_validation():
    from germlin.scalars import QC
    with pytest.raises(GeometryError):
        DeckLinearData([[1.0 + 0j], [2.0 + 0j]], [[0.5 + 0j]])  # row mismatch
    with pytest.raises(GeometryError):
        DeckLinearData([[1.0 + 0j]], [[0j]])                    # zero eigenvalue
    with pytest.raises(GeometryError):
        DeckLinearData([[QC(1)]], [[0.5 + 0j]])                 # mixed modes
