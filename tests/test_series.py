import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from germlin.scalars import CC, QC, QQI
from germlin.series import (
    ExponentKey, FormalSeries, GridSpec, SeriesError, TruncationOverflow,
    cauchy_bound_check, grid_sup_norm, series_from_dict, series_to_dict,
    substitute_shift,
)
from conftest import random_qc, random_series


def mono(p, q, c=QC(1), n_h=1, n_v=1, th=12, tv=8, field=QQI):
    return FormalSeries.monomial(n_h, n_v, p, q, c, th, tv, field)


# ----------------------------------------------------------------------
# ring operations


def test_add_identity(rng):
    g = random_series(rng)
    z = FormalSeries.zero(1, 1, 12, 8)
    assert z.add(g) == g


def test_mul_exponent_addition():
    f = mono((1,), (2,))
    g = mono((-1,), (2,))
    prod = f.mul(g)
    assert prod == mono((0,), (4,))


def test_mul_matches_bruteforce_convolution(rng):
    # independent oracle: explicit double loop over term pairs
    for _ in range(20):
        f = random_series(rng, max_p=3, max_q=3, trunc_h=20, trunc_v=12)
        g = random_series(rng, max_p=3, max_q=3, trunc_h=20, trunc_v=12)
        prod = f.mul(g)
        target = next(iter(prod.terms)) if prod.terms else None
        if target is None:
            continue
        acc = QC(0)
        for (p1, q1), c1 in f.terms.items():
            for (p2, q2), c2 in g.terms.items():
                p = tuple(a + b for a, b in zip(p1, p2))
                q = tuple(a + b for a, b in zip(q1, q2))
                if (p, q) == (target.P, target.Q):
                    acc = acc + c1 * c2
        assert prod.terms[target] == acc


def test_mul_key_order_matches_double_loop(rng):
    # pairs above the cap are skipped, never reordered: keys come out in
    # the order the full double loop first meets them
    for _ in range(20):
        f = random_series(rng, max_p=3, max_q=5, n_terms=8, trunc_h=20, trunc_v=6)
        g = random_series(rng, max_p=3, max_q=5, n_terms=8, trunc_h=20, trunc_v=6)
        met = {}
        for (p1, q1) in f.terms:
            for (p2, q2) in g.terms:
                if sum(q1) + sum(q2) <= 6:
                    met.setdefault((tuple(a + b for a, b in zip(p1, p2)),
                                    tuple(a + b for a, b in zip(q1, q2))), None)
        prod = f.mul(g)
        assert list(prod.terms) == [k for k in met if k in prod.terms]


def test_mul_dimension_mismatch():
    f = mono((1,), (0,))
    g = FormalSeries.monomial(2, 1, (1, 0), (0,), QC(1), 12, 8)
    with pytest.raises(SeriesError):
        f.mul(g)


def test_mul_v_trunc_zero_with_v_terms():
    f = FormalSeries.monomial(1, 1, (0,), (0,), QC(1), 12, 0)
    g = mono((0,), (2,))
    with pytest.raises(SeriesError):
        f.mul(g)


@st.composite
def small_series(draw):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        p = draw(st.integers(-2, 2))
        q = draw(st.integers(0, 3))
        num = draw(st.integers(-4, 4))
        den = draw(st.integers(1, 5))
        terms[((p,), (q,))] = QC(Fraction(num, den))
    return FormalSeries(1, 1, terms, 30, 12)


@settings(max_examples=60, deadline=None)
@given(small_series(), small_series(), small_series())
def test_exact_ring_laws(f, g, k):
    assert f.mul(g) == g.mul(f)
    assert f.add(g) == g.add(f)
    assert f.mul(g.mul(k)) == f.mul(g).mul(k)
    assert f.mul(g.add(k)) == f.mul(g).add(f.mul(k))


# ----------------------------------------------------------------------
# homogeneous parts


def test_homogeneous_part_definition():
    f = FormalSeries(2, 2, {
        ((0, 0), (2, 0)): QC(1),          # v1^2
        ((0, 1), (1, 1)): QC(1),          # h2 v1 v2
        ((0, 0), (3, 0)): QC(1),          # v1^3
    }, 6, 6)
    part = f.homogeneous_part(2)
    assert set(part.terms) == {ExponentKey((0, 0), (2, 0)),
                               ExponentKey((0, 1), (1, 1))}


def test_homogeneous_part_beyond_cap_is_zero(rng):
    f = random_series(rng)
    assert f.homogeneous_part(f.trunc_v + 1).is_zero()


def test_homogeneous_reassembly(rng):
    for _ in range(10):
        f = random_series(rng, n_terms=8)
        acc = FormalSeries.zero(1, 1, f.trunc_h, f.trunc_v)
        for k in range(f.trunc_v + 1):
            acc = acc.add(f.homogeneous_part(k))
        assert acc == f


def test_homogeneous_part_is_projection(rng):
    f = random_series(rng, n_terms=8)
    for k in range(4):
        once = f.homogeneous_part(k)
        assert once.homogeneous_part(k) == once


# ----------------------------------------------------------------------
# substitution


def test_substitute_identity(rng):
    f = random_series(rng)
    out, = substitute_shift((f,), None, None, f.trunc_v, f.trunc_h)
    assert out == f


def test_substitute_linear_target():
    f = mono((0,), (1,))
    phi = mono((0,), (2,))
    out, = substitute_shift((f,), None, [phi], 8)
    assert out == f.add(mono((0,), (2,), th=out.trunc_h, tv=8))


def test_substitute_negative_power_geometric_oracle():
    # f = h^-1 v^2 at h -> h + h v^2 gives h^-1 v^2 (1+v^2)^-1
    f = mono((-1,), (2,), tv=8)
    phi = mono((1,), (2,), tv=8)
    out, = substitute_shift((f,), [phi], None, 6)
    expect = {
        ExponentKey((-1,), (2,)): QC(1),
        ExponentKey((-1,), (4,)): QC(-1),
        ExponentKey((-1,), (6,)): QC(1),
    }
    assert out.terms == expect


def test_substitute_requires_v_order_two():
    f = mono((1,), (0,))
    bad = mono((0,), (1,))
    with pytest.raises(SeriesError):
        substitute_shift((f,), [bad], None, 8)


def test_substitute_cuts_target_above_cap():
    # keys of f above the cap only feed degrees above it
    f = mono((-1,), (2,), tv=8).add(mono((1,), (7,), tv=8))
    phi = mono((1,), (2,), tv=8)
    out, = substitute_shift((f,), [phi], None, 5, 12)
    assert out.trunc_v == 5
    assert (out,) == substitute_shift((f.truncate_v(5),), [phi], None, 5, 12)


def test_substitute_is_termwise_sum_in_target_order(rng):
    # shared prefix products and the single accumulator give the sum of the
    # per-key substitutions, keys listed in the order that sum meets them
    for _ in range(20):
        f = random_series(rng, n_h=2, n_v=2, n_terms=8, max_p=2,
                          trunc_h=40, trunc_v=6)
        shifts = [random_series(rng, n_h=2, n_v=2, n_terms=2, max_p=1,
                                min_q=2, trunc_h=40, trunc_v=6)
                  for _ in range(4)]
        out, = substitute_shift((f,), shifts[:2], shifts[2:], 6, 40)
        ref = FormalSeries.zero(2, 2, 40, 6)
        for key, c in f.terms.items():
            ref = ref.add(substitute_shift((f.like({key: c}),), shifts[:2],
                                           shifts[2:], 6, 40)[0])
        assert list(out.terms.items()) == list(ref.terms.items())


COEFFS = (QC(1), QC(-1), QC(Fraction(1, 2), 1), QC(0, Fraction(-1, 3)), QC(2, -1))


@st.composite
def substitution_calls(draw):
    """1-4 series on keys drawn from one shared pool and from their own,
    negative P included, and one shift of v-order >= 2 per slot or none.
    The pool holds the leading parts of its keys, so one series may need
    at full cap the image another stored at a lower one."""
    n_h, n_v = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    field = draw(st.sampled_from((QQI, CC)))
    keys = st.tuples(st.tuples(*[st.integers(-2, 2)] * n_h),
                     st.tuples(*[st.integers(0, 3)] * n_v))
    pool = draw(st.lists(keys, min_size=1, max_size=5, unique=True))
    # with each key its leading parts, whose images other keys' images extend
    pool = list(dict.fromkeys((p, q[:j] + (0,) * (n_v - j)) for p, q in pool
                              for j in range(n_v + 1)))

    def series(own, min_q=0):
        chosen = [k for k in own if sum(k[1]) >= min_q]
        terms = {k: field.coerce(draw(st.sampled_from(COEFFS))) for k in chosen}
        return FormalSeries(n_h, n_v, terms, 12, 6, field)

    fs = [series(draw(st.lists(st.sampled_from(pool), unique=True))
                 + draw(st.lists(keys, max_size=3, unique=True)))
          for _ in range(draw(st.integers(1, 4)))]
    shift_keys = st.tuples(st.tuples(*[st.integers(-1, 1)] * n_h),
                           st.tuples(*[st.integers(0, 2)] * n_v))
    shifts = [draw(st.none() | st.lists(shift_keys, min_size=1, max_size=2,
                                        unique=True).map(lambda ks: series(ks, 2)))
              for _ in range(n_h + n_v)]
    cap = draw(st.integers(2, 5))
    budget = draw(st.sampled_from((None, 1, 2, 40)))
    return fs, shifts[:n_h], shifts[n_h:], cap, budget


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(substitution_calls())
def test_vector_substitution_is_each_component_alone(call):
    # one call shares its image table across components; each component
    # keeps the terms, key order and caps of substituting it alone, and a
    # component past its own Laurent budget still raises
    fs, phi_h, phi_v, cap, budget = call
    alone = []
    for f in fs:
        try:
            alone.append(substitute_shift((f,), phi_h, phi_v, cap, budget)[0])
        except TruncationOverflow:
            alone.append(None)
    if None in alone:
        with pytest.raises(TruncationOverflow):
            substitute_shift(fs, phi_h, phi_v, cap, budget)
    else:
        outs = substitute_shift(fs, phi_h, phi_v, cap, budget)
        assert [(list(o.terms.items()), o.trunc_h, o.trunc_v) for o in outs] == \
            [(list(a.terms.items()), a.trunc_h, a.trunc_v) for a in alone]
    if fs[0].field is QQI:
        # the termwise-linearity reference of the test above
        for f, out in zip(fs, substitute_shift(fs, phi_h, phi_v, cap, 40)):
            ref = FormalSeries.zero(f.n_h, f.n_v, 40, cap)
            for key, c in f.terms.items():
                ref = ref.add(substitute_shift((f.like({key: c}),), phi_h, phi_v, cap, 40)[0])
            assert list(out.terms.items()) == list(ref.terms.items())


def _inverse_shift(phi_h, phi_v, n_v, n_h):
    """Truncated compositional inverse of Id + phi (both blocks)."""
    n_hdim, n_vdim = len(phi_h), len(phi_v)
    psi_h = [s.like() for s in phi_h]
    psi_v = [s.like() for s in phi_v]
    for _ in range(n_v):
        comp_h = substitute_shift(phi_h, psi_h, psi_v, n_v, n_h)
        comp_v = substitute_shift(phi_v, psi_h, psi_v, n_v, n_h)
        psi_h = [c.neg() for c in comp_h]
        psi_v = [c.neg() for c in comp_v]
    return psi_h, psi_v


def test_substitute_roundtrip_with_compositional_inverse(rng):
    n_v, n_h = 6, 40
    for _ in range(5):
        f = random_series(rng, trunc_h=n_h, trunc_v=n_v, n_terms=4, max_p=2)
        phi_h = [random_series(rng, trunc_h=n_h, trunc_v=n_v, n_terms=2,
                               max_p=1, min_q=2)]
        phi_v = [random_series(rng, trunc_h=n_h, trunc_v=n_v, n_terms=2,
                               max_p=1, min_q=2)]
        psi_h, psi_v = _inverse_shift(phi_h, phi_v, n_v, n_h)
        once, = substitute_shift((f,), phi_h, phi_v, n_v, n_h)
        back, = substitute_shift((once,), psi_h, psi_v, n_v, n_h)
        assert back.truncate_v(n_v).terms == f.truncate_v(n_v).terms


def test_substitute_roundtrip_three_horizontal_coordinates(rng):
    # a key with three horizontal factors multiplies its first two at the
    # cap of the third, which is the only case where a horizontal tag's
    # cap could be taken wrongly
    n_v, n_h = 5, 40
    for _ in range(3):
        f = random_series(rng, n_h=3, trunc_h=n_h, trunc_v=n_v, n_terms=4, max_p=2)
        phi_h = [random_series(rng, n_h=3, trunc_h=n_h, trunc_v=n_v, n_terms=2,
                               max_p=1, min_q=2) for _ in range(3)]
        phi_v = [random_series(rng, n_h=3, trunc_h=n_h, trunc_v=n_v, n_terms=2,
                               max_p=1, min_q=2)]
        psi_h, psi_v = _inverse_shift(phi_h, phi_v, n_v, n_h)
        once, = substitute_shift((f,), phi_h, phi_v, n_v, n_h)
        back, = substitute_shift((once,), psi_h, psi_v, n_v, n_h)
        assert back.terms == f.truncate_v(n_v).terms


# ----------------------------------------------------------------------
# grid norms


def unit_grid(n_h=1, radii=(1.0,), v_radius=1.0, angles=16):
    return GridSpec([radii] * n_h, v_radius, angles)


def test_sup_norm_zero_and_constant():
    z = FormalSeries.zero(1, 1, 4, 4)
    assert grid_sup_norm(z, unit_grid()) == 0.0
    c = FormalSeries.constant(1, 1, QC(Fraction(-3, 2)), 4, 4)
    assert grid_sup_norm(c, unit_grid()) == pytest.approx(1.5)


def test_sup_norm_h_two_radii():
    f = mono((1,), (0,))
    grid = GridSpec([(0.5, 2.0)], 1.0, 8)
    assert grid_sup_norm(f, grid) == pytest.approx(2.0)


def test_sup_norm_monotone_in_angles(rng):
    f = random_series(rng, n_terms=6)
    grid8 = unit_grid(angles=8)
    grid16 = unit_grid(angles=16)
    assert grid_sup_norm(f, grid16) >= grid_sup_norm(f, grid8) - 1e-15


def test_sup_norm_modulus_square_factorization(rng):
    # h-only series: f* = conjugate coefficients with P -> -P agrees with
    # pointwise conjugation on the unit torus, so sup(f f*) = sup(f)^2
    f = random_series(rng, n_terms=5, max_q=0, trunc_h=30)
    fstar = f.reflect_conj()
    prod = f.mul(fstar)
    grid = unit_grid(angles=32)
    assert grid_sup_norm(prod, grid) == pytest.approx(grid_sup_norm(f, grid) ** 2)


# ----------------------------------------------------------------------
# Cauchy slices


def test_cauchy_monomial_saturates():
    f = mono((0,), (2,))
    rep = cauchy_bound_check(f, unit_grid(v_radius=0.5, angles=8))
    assert rep.passed
    assert rep.worst_ratio == pytest.approx(1.0)


def test_cauchy_zero_vacuous():
    z = FormalSeries.zero(1, 1, 4, 4)
    rep = cauchy_bound_check(z, unit_grid())
    assert rep.passed and rep.worst_ratio == 0.0


def test_cauchy_random_polynomials(rng):
    grid = GridSpec([(0.8, 1.25)], 0.7, 64)
    for _ in range(20):
        f = random_series(rng, n_terms=7, trunc_h=20, trunc_v=9)
        rep = cauchy_bound_check(f, grid, slack=1e-9)
        assert rep.passed, rep


# ----------------------------------------------------------------------
# interchange


def test_json_roundtrip_exact(rng):
    f = random_series(rng, n_terms=9)
    blob = json.dumps(series_to_dict(f))
    back = series_from_dict(json.loads(blob))
    assert back == f
    assert back.trunc_h == f.trunc_h and back.trunc_v == f.trunc_v


def test_json_roundtrip_float(rng):
    f = random_series(rng, n_terms=9, field=CC)
    back = series_from_dict(json.loads(json.dumps(series_to_dict(f))))
    assert back.terms == f.terms


def test_grid_evaluation_matches_pure_python_oracle(rng):
    # independent of the vectorized path: evaluate term by term per point
    f = random_series(rng, n_h=2, n_v=1, n_terms=6, trunc_h=20)
    grid = GridSpec([(0.7, 1.3), (1.0,)], 0.5, 8)
    got = grid_sup_norm(f, grid)
    import cmath
    thetas = [cmath.exp(2j * cmath.pi * k / 8) for k in range(8)]
    best = 0.0
    for r1 in (0.7, 1.3):
        for t1 in thetas:
            for t2 in thetas:
                for tv in thetas:
                    h = (r1 * t1, 1.0 * t2)
                    v = 0.5 * tv
                    acc = 0j
                    for key, c in f.terms.items():
                        val = complex(c.re, c.im)
                        for i, p in enumerate(key.P):
                            val *= h[i] ** p
                        val *= v ** key.Q[0]
                        acc += val
                    best = max(best, abs(acc))
    assert got == pytest.approx(best, rel=1e-12)
