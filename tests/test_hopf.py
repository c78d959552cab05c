import cmath
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from germlin.divisors import compositions, signed_vectors
from germlin.hopf import (
    ClassifyResult, FlatBundle, HopfError, HopfSpec, NestedCoveringSpec,
    ShilovPiece, TransitionGraph, build_covering, classify_hopf,
    covering_piece, delta_membership, delta_membership_bruteforce,
    h0_monomial_oracle, hopf_precheck, hopf_transition_graph,
    jordan_field_matrix, orbit_hits,
    reachable_with_contraction, shilov_constant, transition_chain_search,
    vanishing_predicate, _approx_eq, _power_product,
)
from germlin.scalars import QC, as_complex


def qc(num, den=1, inum=0, iden=1):
    return QC(Fraction(num, den), Fraction(inum, iden))


def spec_rational(*fracs):
    return HopfSpec(tuple(QC(Fraction(*f) if isinstance(f, tuple) else Fraction(f))
                          for f in fracs))


# ----------------------------------------------------------------------
# classification


def test_classify_classical():
    spec = spec_rational((1, 2), (1, 2), (1, 2))
    assert classify_hopf(spec, 4).kind == "classical"


def test_classify_relation_witness():
    spec = spec_rational((1, 4), (1, 2))
    res = classify_hopf(spec, 2)
    assert res.kind == "diagonal"
    # alpha_1 = alpha_2^2
    assert res.witness == ((1, 0), (0, 2)) or res.witness == ((0, 2), (1, 0))


def test_classify_generic_up_to_bound():
    spec = HopfSpec((0.3 + 0j, 0.53 + 0j))
    res = classify_hopf(spec, 12)
    assert res.kind == "generic"
    assert res.witness is None


def _classify_plain(spec, exp_bound):
    """classify_hopf's relation search as a plain enumeration: the exact
    product of every signed vector, no log-modulus prefilter."""
    one = QC(1) if all(isinstance(a, QC) for a in spec.alpha) else 1 + 0j
    for total in range(1, 2 * exp_bound + 1):
        for s in sorted(signed_vectors(total, spec.n)):
            pos = sum(e for e in s if e > 0)
            neg = sum(-e for e in s if e < 0)
            if pos > exp_bound or neg > exp_bound:
                continue
            if _approx_eq(_power_product(spec.alpha, s), one):
                return "diagonal", (tuple(max(e, 0) for e in s),
                                    tuple(max(-e, 0) for e in s))
    return "generic", None


@st.composite
def relation_specs(draw):
    """A random diagonal spec, exact or float, and an exponent bound: free
    moduli, a planted alpha_a = alpha_b^k within the bound, or two moduli
    within 1e-6 of each other."""
    n = draw(st.sampled_from([2, 3]))
    exact = draw(st.booleans())
    case = draw(st.sampled_from(["planted", "close", "free"]))

    def value():
        re = Fraction(draw(st.integers(-90, 90)), 100)
        im = Fraction(draw(st.integers(-90, 90)), 100)
        assume(0 < re * re + im * im < 1)
        return QC(re, im) if exact else complex(re, im)

    alpha = [value() for _ in range(n)]
    a, b = draw(st.sampled_from([(i, j) for i in range(n) for j in range(n) if i != j]))
    low = 1
    if case == "planted":
        low = draw(st.integers(2, 3))
        alpha[a] = alpha[b] ** low
    elif case == "close":
        step = Fraction(draw(st.integers(1, 1000)), 10 ** 9)
        alpha[a] = alpha[b] * (QC(1 - step) if exact else float(1 - step))
    alpha.sort(key=lambda x: abs(as_complex(x)))
    mods = [abs(as_complex(x)) for x in alpha]
    assume(all(m2 > m1 + 1e-11 for m1, m2 in zip(mods, mods[1:])))
    return HopfSpec(tuple(alpha)), draw(st.integers(low, 5))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(relation_specs())
def test_classify_prefilter_equals_plain_enumeration(case):
    spec, exp_bound = case
    res = classify_hopf(spec, exp_bound)
    assert (res.kind, res.witness) == _classify_plain(spec, exp_bound)


def test_exact_spec_and_bundle_json_round_trip():
    b = QC(Fraction(3, 5), Fraction(4, 5)) * qc(6, 7)
    spec = HopfSpec((qc(1, 3), b ** 2, b))              # alpha_1 = alpha_2^2
    back = HopfSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
    assert back == spec
    res = classify_hopf(back, 4)
    assert res.kind == "diagonal"
    assert res.witness in (((0, 1, 0), (0, 0, 2)), ((0, 0, 2), (0, 1, 0)))
    bundle = FlatBundle(qc(1, 3, 2, 7), qc(-1, 3))
    data = json.loads(json.dumps(bundle.to_json_dict()))
    assert FlatBundle.from_json_dict(data) == bundle
    # float entries are written as before, as repr
    assert FlatBundle(0.1 + 0.2j).to_json_dict() == {"beta": {"re": "0.1", "im": "0.2"}}


def test_spec_rejects_bad_moduli():
    with pytest.raises(HopfError):
        HopfSpec((QC(Fraction(1, 2)), QC(Fraction(3, 2))))
    with pytest.raises(HopfError):
        HopfSpec((QC(Fraction(1, 2)), QC(Fraction(1, 4))))


# ----------------------------------------------------------------------
# eigenvalue-group membership


def test_membership_generator():
    spec = spec_rational((3, 10), (1, 2))
    res = delta_membership(spec.alpha[0], spec, 1, 6)
    assert res.member and res.witness == (1, 0)


def test_membership_product():
    spec = HopfSpec((0.3 + 0j, 0.5 + 0j))
    res = delta_membership(0.15 + 0j, spec, 1, 6)
    assert res.member and res.witness == (1, 1)


def test_membership_negative_certificate():
    spec = HopfSpec((0.3 + 0j, 0.5 + 0j))
    res = delta_membership(0.2 + 0j, spec, 1, 12)
    assert not res.member


def test_membership_agrees_with_bruteforce_random():
    rng = random.Random(29)
    for trial in range(40):
        n = rng.choice((2, 3))
        alpha = sorted((rng.uniform(0.15, 0.9) for _ in range(n)))
        spec = HopfSpec(tuple(complex(a) for a in alpha))
        if rng.random() < 0.5:
            v = [rng.randint(-3, 3) for _ in range(n)]
            beta = complex(np.prod([a ** e for a, e in zip(alpha, v)]))
        else:
            beta = complex(rng.uniform(0.05, 2.0))
        fast = delta_membership(beta, spec, 1, 8)
        slow = delta_membership_bruteforce(beta, spec, 1, 8)
        assert fast.member == slow.member, (alpha, beta)
        assert fast.witness == slow.witness


# ----------------------------------------------------------------------
# vanishing predicates


def test_vanishing_generic_nonmember():
    spec = HopfSpec((0.3 + 0j, 0.53 + 0j))
    rep = vanishing_predicate(FlatBundle(0.2 + 0j), spec, "mall_generic", 10)
    assert rep.criterion_holds and rep.h0_vanishes and rep.h1_vanishes


def test_vanishing_member_makes_no_claim():
    spec = HopfSpec((0.3 + 0j, 0.53 + 0j))
    beta = 0.3 * 0.53
    rep = vanishing_predicate(FlatBundle(complex(beta)), spec, "mall_generic", 10)
    assert not rep.criterion_holds
    assert rep.h0_vanishes is None and rep.h1_vanishes is None
    assert rep.witness == (1, 1)


def test_vanishing_classical_power_witness():
    spec = spec_rational((1, 2), (1, 2))
    rep = vanishing_predicate(FlatBundle(qc(1, 8)), spec, "classical", 6)
    assert not rep.criterion_holds and rep.witness == (3,)
    rep2 = vanishing_predicate(FlatBundle(qc(3, 7)), spec, "classical", 6)
    assert rep2.criterion_holds


def test_vanishing_zhou1_constructed_failure():
    a = QC(0, 1)  # i, order 4
    mu = qc(1, 2)
    spec = HopfSpec((mu, mu), torsion=(4, a))
    bundle = FlatBundle(mu ** 3, a ** 3)
    rep = vanishing_predicate(bundle, spec, "zhou1", 8)
    assert not rep.criterion_holds and rep.witness == (3,)
    ok = vanishing_predicate(FlatBundle(qc(2, 7), a), spec, "zhou1", 8)
    assert ok.criterion_holds


def test_vanishing_zhou2_cone_cases():
    a = QC(-1)    # order 2
    spec = HopfSpec((qc(1, 3), qc(1, 2)), torsion=(2, a))
    # c = mu^(1,1), d = a^2 = 1: v = (1,1) >= (1,1) is a witness
    bundle = FlatBundle(qc(1, 3) * qc(1, 2), QC(1))
    rep = vanishing_predicate(bundle, spec, "zhou2", 8)
    assert not rep.criterion_holds and rep.witness == (1, 1)
    # c = mu_1^2 with v = (2, 0): some v_i = 0 cone
    bundle2 = FlatBundle(qc(1, 9), QC(1))
    rep2 = vanishing_predicate(bundle2, spec, "zhou2", 8)
    assert not rep2.criterion_holds and rep2.witness == (2, 0)
    bundle3 = FlatBundle(qc(3, 8), a)
    assert vanishing_predicate(bundle3, spec, "zhou2", 8).criterion_holds


def _vanishing_plain(bundle, spec, variant, exp_bound):
    """vanishing_predicate's witness search as plain loops: every exponent
    in its order, no log-modulus prefilter."""
    alpha, a = spec.alpha, spec.torsion and spec.torsion[1]
    if variant == "classical":
        alpha, candidates = alpha[:1], [(k,) for k in range(-exp_bound, exp_bound + 1)]
    elif variant == "zhou1":
        alpha, candidates = alpha[:1], [(r,) for r in range(exp_bound + 1)]
    else:
        candidates = [v for total in range(exp_bound + 1)
                      for v in sorted(compositions(total, spec.n))]
    for v in candidates:
        if _approx_eq(_power_product(alpha, v), bundle.beta) and (
                variant == "classical"
                or _approx_eq(_power_product([a], [sum(v)]), bundle.d_char)):
            return v
    return None


@st.composite
def vanishing_cases(draw):
    """A classical, zhou1 or zhou2 spec, exact or float, with a bundle that
    is free or carries a planted relation, its torsion character matching
    or not."""
    variant = draw(st.sampled_from(["classical", "zhou1", "zhou2"]))
    exact = draw(st.booleans())
    n = draw(st.sampled_from([2, 3]))

    def value():
        re = Fraction(draw(st.integers(-90, 90)), 100)
        im = Fraction(draw(st.integers(-90, 90)), 100)
        assume(0 < re * re + im * im < 1)
        return QC(re, im) if exact else complex(re, im)

    alpha = [value()] * n if variant != "zhou2" else sorted(
        (value() for _ in range(n)), key=lambda x: abs(as_complex(x)))
    root = draw(st.sampled_from([QC(1), QC(-1), QC(0, 1), QC(0, -1)]))
    root = root if exact else root.to_complex()
    exp_bound = draw(st.integers(1, 5))
    if draw(st.booleans()):
        width = 1 if variant != "zhou2" else n
        low = -exp_bound - 1 if variant == "classical" else 0
        v = draw(st.lists(st.integers(low, exp_bound + 1), min_size=width, max_size=width))
        beta = _power_product(alpha, v)
        d_char = root ** sum(v) if draw(st.booleans()) else root
    else:
        beta, d_char = value(), root
    torsion = None if variant == "classical" else (4, root)
    return FlatBundle(beta, d_char), HopfSpec(tuple(alpha), torsion=torsion), variant, exp_bound


@settings(max_examples=200, deadline=None, derandomize=True)
@given(vanishing_cases())
def test_vanishing_witness_equals_plain_enumeration(case):
    bundle, spec, variant, exp_bound = case
    rep = vanishing_predicate(bundle, spec, variant, exp_bound)
    assert rep.witness == _vanishing_plain(bundle, spec, variant, exp_bound)
    assert rep.criterion_holds == (rep.witness is None)


def test_vanishing_variant_mismatch():
    spec = HopfSpec((0.3 + 0j, 0.53 + 0j))
    with pytest.raises(HopfError):
        vanishing_predicate(FlatBundle(0.2 + 0j), spec, "classical", 6)
    with pytest.raises(HopfError):
        vanishing_predicate(FlatBundle(0.2 + 0j), spec, "zhou1", 6)


# ----------------------------------------------------------------------
# precheck


def test_precheck_large_beta_passes():
    spec = HopfSpec((0.25 + 0j, 0.4 + 0j))
    rep = hopf_precheck(FlatBundle(3.7 + 0.2j), spec, n_v=4, exp_bound=8)
    assert rep.passed
    assert len(rep.items) == 2 * 2 + 4 * 2


def test_precheck_ratio_bundle_fails_with_witness():
    spec = HopfSpec((0.3 + 0j, 0.53 + 0j))
    beta = 0.53 / 0.3
    rep = hopf_precheck(FlatBundle(complex(beta)), spec, n_v=3, exp_bound=8)
    assert not rep.passed
    bad = [it for it in rep.items if not it.passed]
    assert any(it.name == "beta*alpha" for it in bad)


def test_precheck_equals_direct_bruteforce():
    rng = random.Random(31)
    for _ in range(8):
        alpha = sorted((rng.uniform(0.2, 0.85) for _ in range(2)))
        spec = HopfSpec(tuple(complex(a) for a in alpha))
        beta = complex(rng.uniform(0.1, 1.6), rng.uniform(-0.3, 0.3))
        try:
            rep = hopf_precheck(FlatBundle(beta), spec, n_v=3, exp_bound=6)
        except HopfError:
            continue
        for it in rep.items:
            if it.name == "beta*alpha":
                target = beta * alpha[it.index]
            elif it.name == "beta/alpha":
                target = beta / alpha[it.index]
            else:
                target = beta ** (-it.power) * alpha[it.index]
            want = delta_membership_bruteforce(target, spec, 1, 6)
            assert it.passed == (not want.member)


# ----------------------------------------------------------------------
# monomial sections


def test_h0_oracle_constructed_section():
    spec = spec_rational((3, 10), (1, 2))
    rep = h0_monomial_oracle(FlatBundle(spec.alpha[0] ** 2), spec, 8)
    assert rep.count >= 1 and (2, 0) in rep.witnesses


def test_h0_oracle_trivial_bundle_constants():
    spec = spec_rational((3, 10), (1, 2))
    rep = h0_monomial_oracle(FlatBundle(QC(1)), spec, 8)
    assert rep.count >= 1 and (0, 0) in rep.witnesses


def test_h0_oracle_consistent_with_vanishing():
    spec = HopfSpec((0.3 + 0j, 0.53 + 0j))
    bundle = FlatBundle(0.2 + 0j)
    rep = vanishing_predicate(bundle, spec, "mall_generic", 10)
    assert rep.criterion_holds
    assert h0_monomial_oracle(bundle, spec, 10).count == 0


# ----------------------------------------------------------------------
# coverings


def half_spec():
    return HopfSpec((qc(1, 2), QC(0, Fraction(1, 2))))   # moduli both 1/2


def test_covering_radii_geometric_interpolation():
    spec = half_spec()
    cov = build_covering(spec, Fraction(1, 5), [Fraction(1), Fraction(1)])
    assert cov.radii[3][0] == Fraction(2)
    assert float(cov.radii[1][0]) == pytest.approx(2 ** (1 / 3))
    assert float(cov.radii[2][0]) == pytest.approx(2 ** (2 / 3))
    # exact fundamental-annulus identity for rational data
    assert cov.radii[3][0] * Fraction(1, 2) == cov.radii[0][0]


def test_covering_rejects_zero_delta():
    with pytest.raises(HopfError):
        build_covering(half_spec(), 0, [Fraction(1), Fraction(1)])


def test_covering_rejects_bad_delta_ranges():
    spec = half_spec()
    with pytest.raises(HopfError):
        build_covering(spec, Fraction(1, 20), [Fraction(1), Fraction(1)])  # gaps
    with pytest.raises(HopfError):
        build_covering(spec, Fraction(3, 10), [Fraction(1), Fraction(1)])  # overlap


def test_covering_rejects_nonpositive_base_radius():
    # r1 = 0 divided by zero inside build_covering
    for r1 in ([Fraction(0), Fraction(1)], [Fraction(1), Fraction(-1, 2)]):
        with pytest.raises(HopfError):
            build_covering(half_spec(), Fraction(1, 5), r1)


@pytest.mark.parametrize("band, coord", [(0, 0), (-1, 0), (4, 0), (1, 2), (1, -1)])
def test_covering_piece_rejects_band_and_coord_out_of_range(band, coord):
    # bands 0 and -1 gave the annuli of bands 3 and 2; band 4 and coord 2 IndexError
    cov = build_covering(half_spec(), Fraction(1, 5), [Fraction(1), Fraction(1)])
    with pytest.raises(HopfError):
        covering_piece(cov, band, coord)
    assert covering_piece(cov, 3, 1).annulus == cov.annulus(2, 1)


def test_covering_monte_carlo_no_gap_no_triple():
    spec = HopfSpec((qc(1, 2), qc(5, 9)))
    cov = build_covering(spec, Fraction(18, 100), [Fraction(1), Fraction(1)])
    rng = random.Random(37)
    for _ in range(500):
        z = [cmath.rect(rng.uniform(0.2, 3.0), rng.uniform(0, 2 * math.pi))
             for _ in range(2)]
        hits = orbit_hits(cov, spec, z)
        assert hits, f"uncovered point {z}"
        for j in range(2):
            bands = {i for (i, jj, _) in hits if jj == j}
            assert bands != {1, 2, 3}, f"triple overlap at {z}"


def test_covering_bounds_each_coordinate_by_its_own_box():
    spec = HopfSpec((qc(1, 2), qc(5, 9)))
    cov = build_covering(spec, Fraction(18, 100), [Fraction(1), Fraction(1)])
    assert cov.box_bound(1) < 2.0 < cov.box_bound(0)
    # |z_1| = 2 lies outside the box of coordinate 1 though inside that of 0
    assert not cov.contains(0, 0, [1.0, 2.0])
    assert (1, 0, 0) not in orbit_hits(cov, spec, [1.0, 2.0])
    # |z_0| = 2 lies inside its own box, so band 1 of coordinate 1 holds it
    assert cov.contains(0, 1, [2.0, 1.0])
    assert (1, 1, 0) in orbit_hits(cov, spec, [2.0, 1.0])


def test_transition_graph_bounds_each_coordinate_by_its_own_box():
    # built by hand: coordinate 1's box (0, 2.05) lies below band 3 of
    # coordinate 0, (5.9, 6.1), even after one deck shift
    spec = HopfSpec((qc(1, 2), qc(1, 2)))
    cov = NestedCoveringSpec(((4, 1), (5, 1.2), (6, 1.5), (8, 2)), 0.1, (2, 2))
    assert cov.box_bound(1) / 0.5 < cov.annulus(2, 0)[0] < cov.box_bound(0)
    graph = hopf_transition_graph(cov, spec, FlatBundle(0.5 + 0j))
    # piece (3, 0) holds |z_1| = 1 inside coordinate 1's own box, and piece
    # (1, 1) holds |z_0| = 6 inside coordinate 0's own box
    assert graph.edges[((3, 0), (1, 1))] == 1


def test_near_unit_covering_has_no_gap():
    # deck powers up to about |k| = 150 are needed; none may be missed
    spec = HopfSpec((qc(99, 100), qc(99, 100)))
    cov = build_covering(spec, Fraction(1, 500), [Fraction(1), Fraction(1)])
    rng = random.Random(0)
    uncovered = 0
    for _ in range(300):
        z = [cmath.rect(rng.uniform(0.2, 3.0), rng.uniform(0, 2 * math.pi))
             for _ in range(2)]
        uncovered += not orbit_hits(cov, spec, z)
    assert uncovered == 0


def _margins(mod: float) -> list[float]:
    """Ratios delta / r1 that build_covering accepts for modulus mod."""
    spec = HopfSpec((mod + 0j, mod + 0j))
    ok = []
    for s in range(1, 60):
        ratio = (1 - mod) * s / 60
        try:
            build_covering(spec, ratio, [1.0, 1.0])
        except HopfError:
            continue
        ok.append(ratio)
    return ok


def _brute_force_hits(cov, spec, z):
    """Every (band, coordinate, k) with cov.contains on alpha^k z, over a
    window wider than any hit: |k| |log|alpha_j|| = |log b - log|z_j|| for
    a band bound b of a hit coordinate j."""
    alpha = spec.alpha_complex()
    bounds = [b for i in range(4) for j in range(cov.n) for b in cov.annulus(i, j)]
    span = (max(abs(math.log(b)) for b in bounds)
            + max(abs(math.log(abs(x))) for x in z if x))
    window = 2 * math.ceil(span / min(abs(math.log(abs(a))) for a in alpha)) + 2
    hits = set()
    for k in range(-window, window + 1):
        try:
            w = [a ** k * zz if zz else zz for a, zz in zip(alpha, z)]
        except OverflowError:     # some |alpha_m^k z_m| is past any box
            continue
        hits |= {(i + 1, j, k) for j in range(cov.n) for i in range(3)
                 if cov.contains(i, j, w)}
    return hits


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_orbit_hits_equals_brute_force(data):
    n = data.draw(st.sampled_from([2, 3]))
    mods = sorted(data.draw(st.lists(st.floats(0.3, 0.995), min_size=n, max_size=n)))
    delta = 0.01
    # one margin per coordinate, scaled by its base radius; the boxes differ
    r1 = []
    for mod in mods:
        margins = _margins(mod)
        assume(margins)
        r1.append(delta / data.draw(st.sampled_from(margins)))
    phases = data.draw(st.lists(st.floats(0, 2 * math.pi), min_size=n, max_size=n))
    spec = HopfSpec(tuple(cmath.rect(m, t) for m, t in zip(mods, phases)))
    cov = build_covering(spec, delta, r1)
    zero = data.draw(st.sampled_from([None] + list(range(n))))
    for _ in range(3):
        z = [cmath.rect(math.exp(data.draw(st.floats(-4, 5))),
                        data.draw(st.floats(0, 2 * math.pi))) for _ in range(n)]
        if zero is not None:
            z[zero] = 0j
        assert orbit_hits(cov, spec, z) == _brute_force_hits(cov, spec, z)


# ----------------------------------------------------------------------
# transition chains


def test_chain_search_standard_covering_contracting_beta():
    spec = HopfSpec((qc(1, 2), qc(5, 9)))
    cov = build_covering(spec, Fraction(18, 100), [Fraction(1), Fraction(1)])
    graph = hopf_transition_graph(cov, spec, FlatBundle(0.5 + 0.1j))
    assert graph.edges[((3, 0), (1, 0))] == pytest.approx(0.5 + 0.1j)
    chains = transition_chain_search(graph)
    assert all(chain is not None for chain in chains.values())
    oracle = reachable_with_contraction(graph)
    assert all(oracle[n] == (chains[n] is not None) for n in graph.nodes)


def test_chain_search_unimodular_none():
    graph = TransitionGraph(("a", "b"), {("a", "b"): 1.0})
    chains = transition_chain_search(graph)
    assert chains == {"a": None, "b": None}


def test_chain_search_expanding_beta_uses_inverse_edges():
    spec = HopfSpec((qc(1, 2), qc(5, 9)))
    cov = build_covering(spec, Fraction(18, 100), [Fraction(1), Fraction(1)])
    graph = hopf_transition_graph(cov, spec, FlatBundle(2.0 + 0j))
    chains = transition_chain_search(graph)
    assert all(chain is not None for chain in chains.values())
    # the contracting step is now the (1, j) -> (3, j) edge with value 1/2
    for chain in chains.values():
        a, b = chain[-2], chain[-1]
        assert abs(graph.edges[(a, b)]) < 1


def test_chain_search_matches_closure_oracle_random():
    rng = random.Random(41)
    for _ in range(20):
        size = rng.randint(3, 6)
        nodes = list(range(size))
        edges = {}
        for _ in range(rng.randint(2, 8)):
            a, b = rng.sample(nodes, 2)
            if (a, b) in edges or (b, a) in edges:
                continue
            edges[(a, b)] = cmath.rect(rng.choice((0.5, 1.0, 2.0)),
                                       rng.uniform(0, 6))
        graph = TransitionGraph(nodes, edges)
        chains = transition_chain_search(graph)
        oracle = reachable_with_contraction(graph)
        for n in nodes:
            assert (chains[n] is not None) == oracle[n]


# ----------------------------------------------------------------------
# Shilov constants


def test_shilov_diagonal_closed_form():
    piece = ShilovPiece(3, 0, (0.8, 1.2), 2.1)
    assert shilov_constant(piece, "diagonal") == pytest.approx(max(1 / 0.8, 1 / 2.1),
                                                               abs=1e-12)


def test_shilov_single_variable_unit():
    piece = ShilovPiece(2, 0, (1.0, 1.0 + 1e-9), 1.0)
    assert shilov_constant(piece, "diagonal") == pytest.approx(1.0, abs=1e-6)


def test_shilov_jordan_matches_dense_inversion():
    rng = random.Random(43)
    alpha = 0.5
    piece = ShilovPiece(3, 1, (0.9, 1.3), 1.0)
    got = shilov_constant(piece, ("jordan", alpha))
    worst = 0.0
    for _ in range(1000):
        radii = [piece.disc_radius, rng.choice(piece.annulus), piece.disc_radius]
        z = [cmath.rect(r, rng.uniform(0, 2 * math.pi)) for r in radii]
        g = jordan_field_matrix(alpha, z)
        inv = np.linalg.inv(g)
        worst = max(worst, float(np.max(np.sum(np.abs(inv), axis=1))))
    assert got == pytest.approx(worst, abs=1e-9)


def test_shilov_monotone_in_radii():
    small = ShilovPiece(2, 0, (0.5, 0.9), 1.0)
    large = ShilovPiece(2, 0, (0.8, 1.2), 1.5)
    assert shilov_constant(large, "diagonal") <= shilov_constant(small, "diagonal")


def test_shilov_rejects_zero_radius():
    with pytest.raises(HopfError):
        ShilovPiece(2, 0, (0.0, 1.0), 1.0)
