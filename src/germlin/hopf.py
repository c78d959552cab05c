"""Hopf-manifold toolkit: eigenvalue-group membership, genericity
classification, cohomology-vanishing criteria, nested Stein coverings with
their transition graphs, and Shilov-boundary constants.

A Hopf manifold here is the quotient of C^n minus the origin by a linear
contraction with eigenvalues alpha (moduli in (0,1), nondecreasing), plus
optional torsion data (a finite extra generator) for the non-primary
variants.  Flat line bundles are encoded by the character value beta of
the contraction generator.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .scalars import CC, QQI, as_complex, field_of, json_int
from .divisors import compositions, signed_vectors

if TYPE_CHECKING:
    import numpy as np

EQ_TOL = 1e-12


class HopfError(ValueError):
    pass


class NonGenericSpec(HopfError):
    """Certified failure: a check that needs a generic spec met one that
    ``classify_hopf`` finds diagonal (a monomial relation, or moduli not
    strictly ordered)."""


def _approx_eq(x, y, tol: float = EQ_TOL) -> bool:
    """Equality after normalizing by the larger modulus; exact when both
    operands are exact."""
    if field_of((x, y)) is QQI:
        return x == y
    xc, yc = as_complex(x), as_complex(y)
    scale = max(abs(xc), abs(yc), 1e-300)
    return abs(xc - yc) <= tol * scale


def _exact_sqrt(frac: Fraction) -> Fraction | None:
    num, den = frac.numerator, frac.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _modulus(x):
    """|x| as an exact Fraction when possible, else float."""
    root = _exact_sqrt(x.abs2()) if field_of((x,)) is QQI else None
    return abs(x) if root is None else root


def _enc(x) -> dict:
    """An exact entry as its fractions, a float one as ``repr``; either
    reads back through ``QQI.from_strings`` as the same number."""
    re, im = field_of((x,)).to_strings(x)
    return {"re": re, "im": im}


@dataclass(frozen=True)
class HopfSpec:
    """Contraction eigenvalues, Jordan flags, optional torsion generator."""

    alpha: tuple
    jordan_overdiag: tuple[bool, ...] = ()
    torsion: tuple[int, object] | None = None   # (order m, root of unity a)

    def __post_init__(self):
        alpha = tuple(self.alpha)
        object.__setattr__(self, "alpha", alpha)
        if len(alpha) < 2:
            raise HopfError("need dimension >= 2")
        mods = [float(_modulus(a)) for a in alpha]
        if any(not 0 < m < 1 for m in mods):
            raise HopfError("eigenvalue moduli must lie in (0, 1)")
        if any(m2 < m1 - EQ_TOL for m1, m2 in zip(mods, mods[1:])):
            raise HopfError("eigenvalues must be ordered by modulus")
        flags = tuple(bool(b) for b in self.jordan_overdiag)
        if flags and len(flags) not in (len(alpha) - 1, len(alpha)):
            raise HopfError("jordan flag vector has wrong length")
        object.__setattr__(self, "jordan_overdiag", flags)
        if self.torsion is not None:
            m, a = self.torsion
            if m < 1:
                raise HopfError("torsion order must be >= 1")
            if abs(as_complex(a) ** m - 1) > EQ_TOL:
                raise HopfError("torsion generator is not a root of unity")

    @property
    def n(self) -> int:
        return len(self.alpha)

    @property
    def is_diagonal(self) -> bool:
        return not any(self.jordan_overdiag)

    def alpha_complex(self) -> tuple[complex, ...]:
        return tuple(as_complex(a) for a in self.alpha)

    def to_json_dict(self) -> dict:
        data = {"alpha": [_enc(a) for a in self.alpha],
                "jordan_overdiag": list(self.jordan_overdiag)}
        if self.torsion:
            data["torsion"] = {"m": self.torsion[0], "a": _enc(self.torsion[1])}
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "HopfSpec":
        torsion = None
        if data.get("torsion"):
            a = data["torsion"]["a"]
            torsion = (json_int(data["torsion"], "m"), QQI.from_strings(a["re"], a["im"]))
        return cls(tuple(QQI.from_strings(e["re"], e["im"]) for e in data["alpha"]),
                   tuple(data.get("jordan_overdiag", ())), torsion)


@dataclass(frozen=True)
class FlatBundle:
    """Character data of a flat line bundle: beta on the contraction, the
    optional d_char on the torsion generator."""

    beta: object
    d_char: object | None = None

    def __post_init__(self):
        if not as_complex(self.beta):
            raise HopfError("beta must be nonzero")

    def to_json_dict(self) -> dict:
        out = {"beta": _enc(self.beta)}
        if self.d_char is not None:
            out["d_char"] = _enc(self.d_char)
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "FlatBundle":
        d, beta = data.get("d_char"), data["beta"]
        return cls(QQI.from_strings(beta["re"], beta["im"]),
                   QQI.from_strings(d["re"], d["im"]) if d else None)


# ----------------------------------------------------------------------
# eigenvalue-group arithmetic


def _power_product(values: Sequence, exponents: Sequence[int]):
    """Exact when every value is, else over CC."""
    field = field_of(values) or CC
    out = field.one
    for v, e in zip(values, exponents):
        if e:
            out = out * field.coerce(v) ** e
    return out


class MembershipResult(NamedTuple):
    member: bool
    witness: tuple[int, ...] | None
    bound: int


def _log_vectors(alpha, norms, signed: bool = True) -> list[tuple[tuple[int, ...], float]]:
    """(v, sum v_i log|alpha_i|) for every v in Z^n (N^n unless ``signed``)
    with |v|_1 in norms, in norm-then-lex order."""
    logs = [math.log(abs(as_complex(a))) for a in alpha]
    walk = signed_vectors if signed else compositions
    return [(v, sum(l * e for l, e in zip(logs, v)))
            for norm in norms for v in sorted(walk(norm, len(alpha)))]


def _first_relation(alpha, vectors, target, torsion=None) -> tuple[int, ...] | None:
    """First v of ``vectors`` with prod alpha^v = target and, when
    ``torsion`` = (a, d) is given, a^{|v|} = d.

    A v whose log-modulus lies far from log|target| is skipped before any
    product is formed: an exact or 1e-12-relative equality puts the two
    within about 1e-12 (1 + |log|), far inside the 1e-9 slack."""
    target_c = as_complex(target)
    log_target = math.log(abs(target_c)) if target_c else None
    a, d = torsion or (None, None)
    for v, approx in vectors:
        if (log_target is not None
                and abs(approx - log_target) > 64 * EQ_TOL * (1 + abs(approx)) + 1e-9):
            continue
        if _approx_eq(_power_product(alpha, v), target) and (
                a is None or _approx_eq(_power_product([a], [sum(v)]), d)):
            return v
    return None


def delta_membership(beta, spec: HopfSpec, m_power: int = 1,
                     exp_bound: int = 12) -> MembershipResult:
    """Decide beta^{m_power} = prod alpha_i^{v_i} for some v in Z^n with
    |v|_1 <= exp_bound; returns the first witness in norm-then-lex order
    or certified non-membership up to the bound."""
    if exp_bound < 1 or m_power < 1:
        raise HopfError("bounds must be >= 1")
    target = _power_product([beta], [m_power])
    v = _first_relation(spec.alpha, _log_vectors(spec.alpha, range(exp_bound + 1)), target)
    return MembershipResult(v is not None, v, exp_bound)


def delta_membership_bruteforce(beta, spec: HopfSpec, m_power: int = 1,
                                exp_bound: int = 12) -> MembershipResult:
    """Plain full enumeration without the modulus prefilter (test oracle)."""
    target = _power_product([beta], [m_power])
    for norm in range(0, exp_bound + 1):
        for v in sorted(signed_vectors(norm, spec.n)):
            if _approx_eq(_power_product(spec.alpha, v), target):
                return MembershipResult(True, v, exp_bound)
    return MembershipResult(False, None, exp_bound)


class ClassifyResult(NamedTuple):
    kind: str                       # classical | generic | diagonal | undetermined
    witness: tuple | None           # (positive side, negative side) exponents
    bound: int
    reason: str


def classify_hopf(spec: HopfSpec, exp_bound: int = 8) -> ClassifyResult:
    """Classical means a scalar contraction; generic means strictly ordered
    moduli and no monomial relation prod alpha^{r_i} (A side) =
    prod alpha^{r_j} (complement side) with nonnegative exponents summing
    to <= exp_bound per side.  Diagonalizable specs failing genericity
    report the witness relation."""
    if exp_bound < 1:
        raise HopfError("exponent bound must be >= 1")
    alpha = spec.alpha
    if all(_approx_eq(a, alpha[0]) for a in alpha):
        if spec.is_diagonal:
            return ClassifyResult("classical", None, exp_bound, "all eigenvalues equal")
        return ClassifyResult("undetermined", None, exp_bound,
                              "scalar diagonal with Jordan blocks")
    if not spec.is_diagonal:
        return ClassifyResult("undetermined", None, exp_bound,
                              "Jordan flags present; eigenvalue criteria need the diagonal deformation")
    mods = [float(_modulus(a)) for a in alpha]
    if any(m2 <= m1 + EQ_TOL for m1, m2 in zip(mods, mods[1:])):
        return ClassifyResult("diagonal", None, exp_bound,
                              "moduli not strictly ordered")
    vectors = [(s, approx) for s, approx in _log_vectors(alpha, range(1, 2 * exp_bound + 1))
               if sum(e for e in s if e > 0) <= exp_bound
               and sum(-e for e in s if e < 0) <= exp_bound]
    s = _first_relation(alpha, vectors, (field_of(alpha) or CC).one)
    if s is not None:
        witness = (tuple(max(e, 0) for e in s), tuple(max(-e, 0) for e in s))
        return ClassifyResult("diagonal", witness, exp_bound, "monomial relation found")
    return ClassifyResult("generic", None, exp_bound, "no relation up to bound")


def _require_generic(spec: HopfSpec, exp_bound: int, check: str):
    cls = classify_hopf(spec, exp_bound)
    if cls.kind != "generic":
        error = NonGenericSpec if cls.kind == "diagonal" else HopfError
        raise error(f"{check} needs a generic spec, got {cls.kind}: {cls.reason}")


# ----------------------------------------------------------------------
# vanishing criteria


class VanishingReport(NamedTuple):
    variant: str
    criterion_holds: bool
    h0_vanishes: bool | None
    h1_vanishes: bool | None
    witness: tuple | None
    bound: int
    reason: str


def vanishing_predicate(bundle: FlatBundle, spec: HopfSpec, variant: str,
                        exp_bound: int = 12) -> VanishingReport:
    """Evaluate the arithmetic vanishing criterion of the chosen variant.

    When the criterion holds up to the bound, both H^0 and H^1 of the flat
    bundle vanish (the supported variants all assert the pair); when a
    witness turns up the predicate makes no vanishing claim.  zhou2 searches
    every exponent vector of N^n up to the bound: the cones of the paper's
    statement are not recorded here, so none is imposed.
    """
    alpha, bounds = spec.alpha, range(exp_bound + 1)
    if variant == "mall_generic":
        _require_generic(spec, exp_bound, "variant mall_generic")
        witness = delta_membership(bundle.beta, spec, 1, exp_bound).witness
        reason = ("beta outside the eigenvalue group up to bound", "beta is a witnessed member")
    elif variant == "classical":
        if not all(_approx_eq(a, alpha[0]) for a in alpha):
            raise HopfError("variant classical needs equal eigenvalues")
        # k = -exp_bound..exp_bound in ascending order
        witness = _first_relation(alpha[:1], sorted(_log_vectors(alpha[:1], bounds)),
                                  bundle.beta)
        reason = ("beta outside the cyclic group up to bound", "beta is a power of alpha")
    elif variant in ("zhou1", "zhou2"):
        if spec.torsion is None or bundle.d_char is None:
            raise HopfError("zhou variants need torsion data and d_char")
        if variant == "zhou1":
            if not all(_approx_eq(x, alpha[0]) for x in alpha):
                raise HopfError("variant zhou1 needs a scalar contraction")
            alpha = alpha[:1]
            reason = ("no exponent r with c = mu^r, d = a^r", "witnessed exponent")
        else:
            reason = ("no admissible exponent vector", "witnessed exponent vector")
        witness = _first_relation(alpha, _log_vectors(alpha, bounds, signed=False),
                                  bundle.beta, (spec.torsion[1], bundle.d_char))
    else:
        raise HopfError(f"unknown vanishing variant {variant!r}")
    holds = witness is None
    return VanishingReport(variant, holds, holds or None, holds or None,
                           witness, exp_bound, reason[0] if holds else reason[1])


class CheckItem(NamedTuple):
    name: str
    index: int
    power: int
    passed: bool
    witness: tuple | None


class PrecheckReport(NamedTuple):
    passed: bool
    items: list
    bound: int

    def to_json_dict(self) -> dict:
        return {"passed": self.passed, "bound": self.bound,
                "items": [{"condition": it.name, "i": it.index, "m": it.power,
                           "verdict": "pass" if it.passed else "fail",
                           "witness": list(it.witness) if it.witness else None}
                          for it in self.items]}


def hopf_precheck(bundle: FlatBundle, spec: HopfSpec, n_v: int = 6,
                  exp_bound: int = 12) -> PrecheckReport:
    """Check every membership condition that full linearization of the
    hypersurface embedding needs: beta alpha_i^{+-1} and beta^{-m} alpha_i
    (m = 1..n_v) must all avoid the eigenvalue group up to the bound.

    All conditions passing certifies, up to the scanned bound, both the
    tangent splitting and the vanishing of the obstruction cohomology at
    every twist."""
    _require_generic(spec, min(exp_bound, 8), "precheck")
    alpha = spec.alpha
    vectors = _log_vectors(alpha, range(exp_bound + 1))
    items = []

    def probe(name, target, index, power):
        v = _first_relation(alpha, vectors, target)
        items.append(CheckItem(name, index, power, v is None, v))

    beta = bundle.beta
    # each product is exact when both of its factors are
    pairs = [(field_of((beta, a)) or CC, a) for a in alpha]
    for i, (field, a) in enumerate(pairs):
        probe("beta*alpha", field.coerce(beta) * field.coerce(a), i, 1)
        probe("beta/alpha", field.coerce(beta) / field.coerce(a), i, 1)
    for m in range(1, n_v + 1):
        beta_m = _power_product([beta], [-m])
        for i, (field, a) in enumerate(pairs):
            probe("beta^-m*alpha", field.coerce(beta_m) * field.coerce(a), i, m)
    return PrecheckReport(all(it.passed for it in items), items, exp_bound)


class H0Report(NamedTuple):
    count: int
    witnesses: list
    bound: int


def h0_monomial_oracle(bundle: FlatBundle, spec: HopfSpec,
                       exp_bound: int = 12) -> H0Report:
    """Count monomial sections z^v (v in N^n, |v| <= bound) with
    alpha^v = beta; a positive count certifies nonvanishing sections while
    zero is consistent withemptiness up to the bound."""
    if not spec.is_diagonal:
        raise HopfError("monomial sections need a diagonal spec")
    witnesses = []
    for total in range(0, exp_bound + 1):
        for v in sorted(compositions(total, spec.n)):
            if _approx_eq(_power_product(spec.alpha, v), bundle.beta):
                witnesses.append(v)
    return H0Report(len(witnesses), witnesses, exp_bound)


# ----------------------------------------------------------------------
# nested coverings


@dataclass(frozen=True)
class NestedCoveringSpec:
    """Radii r_1 < r_2 < r_3 < r_4 = r_1/|alpha_j| per coordinate, margin
    delta, and the per-coordinate expansion factor.  The float bounds are
    converted once: bands r -+ delta and boxes r_4 + delta / 2."""

    radii: tuple        # radii[i][j], i = 0..3
    delta: object       # Fraction or float, > 0
    expansion: tuple    # 1/|alpha_j| per coordinate

    def __post_init__(self):
        d = float(self.delta)
        object.__setattr__(self, "_annuli", tuple(
            tuple((float(r) - d, float(r) + d) for r in row) for row in self.radii))
        object.__setattr__(self, "_boxes",
                           tuple(float(r) + d / 2 for r in self.radii[3]))

    @property
    def n(self) -> int:
        return len(self.radii[0])

    def annulus(self, i: int, j: int) -> tuple[float, float]:
        return self._annuli[i][j]

    def box_bound(self, j: int) -> float:
        return self._boxes[j]

    def contains(self, i: int, j: int, z: Sequence[complex]) -> bool:
        """|z_j| inside band i of coordinate j, every other |z_m| inside the
        box of coordinate m."""
        lo, hi = self._annuli[i][j]
        if not lo < abs(z[j]) < hi:
            return False
        return all(abs(z[m]) < self._boxes[m] for m in range(self.n) if m != j)

    def to_json_dict(self) -> dict:
        return {"delta": str(self.delta),
                "radii": [[str(x) for x in row] for row in self.radii],
                "expansion": [str(x) for x in self.expansion]}


def build_covering(spec: HopfSpec, delta, r1: Sequence) -> NestedCoveringSpec:
    """Radii for the three-band covering of each coordinate direction.

    r4 = r1/|alpha_j| spans one fundamental annulus of the contraction and
    r2, r3 interpolate geometrically.  Validates, per coordinate: the
    deck map cannot identify two points of one band (delta small enough),
    consecutive bands plus the wrap of the first cover the annulus (delta
    large enough), and no three bands meet even through deck shifts.
    """
    if float(delta) <= 0:
        raise HopfError("delta must be positive")
    alpha_mods = [_modulus(a) for a in spec.alpha]
    r1 = list(r1)
    if len(r1) != spec.n:
        raise HopfError("need one base radius per coordinate")
    if any(r <= 0 for r in r1):
        raise HopfError("base radii must be positive")
    rows = [[], [], [], []]
    for j, (base, mod) in enumerate(zip(r1, alpha_mods)):
        if isinstance(base, Fraction) and isinstance(mod, Fraction):
            r4 = base / mod
        else:
            r4 = float(base) / float(mod)
        ratio = (float(r4) / float(base)) ** (1.0 / 3.0)
        rows[0].append(base)
        rows[1].append(float(base) * ratio)
        rows[2].append(float(base) * ratio ** 2)
        rows[3].append(r4)
    cov = NestedCoveringSpec(tuple(tuple(r) for r in rows), delta,
                             tuple(1 / m if isinstance(m, Fraction) else 1.0 / float(m)
                                   for m in alpha_mods))
    _validate_covering(cov, [float(m) for m in alpha_mods])
    return cov


def _validate_covering(cov: NestedCoveringSpec, mods: list[float]):
    d = float(cov.delta)
    for j, mod in enumerate(mods):
        rs = [float(cov.radii[i][j]) for i in range(4)]
        if any(r <= d for r in rs):
            raise HopfError(f"delta too large: radii of coordinate {j} must exceed it")
        for i in range(3):
            if mod * (rs[i] + d) >= rs[i] - d:
                raise HopfError(
                    f"delta too large (or |alpha_{j}| too close to 1): band {i+1} "
                    "meets its own deck image")
        # consecutive bands and the wrap of band 1 must chain up
        if rs[1] - d >= rs[0] + d or rs[2] - d >= rs[1] + d:
            raise HopfError(f"delta too small: gap between bands of coordinate {j}")
        if rs[3] - d / mod >= rs[2] + d:
            raise HopfError(f"delta too small: wrap gap of coordinate {j}")
        # no modulus lies in all three bands even through deck shifts; bands
        # 1 and 3 may (and must) meet across the wrap, but not directly
        bands = [(rs[i] - d, rs[i] + d) for i in range(3)]
        for k1, k3 in itertools.product(range(-2, 3), repeat=2):
            lo = max(bands[1][0], bands[0][0] * mod ** -k1, bands[2][0] * mod ** -k3)
            hi = min(bands[1][1], bands[0][1] * mod ** -k1, bands[2][1] * mod ** -k3)
            if lo < hi:
                raise HopfError(
                    f"delta too large: triple band overlap in coordinate {j}")
        if bands[2][0] < bands[0][1]:
            raise HopfError(
                f"delta too large: bands 1 and 3 of coordinate {j} overlap directly")


def orbit_hits(cov: NestedCoveringSpec, spec: HopfSpec,
               z: Sequence[complex]) -> set[tuple[int, int, int]]:
    """All (band i, coordinate j, deck power k) with alpha^k z in the piece.

    The deck powers are solved for.  With a_m = log|alpha_m| < 0 and
    l_m = log|z_m|, band (lo, hi) of coordinate j needs
    (log hi - l_j) / a_j < k < (log lo - l_j) / a_j, and the box of every
    other coordinate m with z_m != 0 needs k > (log box_m - l_m) / a_m; a
    coordinate with z_j = 0 gives no hit.  Every k of that interval, widened
    by one integer on each side, is checked with ``cov.contains`` on
    alpha^k z.  Rounding moves the interval's ends by about
    1e-15 (|log lo| + |l_j|) / |a_j|, and ``build_covering`` bounds |a_j| by
    log((r + delta) / (r - delta)) (no band meets its own deck image), so
    the widening catches every k the float predicate admits, however far z
    lies from the covering.
    """
    alpha = spec.alpha_complex()
    n = cov.n
    logs = [math.log(abs(a)) for a in alpha]
    logz = [math.log(abs(x)) if x else None for x in z]
    log_box = [math.log(cov.box_bound(m)) for m in range(n)]
    powers: dict[int, list] = {}
    hits = set()
    for j in range(n):
        if logz[j] is None:
            continue
        k_box = max(((log_box[m] - logz[m]) / logs[m]
                     for m in range(n) if m != j and logz[m] is not None),
                    default=-math.inf)
        for i in range(3):
            lo, hi = cov.annulus(i, j)
            k_lo = max((math.log(hi) - logz[j]) / logs[j], k_box)
            k_hi = (math.log(lo) - logz[j]) / logs[j]
            for k in range(math.floor(k_lo), math.ceil(k_hi) + 1):
                w = powers.get(k)
                if w is None:
                    w = powers[k] = [a ** k * zz if zz else zz
                                     for a, zz in zip(alpha, z)]
                if cov.contains(i, j, w):
                    hits.add((i + 1, j, k))
    return hits


# ----------------------------------------------------------------------
# transition graphs and chains


class TransitionGraph:
    """Finite graph of covering pieces with constant transition values;
    reverse edges are completed automatically as inverses."""

    def __init__(self, nodes: Sequence, edges: dict):
        self.nodes = tuple(nodes)
        self.edges: dict[tuple, complex] = {}
        for (a, b), l in edges.items():
            l = as_complex(l)
            if not l:
                raise HopfError("transition values must be nonzero")
            self.edges[(a, b)] = l
            back = self.edges.get((b, a))
            if back is None:
                self.edges[(b, a)] = 1 / l
            elif abs(back * l - 1) > 1e-9 * max(1.0, abs(back * l)):
                raise HopfError(f"inconsistent inverse transitions on {(a, b)}")

    def neighbors(self, a):
        for (x, y), l in self.edges.items():
            if x == a:
                yield y, l


def transition_chain_search(graph: TransitionGraph,
                            tol: float = 1e-12) -> dict:
    """Shortest chain from each start node through |l| <= 1 edges ending at
    an edge with |l| < 1, or None when no such chain exists."""
    out = {}
    for start in graph.nodes:
        parent = {start: None}
        queue = deque([start])
        found = None
        while queue and found is None:
            node = queue.popleft()
            for nxt, l in graph.neighbors(node):
                mag = abs(l)
                if mag < 1 - tol:
                    found = _path(parent, node) + [nxt]
                    break
                if mag <= 1 + tol and nxt not in parent:
                    parent[nxt] = node
                    queue.append(nxt)
        out[start] = found
    return out


def _path(parent, node):
    chain = [node]
    while parent[node] is not None:
        node = parent[node]
        chain.append(node)
    return chain[::-1]


def reachable_with_contraction(graph: TransitionGraph, tol: float = 1e-12) -> dict:
    """Independent verdict per start node via transitive closure over the
    |l| <= 1 subgraph (oracle for the chain search)."""
    import numpy as np
    nodes = list(graph.nodes)
    idx = {n: i for i, n in enumerate(nodes)}
    size = len(nodes)
    closure = np.eye(size, dtype=bool)
    for (a, b), l in graph.edges.items():
        if abs(l) <= 1 + tol:
            closure[idx[a], idx[b]] = True
    for _ in range(size):
        closure = closure | (closure @ closure)
    has_small = np.zeros(size, dtype=bool)
    for (a, b), l in graph.edges.items():
        if abs(l) < 1 - tol:
            has_small[idx[a]] = True
    return {n: bool(np.any(closure[idx[n]] & has_small)) for n in nodes}


def hopf_transition_graph(cov: NestedCoveringSpec, spec: HopfSpec,
                          bundle: FlatBundle) -> TransitionGraph:
    """Nerve of the covering with the flat-bundle transition values.

    Pieces are (band, coordinate); two pieces are joined when their moduli
    boxes intersect after a deck shift k in {-1, 0, 1}, and the edge value
    is beta^{-k} so the wrap from band 1 up to band 3 carries beta.
    """
    mods = [float(_modulus(a)) for a in spec.alpha]
    beta = as_complex(bundle.beta)
    nodes = [(i, j) for j in range(cov.n) for i in (1, 2, 3)]
    edges = {}

    def interval(node, k):
        """Per-coordinate modulus intervals of the piece shifted by alpha^k."""
        i, j = node
        rows = []
        for c in range(cov.n):
            base = cov.annulus(i - 1, j) if c == j else (0.0, cov.box_bound(c))
            s = mods[c] ** k
            rows.append((base[0] * s, base[1] * s))
        return rows

    for a, b in itertools.combinations(nodes, 2):
        for k in (0, -1, 1):
            ia, ib = interval(a, 0), interval(b, k)
            if all(max(x[0], y[0]) < min(x[1], y[1]) for x, y in zip(ia, ib)):
                if (a, b) not in edges:
                    edges[(a, b)] = beta ** (-k)
                break
    return TransitionGraph(nodes, edges)


# ----------------------------------------------------------------------
# Shilov constants


@dataclass(frozen=True)
class ShilovPiece:
    """Annulus times polydisc: the distinguished torus has |z_j| at either
    annulus radius and every other |z_k| at the polydisc radius."""

    n: int
    annulus_coord: int
    annulus: tuple[float, float]
    disc_radius: float

    def __post_init__(self):
        lo, hi = self.annulus
        if lo <= 0 or hi <= lo or self.disc_radius <= 0:
            raise HopfError("Shilov radii must be positive (no disc through 0)")
        if not 0 <= self.annulus_coord < self.n:
            raise HopfError("annulus coordinate out of range")

    def min_modulus(self, i: int) -> float:
        return self.annulus[0] if i == self.annulus_coord else self.disc_radius


def covering_piece(cov: NestedCoveringSpec, i: int, j: int) -> ShilovPiece:
    """Band i (1, 2 or 3) of coordinate j times the boxes of the others."""
    if i not in (1, 2, 3):
        raise HopfError(f"band must be 1, 2 or 3, got {i}")
    if not 0 <= j < cov.n:
        raise HopfError(f"coordinate must lie in [0, {cov.n}), got {j}")
    return ShilovPiece(cov.n, j, cov.annulus(i - 1, j), cov.box_bound(j))


def shilov_constant(piece: ShilovPiece, fields) -> float:
    """Sup over the distinguished torus of the inf-norm of the inverse
    coefficient matrix of the tangent fields.

    Diagonal fields z_i d/dz_i give diag(z)^{-1}; the Jordan family
    alpha z_i d/dz_i + z_{i+1} d/dz_{i+1} is upper bidiagonal with inverse
    entries (-1)^{j-i} / (alpha^{j-i+1} z_i), so row sums depend only on
    |z_i| and the sup is exact on the torus strata.
    """
    if fields == "diagonal" or fields == ("diagonal",):
        return max(1.0 / piece.min_modulus(i) for i in range(piece.n))
    if isinstance(fields, tuple) and fields and fields[0] == "jordan":
        alpha_mod = abs(as_complex(fields[1]))
        if not 0 < alpha_mod:
            raise HopfError("jordan fields need a nonzero alpha")
        best = 0.0
        for i in range(piece.n):
            tail = piece.n - i
            row = sum(alpha_mod ** -(t + 1) for t in range(tail))
            best = max(best, row / piece.min_modulus(i))
        return best
    raise HopfError(f"unknown field family {fields!r}")


def jordan_field_matrix(alpha: complex, z: Sequence[complex]) -> np.ndarray:
    """Coefficient matrix g with Z_i = sum_j g_ij d/dz_j for the Jordan
    family (dense-inversion oracle helper)."""
    import numpy as np
    n = len(z)
    g = np.zeros((n, n), dtype=complex)
    for i in range(n):
        g[i, i] = alpha * z[i]
        if i + 1 < n:
            g[i, i + 1] = z[i + 1]
    return g
