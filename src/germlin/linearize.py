"""Order-by-order vertical and full linearization of commuting deck
systems, with conjugacy-residual verification and majorant-series
certificates.

The deck transformations are ``tau_i = tauhat_i + tau*_i`` with diagonal
linear part and perturbation of v-order >= 2.  Conjugating by
``Phi = Id + phi`` is the single equation per deck

    L_i(phi) = rhs_i(phi),

with ``L_i`` the operator of :mod:`germlin.divisors` and ``rhs_i(phi) =
tau*_i o (Id + phi)`` in full mode; vertical mode, phi = (0, phi_v), gives
the foliation with the embedded manifold as a leaf, and its right-hand side
adds the horizontal shift of phi_v o tauhat_i.  Both modes solve it degree
by degree: at degree m the right-hand side is assembled from the parts of
phi already found at degrees < m, so the whole iteration is a sequence of
exact divisions in exact mode.  The conjugacy residual is the defect
L_i(phi) - rhs_i(phi) of that equation at the full cap, L_i of the final
phi against the solver's composition at degree ``n_v``: phi's degree-``n_v``
part, missing there, moves rhs_i only above ``n_v``, as d_v tau*_i has
v-order >= 1, d_h tau*_i and the shift of phi_v o tauhat_i >= 2.  It checks
the solve, not the formula for rhs_i, which it shares with the solver; a
check independent of that formula is ROADMAP item 12's.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .scalars import QC, QQI, as_complex
from .series import FormalSeries, GridSpec, grid_sup_norm, series_to_dict, substitute_shift
from .divisors import (
    CochainSystem, DiophantineReport, apply_operator, check_report, solve_family,
    system_width,
)
from .toroidal import DeckLinearData

Vec = tuple[FormalSeries, ...]


class LinearizeError(ValueError):
    """Input error: a parameter, profile or mode the solvers cannot use."""


class MajorantFailure(LinearizeError):
    """Certified failure: the majorant system has a negative coefficient."""


# ----------------------------------------------------------------------
# series-vector helpers


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x.add(y) for x, y in zip(a, b))


def vec_sub(a: Vec, b: Vec) -> Vec:
    return tuple(x.sub(y) for x, y in zip(a, b))


def vec_scale_each(vec: Vec, factors) -> Vec:
    return tuple(x.scale(f) for x, f in zip(vec, factors))


def vec_homog(vec: Vec, m: int, trunc_v: int) -> Vec:
    """Degree-m parts, re-capped at v-degree ``trunc_v``."""
    return tuple(x.homogeneous_part(m).with_caps(x.trunc_h, trunc_v) for x in vec)


def vec_max_abs(vec: Vec) -> float:
    return max((x.max_abs() for x in vec), default=0.0)


def vec_compose_linear(vec: Vec, h_factors, v_factors) -> Vec:
    return tuple(x.compose_linear(h_factors, v_factors) for x in vec)


def per_deck(flat: Vec, q: int) -> tuple[Vec, ...]:
    """The q equal slices of the stacked components of q decks."""
    width = len(flat) // q
    return tuple(flat[i * width:(i + 1) * width] for i in range(q))


# ----------------------------------------------------------------------
# deck perturbations


@dataclass
class DeckPerturbation:
    """Linear deck data plus the order->=2 perturbations."""

    decks: DeckLinearData
    tau_h: tuple[Vec, ...]      # per deck: n_h components
    tau_v: tuple[Vec, ...]      # per deck: d components
    n_v: int
    n_h_budget: int

    def __post_init__(self):
        q, n_h, d = self.decks.q, self.decks.n_h, self.decks.d
        self.tau_h = tuple(tuple(v) for v in self.tau_h)
        self.tau_v = tuple(tuple(v) for v in self.tau_v)
        if len(self.tau_h) != q or len(self.tau_v) != q:
            raise LinearizeError("need one perturbation per deck")
        for vec, width in ((self.tau_h, n_h), (self.tau_v, d)):
            for comps in vec:
                if len(comps) != width:
                    raise LinearizeError("perturbation has wrong component count")
                for s in comps:
                    if (s.n_h, s.n_v) != (n_h, d) or s.field is not self.decks.field:
                        raise LinearizeError("perturbation series incompatible with decks")
                    if not s.is_zero() and s.v_order() < 2:
                        raise LinearizeError("perturbations must have v-order >= 2")

    def stacked(self, i: int) -> Vec:
        return self.tau_h[i] + self.tau_v[i]

    def inverted(self) -> "DeckPerturbation":
        """The inverse decks tau_i^{-1}: linear parts tauhat_i^{-1} and the
        perturbations of tau_i^{-1} relative to them.  A Phi conjugating
        the tauhat_i to the tau_i also conjugates their inverses, so both
        systems have the same solutions."""
        n_h = self.decks.n_h
        sigma = [_invert_deck(self, i) for i in range(self.decks.q)]
        return DeckPerturbation(self.decks.inverted(), tuple(s[:n_h] for s in sigma),
                                tuple(s[n_h:] for s in sigma), self.n_v, self.n_h_budget)


def _invert_deck(pert: DeckPerturbation, i: int) -> Vec:
    """tau_i^{-1} - tauhat_i^{-1} at truncation.

    tau = tauhat o (Id + phi) with phi = tauhat^{-1} tau*, so tau^{-1} =
    (Id + psi) o tauhat^{-1} for the inverse Id + psi of Id + phi, and the
    difference is psi o tauhat^{-1}.  The degree window is that of
    :func:`invert_near_identity`.
    """
    inv = pert.decks.field.inv
    lam_inv, mu_inv = inv(pert.decks.lam[i]), inv(pert.decks.mu[i])
    psi_h, psi_v = invert_near_identity(vec_scale_each(pert.tau_h[i], lam_inv),
                                        vec_scale_each(pert.tau_v[i], mu_inv),
                                        pert.n_v, pert.n_h_budget)
    return vec_compose_linear(psi_h + psi_v, lam_inv, mu_inv)


def compose_decks(pert: DeckPerturbation, i: int, j: int) -> Vec:
    """Perturbation of tau_i o tau_j relative to tauhat_i tauhat_j."""
    decks, n_v, n_h = pert.decks, pert.n_v, pert.n_h_budget
    lam_i, mu_i = decks.lam[i], decks.mu[i]
    lam_j_inv, mu_j_inv = decks.field.inv(decks.lam[j]), decks.field.inv(decks.mu[j])
    star_i, star_j = pert.stacked(i), pert.stacked(j)
    # tauhat_i applied to tau*_j
    lin_part = (vec_scale_each(star_j[:decks.n_h], lam_i)
                + vec_scale_each(star_j[decks.n_h:], mu_i))
    # tau*_i o tau_j = (tau*_i o tauhat_j) shifted by tauhat_j^{-1} tau*_j
    pulled = vec_compose_linear(star_i, decks.lam[j], decks.mu[j])
    shift_h = vec_scale_each(star_j[:decks.n_h], lam_j_inv)
    shift_v = vec_scale_each(star_j[decks.n_h:], mu_j_inv)
    comp = substitute_shift(pulled, shift_h, shift_v, n_v, n_h)
    return vec_add(lin_part, comp)


def check_commutation(pert: DeckPerturbation) -> float:
    """Max coefficient modulus of tau_i tau_j - tau_j tau_i at truncation."""
    worst = 0.0
    for i in range(pert.decks.q):
        for j in range(i + 1, pert.decks.q):
            diff = vec_sub(compose_decks(pert, i, j), compose_decks(pert, j, i))
            worst = max(worst, vec_max_abs(diff))
    return worst


# ----------------------------------------------------------------------
# fixture generation


PYTHAGOREAN_UNITS = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29),
                     (7, 24, 25), (9, 40, 41), (12, 35, 37), (11, 60, 61))
MU_BASES = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7))


class GeneratedDecks(NamedTuple):
    pert: DeckPerturbation
    phi0_h: Vec | None
    phi0_v: Vec | None


def default_linear_decks(n_h: int, d: int, q: int) -> DeckLinearData:
    """Unit-modulus Gaussian-rational lambdas and prime-reciprocal mus.

    The mu entries are multiplicatively independent, so no divisor with
    |Q| >= 2 can vanish: |lam^P mu^Q| is a product of at least two prime
    reciprocals and never equals a single |mu_j| (or 1 = |lam_i|).
    """
    if d > len(MU_BASES):
        raise LinearizeError("vertical dimension too large for the fixture pool")
    units = []
    for a, b, c in PYTHAGOREAN_UNITS:
        units.append(QC(Fraction(a, c), Fraction(b, c)))
    if q * n_h > len(units):
        raise LinearizeError("not enough distinct unit eigenvalues")
    lam = [[units[l * n_h + i] for i in range(n_h)] for l in range(q)]
    mu = [[QC(MU_BASES[j]) for j in range(d)] for _ in range(q)]
    return DeckLinearData(lam, mu)


def _random_perturbation(rng: random.Random, n_h, d, ncomp, n_v, trunc_h,
                         scale: Fraction, field=QQI, horizontal_only=False,
                         vertical_only=False) -> Vec:
    out = []
    for k in range(ncomp):
        terms = {}
        if (horizontal_only and k >= n_h) or (vertical_only and k < n_h):
            out.append(FormalSeries.zero(n_h, d, trunc_h, n_v, field))
            continue
        for _ in range(rng.randint(1, 3)):
            p = tuple(rng.randint(-1, 1) for _ in range(n_h))
            total = rng.randint(2, max(2, min(3, n_v)))
            q_exp = [0] * d
            for _ in range(total):
                q_exp[rng.randrange(d)] += 1
            coeff = QC(Fraction(rng.randint(-2, 2), rng.randint(6, 16)),
                       Fraction(rng.randint(-2, 2), rng.randint(6, 16))) * scale
            if coeff:
                terms[(p, tuple(q_exp))] = terms.get((p, tuple(q_exp)), QC(0)) + coeff
        live = {k2: field.coerce(v) for k2, v in terms.items() if v}
        out.append(FormalSeries(n_h, d, live, trunc_h, n_v, field))
    return tuple(out)


def invert_near_identity(phi_h: Vec, phi_v: Vec, n_v: int, n_h: int) -> tuple[Vec, Vec]:
    """Truncated compositional inverse of Id + phi: psi = -phi o (Id + psi).

    Degree window: phi and psi have v-order >= 2, so a term of psi at degree
    s moves -phi o (Id + psi) only above degree s.  Iterate t runs at cap
    t + 1 and is exact through it: the cap grows from 2 to ``n_v`` instead
    of every iterate being recomposed up to ``n_v``.
    """
    n_hc = len(phi_h)
    phi = tuple(phi_h) + tuple(phi_v)
    psi = tuple(s.like() for s in phi)
    for cap in range(2, n_v + 1) or (n_v,):
        psi = tuple(c.neg() for c in
                    substitute_shift(phi, psi[:n_hc], psi[n_hc:], cap, n_h))
    return psi[:n_hc], psi[n_hc:]


def conjugate_linear_decks(decks: DeckLinearData, phi0_h: Vec, phi0_v: Vec,
                           n_v: int, n_h_budget: int) -> DeckPerturbation:
    """Decks Phi0 o tauhat_i o Phi0^{-1}, truncated; they commute pairwise
    at truncation by construction."""
    psi_h, psi_v = invert_near_identity(phi0_h, phi0_v, n_v, n_h_budget)
    # rho_i = phi0 o tauhat_i for every deck, all composed with psi at once
    rho = [s for lam, mu in zip(decks.lam, decks.mu)
           for s in vec_compose_linear(phi0_h + phi0_v, lam, mu)]
    outer = per_deck(substitute_shift(rho, psi_h, psi_v, n_v, n_h_budget), decks.q)
    tau_h = tuple(vec_add(vec_scale_each(psi_h, lam), out[:decks.n_h])
                  for lam, out in zip(decks.lam, outer))
    tau_v = tuple(vec_add(vec_scale_each(psi_v, mu), out[decks.n_h:])
                  for mu, out in zip(decks.mu, outer))
    return DeckPerturbation(decks, tau_h, tau_v, n_v, n_h_budget)


def generate_commuting_decks(seed: int, dims: tuple[int, int, int], n_v: int,
                             profile: str = "coboundary",
                             decks: DeckLinearData | None = None,
                             scale: Fraction = Fraction(1, 1),
                             horizontal_only=False, vertical_only=False) -> GeneratedDecks:
    """Deck fixtures that commute exactly at truncation.

    ``coboundary`` conjugates the linear decks by a random Phi0 = Id + phi0
    and returns phi0 as hidden ground truth; ``generic`` uses the same
    construction (the one systematic way to guarantee commutation at this
    scale) but withholds it.
    """
    n_h, d, q = dims
    if decks is None:
        decks = default_linear_decks(n_h, d, q)
    elif (decks.n_h, decks.d, decks.q) != dims:
        raise LinearizeError(f"dims {dims} do not match the decks, "
                             f"{(decks.n_h, decks.d, decks.q)}")
    rng = random.Random(seed)
    max_p = 1
    n_h_budget = (n_v + 1) * (max_p + 1) + max_p
    ncomp = n_h + d
    phi0 = _random_perturbation(rng, n_h, d, ncomp, n_v, n_h_budget, scale,
                                decks.field, horizontal_only, vertical_only)
    phi0_h, phi0_v = phi0[:n_h], phi0[n_h:]
    if n_v < 2:
        raise LinearizeError("truncation too small to express the perturbation")
    pert = conjugate_linear_decks(decks, phi0_h, phi0_v, n_v, n_h_budget)
    if profile == "coboundary":
        return GeneratedDecks(pert, phi0_h, phi0_v)
    if profile == "generic":
        return GeneratedDecks(pert, None, None)
    raise LinearizeError(f"unknown profile {profile!r}")


# ----------------------------------------------------------------------
# linearization iterations


@dataclass
class LinearizationResult:
    mode: str                    # vertical | full
    n_v: int
    phi_h: Vec                   # empty tuple in vertical mode
    phi_v: Vec
    residual_per_degree: list[float]

    @property
    def max_residual(self) -> float:
        return max(self.residual_per_degree, default=0.0)

    def to_json_dict(self) -> dict:
        return {"mode": self.mode, "N_v": self.n_v,
                "residual_per_degree": list(self.residual_per_degree),
                "phi_h": [series_to_dict(s) for s in self.phi_h],
                "phi_v": [series_to_dict(s) for s in self.phi_v]}


def _rhs(pert: DeckPerturbation, phi: Vec, kind: str, cap: int) -> tuple[Vec, ...]:
    """rhs_i(phi) of L_i(phi) = rhs_i(phi) for every deck i, composed at
    v-degree ``cap``.

    Full mode: tau*_i o (Id + phi).  Vertical mode, where phi holds phi_v
    only: the vertical part of tau*_i o (Id + (0, phi_v)) minus the move of
    phi_v o tauhat_i under the horizontal shift
    tauhat_i^{-1} tau*_i^h o (Id + (0, phi_v)).  All tau*_i share one
    shift and one call.
    """
    n_h, decks = pert.n_h_budget, pert.decks
    split = decks.n_h if kind == "full" else 0
    stars = [s for i in range(decks.q) for s in pert.stacked(i)]
    composed = per_deck(substitute_shift(stars, phi[:split], phi[split:], cap, n_h), decks.q)
    if kind == "full":
        return composed
    rhs = []
    for i, comp in enumerate(composed):
        shift, term_i = comp[:decks.n_h], comp[decks.n_h:]
        psi = vec_compose_linear(phi, decks.lam[i], decks.mu[i])
        shift_scaled = vec_scale_each(shift, decks.field.inv(decks.lam[i]))
        term_ii = vec_sub(substitute_shift(psi, shift_scaled, None, cap, n_h), psi)
        rhs.append(vec_sub(term_i, term_ii))
    return tuple(rhs)


def _linearize(pert: DeckPerturbation, n_v: int, kind: str,
               report: DiophantineReport | None) -> LinearizationResult:
    """Solve L_i(phi) = rhs_i(phi) for every deck i, degree by degree: the
    degree-m part of the right-hand side is composed at cap m only, from
    the parts of phi found below m.  The residual reuses the last one (see
    the module docstring).

    At each degree the right-hand side family must satisfy the pairwise
    compatibility identity; failure signals non-commuting input decks.
    """
    check_report(report, kind)
    decks = pert.decks
    n_v = min(n_v, pert.n_v)
    phi = tuple(FormalSeries.zero(decks.n_h, decks.d, pert.n_h_budget, n_v, decks.field)
                for _ in range(system_width(decks, kind)))
    rhs = None
    for m in range(2, n_v + 1):
        rhs = _rhs(pert, phi, kind, m)
        family = tuple(vec_homog(r, m, n_v) for r in rhs)
        phi = vec_add(phi, solve_family(CochainSystem(decks, family, kind), report))
    split = decks.n_h if kind == "full" else 0
    phi_h, phi_v = phi[:split], phi[split:]
    residuals = conjugacy_residual(phi_v, pert, n_v, kind, phi_h, rhs)
    return LinearizationResult(kind, n_v, phi_h, phi_v, residuals)


def vertical_linearize(pert: DeckPerturbation, n_v: int,
                       report: DiophantineReport | None = None) -> LinearizationResult:
    """phi = (0, phi_v) conjugating the decks to maps with linear vertical
    part."""
    return _linearize(pert, n_v, "vertical", report)


def full_linearize(pert: DeckPerturbation, n_v: int,
                   report: DiophantineReport | None = None) -> LinearizationResult:
    """phi = (phi_h, phi_v) conjugating the decks to their linear parts."""
    return _linearize(pert, n_v, "full", report)


def conjugacy_residual(phi_v: Vec, pert: DeckPerturbation, n_v: int, mode: str,
                       phi_h: Vec = (), rhs: tuple[Vec, ...] | None = None) -> list[float]:
    """Per degree, the max coefficient modulus of L_i(phi) - rhs_i(phi) over
    the decks, with the right-hand sides ``rhs`` as composed at cap ``n_v``
    or, by default, recomposed from phi (vertical mode reads phi_v only)."""
    if mode not in ("full", "vertical"):
        raise LinearizeError(f"unknown mode {mode!r}")
    phi = (tuple(phi_h) if mode == "full" else ()) + tuple(phi_v)
    if rhs is None:
        rhs = _rhs(pert, phi, mode, n_v)
    per_degree = [0.0] * (n_v + 1)
    for i in range(pert.decks.q):
        lhs = apply_operator(pert.decks, phi, i, mode)
        for comp in vec_sub(lhs, rhs[i]):
            for key, c in comp.terms.items():
                if key.q_size <= n_v:
                    per_degree[key.q_size] = max(per_degree[key.q_size], abs(c))
    return per_degree


# ----------------------------------------------------------------------
# majorant sequences


class EtaSequence(NamedTuple):
    values: list[float]       # index by degree, [0] unused
    log_values: list[float]
    d_growth: float


def eta_sequence(c1: float, eta_margin: float, tau: float, nu: float,
                 m_max: int) -> EtaSequence:
    """The comparison weights eta_1 = 1,
    eta_m = (C1/eta^{tau+nu}) 2^{m(tau+nu)} max over partitions
    m_1+...+m_p+s = m (1 <= m_i <= m-1, s >= 0) of eta_{m_1}...eta_{m_p};
    computed in the log domain with a dynamic program over part sums.
    """
    if min(c1, eta_margin, tau, nu) <= 0:
        raise LinearizeError("majorant constants must be positive")
    if m_max < 2:
        raise LinearizeError("need m_max >= 2")
    s_expo = tau + nu
    base = math.log(c1) - s_expo * math.log(eta_margin)
    log2 = math.log(2.0)
    log_eta = [0.0] * (m_max + 1)
    log_eta[0] = float("-inf")
    for m in range(2, m_max + 1):
        # best log-product over exact part sums t <= m with parts <= m-1
        w = [0.0] + [float("-inf")] * m
        for t in range(1, m + 1):
            for k in range(1, min(t, m - 1) + 1):
                cand = log_eta[k] + w[t - k]
                if cand > w[t]:
                    w[t] = cand
        best = max(w)
        log_eta[m] = base + m * s_expo * log2 + best
    values = [_safe_exp(x) for x in log_eta]
    values[0] = 0.0
    d_growth = _safe_exp(max(log_eta[m] / m for m in range(1, m_max + 1)))
    return EtaSequence(values, log_eta, d_growth)


def _safe_exp(x: float) -> float:
    if x == float("-inf"):
        return 0.0
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# ----------------------------------------------------------------------
# majorant functional systems


def _poly_mul(a: list[float], b: list[float], cap: int) -> list[float]:
    out = [0.0] * (cap + 1)
    for i, x in enumerate(a):
        if x == 0.0 or i > cap:
            continue
        for j, y in enumerate(b):
            if i + j > cap:
                break
            if y:
                out[i + j] += x * y
    return out


def _poly_add(a, b, cap):
    out = [0.0] * (cap + 1)
    for i in range(cap + 1):
        if i < len(a):
            out[i] += a[i]
        if i < len(b):
            out[i] += b[i]
    return out


def _count_multi(k: int, dim: int) -> int:
    return math.comb(k + dim - 1, dim - 1)


def _sum_weighted_powers(base: list[float], weight, k_min: int, cap: int) -> list[float]:
    """sum_{k >= k_min} weight(k) base^k truncated at cap; base(0) = 0."""
    out = [0.0] * (cap + 1)
    power = [0.0] * (cap + 1)
    power[0] = 1.0
    for k in range(1, cap + 1):
        power = _poly_mul(power, base, cap)
        if all(x == 0.0 for x in power):
            break
        if k >= k_min:
            wk = weight(k)
            if wk:
                for idx, val in enumerate(power):
                    out[idx] += wk * val
    return out


def _geom_inv_pow(x: list[float], n: int, cap: int) -> list[float]:
    """(1 - x)^{-n} - 1 truncated at cap; x(0) = 0."""
    return _sum_weighted_powers(x, lambda k: math.comb(n + k - 1, k), 1, cap)


def _g_of(t_plus_u: list[float], r_prime: float, d: int, cap: int) -> list[float]:
    return _sum_weighted_powers(t_plus_u,
                                lambda k: _count_multi(k, d) * r_prime ** k,
                                2, cap)


@dataclass
class MajorantCert:
    mode: str
    eta: list[float]
    log_eta: list[float]
    d_growth: float
    a_seq: list[float]
    constants: dict

    def bound(self, m: int) -> float:
        return self.a_seq[m] * self.eta[m]

    def to_json_dict(self) -> dict:
        return {"mode": self.mode, "eta": list(self.eta),
                "D_growth": self.d_growth, "A": list(self.a_seq),
                "constants": dict(self.constants)}


def majorant_functional_solve(mode: str, constants: dict, m_max: int) -> MajorantCert:
    """Solve the majorant fixed-point system degree by degree.

    Vertical mode couples A with the translate family B; every B^{+-e_i}
    starts where A starts and follows A's recursion with the coupling
    A + 2q B, so B = A, the coupling is A + 2q A and the certificate
    carries A only.
    Full mode solves A = g h with g the weighted powers of (t + A) at
    radius R' and h the same at the interior-distance denominator M; its
    first nonzero coefficient appears at degree 4.  Every computed
    coefficient must be nonnegative; a negative one fails hard.
    """
    need = {"r_prime", "c1", "eta_margin", "tau", "nu", "n_h", "d", "q"}
    if mode == "vertical":
        need |= {"c", "c_prime", "c_dprime"}
    elif mode == "full":
        need |= {"m_denom"}
    else:
        raise LinearizeError(f"unknown majorant mode {mode!r}")
    missing = need - set(constants)
    if missing:
        raise LinearizeError(f"missing majorant constants: {sorted(missing)}")
    for key in need:
        if not constants[key] > 0:
            raise LinearizeError(f"constant {key} must be positive")

    eta = eta_sequence(constants["c1"], constants["eta_margin"],
                       constants["tau"], constants["nu"], m_max)
    n_h, d, q = int(constants["n_h"]), int(constants["d"]), int(constants["q"])
    r_prime = constants["r_prime"]
    cap = m_max
    t_poly = [0.0, 1.0] + [0.0] * (cap - 1)

    if mode == "vertical":
        c_over = constants["c"] / constants["c_dprime"] ** constants["nu"]
        ratio = constants["c_prime"] / constants["c_dprime"]
    a = [0.0] * (cap + 1)
    for m in range(2, cap + 1):
        base = _poly_add(t_poly, a, cap)
        g = _g_of(base, r_prime, d, cap)
        if mode == "vertical":
            coupling = _poly_add(a, [2 * q * x for x in a], cap)
            brk = _geom_inv_pow([ratio * x for x in g], n_h, cap)
            rhs = _poly_add(g, [c_over * x for x in _poly_mul(coupling, brk, cap)], cap)
        else:
            h = _sum_weighted_powers(
                base, lambda k: _count_multi(k, n_h) * constants["m_denom"] ** -k, 2, cap)
            rhs = _poly_mul(g, h, cap)
        a[m] = rhs[m]
        if a[m] < 0:
            raise MajorantFailure(f"negative majorant coefficient at degree {m}")
    return MajorantCert(mode, eta.values, eta.log_values, eta.d_growth, a, dict(constants))


# ----------------------------------------------------------------------
# domination certificates


def grid_ladder(base: GridSpec, m_max: int, eta_over_kappa: float = 0.25) -> list[GridSpec]:
    """Shrinking grids: r_m = r_1 e^{-sum 2^{-k}}, slab scale
    eps_m/eps_1 = 1 - eta_over_kappa sum 2^{-k}; indices 0..m_max with the
    first two entries copies of the base."""
    if not 0 < eta_over_kappa < 0.5:
        raise LinearizeError("eta/kappa ratio must sit in (0, 1/2)")
    grids = [base, base]
    acc = 0.0
    for m in range(2, m_max + 1):
        acc += 2.0 ** -(m - 1)
        v_factor = math.exp(-acc)
        eps_scale = 1.0 - eta_over_kappa * acc
        # log-radial shrink towards the unit torus mirrors the slab shrink
        rows = tuple(tuple(r ** eps_scale for r in row) for row in base.h_radii)
        grids.append(GridSpec(rows, base.v_radius * v_factor, base.angles))
    return grids


class DominationReport(NamedTuple):
    passed: bool
    first_fail: int | None
    rows: list   # (degree, sup, bound, grid label), translate rows in vertical mode


def certify_domination(result: LinearizationResult, cert: MajorantCert,
                       grids: Sequence[GridSpec],
                       decks: DeckLinearData | None = None) -> DominationReport:
    """Check sup |[phi]_m| <= A_m eta_m on the m-th ladder grid for each
    degree (and, in vertical mode, on its deck-translated grids against the
    same bound, since B = A)."""
    rows = []
    first_fail = None
    comps = tuple(result.phi_h) + tuple(result.phi_v)
    m_top = min(result.n_v, len(cert.a_seq) - 1, len(grids) - 1)
    for m in range(2, m_top + 1):
        sup = max((grid_sup_norm(c.homogeneous_part(m), grids[m]) for c in comps),
                  default=0.0)
        bound = cert.bound(m)
        ok = sup <= bound
        rows.append((m, sup, bound, "A"))
        if not ok and first_fail is None:
            first_fail = m
        if cert.mode == "vertical" and decks is not None:
            for i in range(decks.q):
                for sign, label in ((1, f"+e{i+1}"), (-1, f"-e{i+1}")):
                    factors = [abs(as_complex(x)) ** sign for x in decks.lam[i]]
                    shifted = grids[m].scaled(factors)
                    sup_b = max((grid_sup_norm(c.homogeneous_part(m), shifted)
                                 for c in comps), default=0.0)
                    rows.append((m, sup_b, bound, label))
                    if sup_b > bound and first_fail is None:
                        first_fail = m
    return DominationReport(first_fail is None, first_fail, rows)


# ----------------------------------------------------------------------
# constant fitting


def fit_majorant_constants(pert: DeckPerturbation, report: DiophantineReport,
                           base_grid: GridSpec) -> dict:
    """Empirical constants for the vertical majorant system, fitted on the
    data.

    R' comes from the per-slice sup norms of the perturbations (the
    smallest geometric envelope over |Q|); C1 from the measured ratio of a
    degree-2 vertical solve to its data (the rule C1 = sup|G| / (sup|F|
    (delta^{-(tau+nu)} + rho^{-(tau+nu)})) at delta = rho = 1/2); both
    carry a safety factor 2, the margin is eta = 1/4 and the remaining
    constants are 1.  Constants are inputs to an independent check, never
    a correctness claim.
    """
    if report.tau is None:
        raise LinearizeError("need a resonance-free scan to fit constants")
    decks = pert.decks
    nu = decks.n_h + decks.d + 1
    r_prime = 1e-9
    for i in range(decks.q):
        for comp in pert.stacked(i):
            by_q: dict[tuple[int, ...], FormalSeries] = {}
            for key, c in comp.terms.items():
                slice_map = by_q.setdefault(key.Q, {})
                slice_map[(key.P, (0,) * comp.n_v)] = c
            for q_exp, slice_terms in by_q.items():
                size = sum(q_exp)
                if size < 2:
                    continue
                slice_series = comp.like(slice_terms)
                sup = grid_sup_norm(slice_series, base_grid)
                if sup > 0:
                    r_prime = max(r_prime, sup ** (1.0 / size))
    # degree-2 family ratio for C1
    rhs2 = tuple(vec_homog(pert.tau_v[i], 2, pert.n_v) for i in range(decks.q))
    g2 = solve_family(CochainSystem(decks, rhs2, "vertical"))
    sup_g = max((grid_sup_norm(c, base_grid) for c in g2), default=0.0)
    sup_f = max((grid_sup_norm(c, base_grid) for vec in rhs2 for c in vec),
                default=0.0)
    delta = rho = 0.5
    safety = 2.0
    expo = report.tau + nu
    geom = delta ** -expo + rho ** -expo
    c1 = safety * sup_g / (sup_f * geom) if sup_f > 0 else safety
    return {"r_prime": max(r_prime * safety, 1e-9), "c1": max(c1, 1e-6),
            "eta_margin": 0.25, "tau": float(report.tau), "nu": float(nu),
            "n_h": decks.n_h, "d": decks.d, "q": decks.q,
            "c": 1.0, "c_prime": 1.0, "c_dprime": 1.0}
