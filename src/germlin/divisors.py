"""Small-divisor scans and the coefficientwise solution of the deck
cohomological equations.

The operators act on series vectors by
``L_i(G) = G o tauhat_i - (linear part) G``; on a key (P, Q) and component
k this multiplies the coefficient by the divisor
``lam_l^P mu_l^Q - eigen_{l,k}`` (eigen = mu for vertical components, lam
for horizontal ones).  Inverting the operator divides by those values, so
everything here revolves around how small they get.  The inverse decks
are one more deck system, ``DeckLinearData.inverted()``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .series import FormalSeries
from .toroidal import DeckLinearData

TAU_LADDER = tuple(range(1, 11))
FLOAT_RESONANCE_EPS = 1e-15
FLOAT_COMPAT_TOL = 1e-12


class DivisorError(ValueError):
    pass


class ResonanceError(DivisorError):
    """An exactly (or numerically) vanishing divisor at a populated key."""


class IncompatibleSystem(DivisorError):
    """The cochain family fails the pairwise compatibility identity."""


def _eigen(decks: DeckLinearData, kind: str, comp: int, l: int):
    if kind == "v":
        return decks.mu[l][comp]
    if kind == "h":
        return decks.lam[l][comp]
    raise DivisorError(f"unknown divisor target kind {kind!r}")


def divisor_scalar(decks: DeckLinearData, p: Sequence[int], q: Sequence[int],
                   kind: str, comp: int, l: int):
    """The exact divisor value lam_l^P mu_l^Q - eigen."""
    return decks.lam_pow(l, p) * decks.mu_pow(l, q) - _eigen(decks, kind, comp, l)


def _is_zero_divisor(value, decks: DeckLinearData, l: int, p, q) -> bool:
    """Exactly zero, or over CC below eps relative to |lam_l^P mu_l^Q|, a
    scale formed only over CC."""
    return decks.field.is_zero(value, lambda: FLOAT_RESONANCE_EPS * (
        1.0 + abs(decks.lam_pow(l, p) * decks.mu_pow(l, q))))


def max_divisor(decks: DeckLinearData, p, q, kind: str, comp: int, monomials=None):
    """(best deck index, divisor scalar) maximizing the modulus; ties go to
    the smallest index.  ``monomials[l]``, when given, is lam_l^P mu_l^Q
    already read from the decks' table."""
    best_l, best_val, best_mag = 0, None, None
    abs2 = decks.field.abs2
    for l in range(decks.q):
        if monomials is None:
            val = divisor_scalar(decks, p, q, kind, comp, l)
        else:
            val = monomials[l] - _eigen(decks, kind, comp, l)
        mag = abs2(val)
        if best_mag is None or mag > best_mag:
            best_l, best_val, best_mag = l, val, mag
    return best_l, best_val


# ----------------------------------------------------------------------
# scanning


def compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def signed_vectors(norm: int, length: int) -> Iterable[tuple[int, ...]]:
    """Integer vectors with |.|_1 == norm."""
    for comp in compositions(norm, length):
        signs = [(1,) if c == 0 else (1, -1) for c in comp]
        for pattern in itertools.product(*signs):
            yield tuple(c * s for c, s in zip(comp, pattern))


class ScanArgmin(NamedTuple):
    p: tuple[int, ...]
    q: tuple[int, ...]
    target: tuple[str, int]
    l: int


@dataclass
class DiophantineReport:
    mode: str
    n: int
    min_divisor: float
    argmin: ScanArgmin | None
    d_const: float | None
    tau: int | None
    resonances: list
    violations: list
    per_size_min: dict

    @property
    def has_resonance(self) -> bool:
        return bool(self.resonances)

    def to_json_dict(self) -> dict:
        argmin = None
        if self.argmin is not None:
            argmin = {"P": list(self.argmin.p), "Q": list(self.argmin.q),
                      "target": list(self.argmin.target), "l": self.argmin.l}
        return {"mode": self.mode, "N": self.n,
                "min_divisor": self.min_divisor, "argmin": argmin,
                "D": self.d_const, "tau": self.tau,
                "resonances": [{"P": list(p), "Q": list(q),
                                "target": list(t)} for p, q, t in self.resonances],
                "violations": list(self.violations)}


def _fit_envelope(points: list[tuple[int, float]]):
    """Least-squares log-log slope on the per-size lower envelope, snapped
    to the smallest ladder exponent at or above it."""
    per_size: dict[int, float] = {}
    for s, val in points:
        if s not in per_size or val < per_size[s]:
            per_size[s] = val
    xs = [math.log(s) for s in sorted(per_size)]
    ys = [math.log(per_size[s]) for s in sorted(per_size)]
    if len(xs) >= 2:
        n = len(xs)
        mx = sum(xs) / n
        my = sum(ys) / n
        den = sum((x - mx) ** 2 for x in xs)
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den if den else 0.0
    else:
        slope = 0.0
    tau_hat = -slope
    tau = TAU_LADDER[-1]
    for cand in TAU_LADDER:
        if cand >= tau_hat:
            tau = cand
            break
    return tau, per_size


def diophantine_scan(decks: DeckLinearData, n: int, mode: str = "vertical") -> DiophantineReport:
    """Enumerate all (P, Q) with |P| + |Q| <= n, |Q| > 1 and record the
    max-over-decks divisor per target; fit (D, tau) so the lower bound
    D / (|P|+|Q|)^tau holds strictly at every scanned point.  Each point
    forms lam_l^P mu_l^Q once per deck, from the decks' power table, and
    every target reads those monomials.

    Exact zeros are resonances: the report then carries the witnesses and
    no (D, tau) fit, and downstream solvers must refuse.
    """
    if n < 2:
        raise DivisorError("scan bound must be >= 2")
    if mode not in ("vertical", "full"):
        raise DivisorError(f"unknown scan mode {mode!r}")
    targets = [("v", j) for j in range(decks.d)]
    if mode == "full":
        targets += [("h", i) for i in range(decks.n_h)]

    min_div = math.inf
    argmin = None
    resonances = []
    points: list[tuple[int, float]] = []
    for q_norm in range(2, n + 1):
        for q_vec in compositions(q_norm, decks.d):
            for p_norm in range(0, n - q_norm + 1):
                for p_vec in signed_vectors(p_norm, decks.n_h):
                    size = p_norm + q_norm
                    monos = [decks.lam_pow(l, p_vec) * decks.mu_pow(l, q_vec)
                             for l in range(decks.q)]
                    for target in targets:
                        kind, comp = target
                        l, val = max_divisor(decks, p_vec, q_vec, kind, comp,
                                             monomials=monos)
                        if _is_zero_divisor(val, decks, l, p_vec, q_vec):
                            resonances.append((p_vec, q_vec, target))
                            continue
                        mag = abs(val)
                        points.append((size, mag))
                        if mag < min_div:
                            min_div = mag
                            argmin = ScanArgmin(p_vec, q_vec, target, l)

    if resonances:
        return DiophantineReport(mode, n, 0.0, None, None, None,
                                 resonances, [], {})
    tau, per_size = _fit_envelope(points)
    d_const = min(mag * size ** tau for size, mag in points) * (1 - 1e-9)
    violations = [(s, mag) for s, mag in points if not mag > d_const / s ** tau]
    return DiophantineReport(mode, n, min_div, argmin, d_const, tau,
                             [], violations, per_size)


# ----------------------------------------------------------------------
# cochain systems


@dataclass(frozen=True)
class CochainSystem:
    """One series vector F_i per deck, plus how to read its components."""

    decks: DeckLinearData
    F: tuple[tuple[FormalSeries, ...], ...]
    kind: str = "vertical"            # vertical | full

    def __post_init__(self):
        object.__setattr__(self, "F", tuple(tuple(v) for v in self.F))
        if len(self.F) != self.decks.q:
            raise DivisorError("need one cochain vector per deck")
        width = self.ncomp
        for vec in self.F:
            if len(vec) != width:
                raise DivisorError("cochain vector has wrong component count")
            for s in vec:
                if s.field is not self.decks.field:
                    raise DivisorError("series field differs from deck field")
                if not s.is_zero() and s.v_order() < 2:
                    raise DivisorError("cochain components must have v-order >= 2")

    @property
    def ncomp(self) -> int:
        return system_width(self.decks, self.kind)

    def component_target(self, k: int) -> tuple[str, int]:
        return component_target(self.decks, self.kind, k)

    def verify(self) -> bool:
        """True when the pairwise compatibility identity holds (exactly over
        QQI, within FLOAT_COMPAT_TOL relative to the largest coefficient over
        CC)."""
        return _compatible(self, compatibility_residual(self))


def system_width(decks: DeckLinearData, kind: str) -> int:
    if kind == "vertical":
        return decks.d
    if kind == "full":
        return decks.n_h + decks.d
    raise DivisorError(f"unknown system kind {kind!r}")


def component_target(decks: DeckLinearData, kind: str, k: int) -> tuple[str, int]:
    if kind == "vertical":
        return ("v", k)
    return ("h", k) if k < decks.n_h else ("v", k - decks.n_h)


def apply_operator(decks: DeckLinearData, vec: Sequence[FormalSeries], i: int,
                   kind: str) -> tuple[FormalSeries, ...]:
    """L_i applied to a series vector."""
    out = []
    for k, comp in enumerate(vec):
        tkind, tcomp = component_target(decks, kind, k)
        eig = _eigen(decks, tkind, tcomp, i)
        composed = comp.compose_linear(decks.lam[i], decks.mu[i])
        out.append(composed.sub(comp.scale(eig)))
    return tuple(out)


def compatibility_residual(sys: CochainSystem) -> float:
    """Max coefficient modulus over pairs of L_i(F_j) - L_j(F_i)."""
    worst = 0.0
    for i in range(sys.decks.q):
        for j in range(i + 1, sys.decks.q):
            left = apply_operator(sys.decks, sys.F[j], i, sys.kind)
            right = apply_operator(sys.decks, sys.F[i], j, sys.kind)
            for a, b in zip(left, right):
                worst = max(worst, a.sub(b).max_abs())
    return worst


def _compatible(sys: CochainSystem, residual: float) -> bool:
    """Over CC the tolerance scales with the family's largest coefficient
    modulus; a residual of exactly zero passes, so an all-zero family does."""
    return not residual or sys.decks.field.is_zero(residual, lambda: FLOAT_COMPAT_TOL * max(
        s.max_abs() for vec in sys.F for s in vec))


def check_report(report: DiophantineReport | None, kind: str):
    """A scan report admits a solve of this system kind when it carries no
    resonance witness and, for a full system, comes from a full-mode scan."""
    if report is None:
        return
    if report.has_resonance:
        raise ResonanceError("scan report carries resonance witnesses")
    if kind == "full" and report.mode != "full":
        raise DivisorError("full systems need a full-mode scan report")


def _check_solvable(sys: CochainSystem, report: DiophantineReport | None):
    check_report(report, sys.kind)
    residual = compatibility_residual(sys)
    if not _compatible(sys, residual):
        raise IncompatibleSystem(f"compatibility residual {residual}")


def solve_family(sys: CochainSystem, report: DiophantineReport | None = None) -> tuple[FormalSeries, ...]:
    """Simultaneous solution G with L_i(G) = F_i for every deck i.

    Per key and component the deck with the largest divisor is selected
    (ties to the smallest index) and the coefficient of that deck's F is
    divided by it; compatibility makes the result independent of the
    choice, and the solution is the unique formal one.
    """
    _check_solvable(sys, report)
    decks = sys.decks
    out = []
    for k in range(sys.ncomp):
        tkind, tcomp = sys.component_target(k)
        template = sys.F[0][k]
        acc = {}
        keys = set()
        for i in range(decks.q):
            keys.update(sys.F[i][k].terms)
        for key in keys:
            l, val = max_divisor(decks, key.P, key.Q, tkind, tcomp)
            coeff = sys.F[l][k].terms.get(key)
            if coeff is None:
                continue
            if _is_zero_divisor(val, decks, l, key.P, key.Q):
                raise ResonanceError(f"resonant divisor at key {key}")
            acc[key] = coeff / val
        out.append(template.like(acc))
    return tuple(out)
