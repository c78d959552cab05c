"""Toroidal-group data: period/gluing matrices, standard coordinates, deck
linear parts, and the slab-geometry constants (kappa0 and the convex-hull
extension margin).

Conventions.  A group of rank ``q`` inside dimension ``n_h = n - a - b``
is presented by the column matrix ``[[I, R1, R2, R3], [0, I_q, P0, P1]]``;
the first ``n_h`` columns generate the covering lattice (so the covering
is ``(C*)^{n_h}``), the next ``q`` columns act as deck translations, and
the last ``n_h - q`` columns complete a real basis.  The shear to standard
coordinates zeroes the ``R1`` block, after which all domains are Reinhardt
and deck translations act diagonally.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .scalars import CC, as_complex, field_of, json_int

if TYPE_CHECKING:
    import numpy as np

LINALG_TOL = 1e-9


class GeometryError(ValueError):
    pass


def _mat(rows, shape, dtype=float) -> np.ndarray:
    import numpy as np
    arr = np.asarray(rows, dtype=dtype)
    if arr.size == 0:
        arr = arr.reshape(shape)
    if arr.shape != shape:
        raise GeometryError(f"matrix shape {arr.shape} != expected {shape}")
    return arr


@dataclass(frozen=True)
class ToroidalSpec:
    """Period and gluing data for one toroidal group."""

    n: int
    a: int
    b: int
    q: int
    R1: np.ndarray
    R2: np.ndarray
    R3: np.ndarray
    P0: np.ndarray
    P1: np.ndarray

    def __post_init__(self):
        if self.q < 1:
            raise GeometryError("rank q must be >= 1 (no degenerate groups)")
        if self.n_h < self.q:
            raise GeometryError("need n - a - b >= q")
        n_r, q = self.n_r, self.q
        object.__setattr__(self, "R1", _mat(self.R1, (n_r, q)))
        object.__setattr__(self, "R2", _mat(self.R2, (n_r, q)))
        # the completion block R3 must carry the imaginary directions of the
        # unbounded coordinates, so unlike R1/R2 it is complex
        object.__setattr__(self, "R3", _mat(self.R3, (n_r, n_r), complex))
        object.__setattr__(self, "P0", _mat(self.P0, (q, q), complex))
        object.__setattr__(self, "P1", _mat(self.P1, (q, n_r), complex))
        if not self.real_basis_ok():
            raise GeometryError("columns are not R-linearly independent")

    @property
    def n_h(self) -> int:
        return self.n - self.a - self.b

    @property
    def n_r(self) -> int:
        return self.n_h - self.q

    def period_matrix(self) -> np.ndarray:
        """Columns gamma_1..gamma_{2 n_h} in toroidal coordinates."""
        import numpy as np
        n_r, q = self.n_r, self.q
        top = np.hstack([np.eye(n_r), self.R1, self.R2, self.R3])
        bot = np.hstack([np.zeros((q, n_r)), np.eye(q),
                         self.P0, self.P1])
        return np.vstack([top, bot]).astype(complex)

    def real_basis_ok(self, tol: float = LINALG_TOL) -> bool:
        import numpy as np
        gamma = self.period_matrix()
        real = np.vstack([gamma.real, gamma.imag])
        peak = np.max(np.abs(real))
        if peak == 0:
            return False
        return abs(np.linalg.det(real / peak)) > tol

    def to_json_dict(self) -> dict:
        def real_rows(m):
            return [[repr(float(x)) for x in row] for row in m]

        def cplx_rows(m):
            return [[{"re": repr(float(x.real)), "im": repr(float(x.imag))}
                     for x in row] for row in m]

        return {"n": self.n, "a": self.a, "b": self.b, "q": self.q,
                "R1": real_rows(self.R1), "R2": real_rows(self.R2),
                "R3": cplx_rows(self.R3), "P0": cplx_rows(self.P0),
                "P1": cplx_rows(self.P1)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ToroidalSpec":
        def real_m(rows):
            return [[CC.from_strings(x, "0").real for x in row] for row in rows]

        def cplx_m(rows):
            return [[CC.from_strings(e["re"], e["im"]) for e in row] for row in rows]

        return cls(*(json_int(data, k) for k in "nabq"), real_m(data["R1"]),
                   real_m(data["R2"]), *(cplx_m(data[k]) for k in ("R3", "P0", "P1")))


class LatticeBasis(NamedTuple):
    gamma: np.ndarray        # toroidal coordinates, n_h x 2 n_h
    gamma_std: np.ndarray    # standard coordinates, n_h x 2 n_h
    gamma_prime: np.ndarray  # deck translation columns, n_h x q


def shear_to_standard(spec: ToroidalSpec) -> LatticeBasis:
    """Apply the shear that zeroes the R1 block.

    The sheared lattice matrix is ``[[I, 0, R2 - R1 P0, R3 - R1 P1],
    [0, I, P0, P1]]`` and its middle block columns are the deck
    translations gamma'.
    """
    import numpy as np
    n_r, q = spec.n_r, spec.q
    gamma = spec.period_matrix()
    shear = np.block([[np.eye(n_r), -spec.R1],
                      [np.zeros((q, n_r)), np.eye(q)]]).astype(complex)
    gamma_std = shear @ gamma
    gamma_prime = gamma_std[:, spec.n_h:spec.n_h + q]
    return LatticeBasis(gamma, gamma_std, gamma_prime)


class IrrationalityResult(NamedTuple):
    passed: bool
    witness: tuple[int, ...] | None
    bound: int


def _sigma_order(sigma: tuple[int, ...]):
    return (max(abs(s) for s in sigma), sum(abs(s) for s in sigma),
            tuple((abs(s), 0 if s >= 0 else 1) for s in sigma))


def validate_irrationality(spec: ToroidalSpec, height_bound: int,
                           tol: float = LINALG_TOL) -> IrrationalityResult:
    """Search sigma in Z^{n_r}, |sigma|_inf <= bound, with sigma^t R integral.

    Returns the first witness in canonical order, or a bounded pass.  The
    condition itself is undecidable from finite decimal input; the report
    always carries the bound it was checked at.
    """
    if height_bound < 1:
        raise GeometryError("height bound must be >= 1")
    n_r = spec.n_r
    if n_r == 0:
        return IrrationalityResult(True, None, height_bound)
    import numpy as np
    R = np.hstack([spec.R1, spec.R2])
    candidates = sorted(
        (s for s in itertools.product(range(-height_bound, height_bound + 1),
                                      repeat=n_r) if any(s)),
        key=_sigma_order)
    for sigma in candidates:
        prod = np.asarray(sigma, dtype=float) @ R
        if np.all(np.abs(prod - np.round(prod)) <= tol):
            return IrrationalityResult(False, sigma, height_bound)
    return IrrationalityResult(True, None, height_bound)


# ----------------------------------------------------------------------
# deck linear parts


class DeckLinearData:
    """Diagonal linear parts of the q deck transformations.

    ``lam[l][i]`` scales horizontal coordinate i under deck l, ``mu[l][j]``
    scales vertical coordinate j.  All entries lie in one coefficient
    field, ``field`` (QQI or CC).  The instance is treated as
    immutable: ``lam_pow``/``mu_pow`` memoize ``lam_l^P`` and ``mu_l^Q`` in
    one divisor table, shared by the scan and the solvers, with one entry
    per deck and exponent asked for: q (#P + #Q), never one per (P, Q).
    """

    __slots__ = ("lam", "mu", "field", "_table")

    def __init__(self, lam: Sequence[Sequence], mu: Sequence[Sequence]):
        self.lam = tuple(tuple(row) for row in lam)
        self.mu = tuple(tuple(row) for row in mu)
        self._table = {}
        if not self.lam or len(self.lam) != len(self.mu):
            raise GeometryError("lambda and mu need one row per deck")
        widths_l = {len(r) for r in self.lam}
        widths_m = {len(r) for r in self.mu}
        if len(widths_l) != 1 or len(widths_m) != 1:
            raise GeometryError("ragged eigenvalue rows")
        entries = [x for row in self.lam + self.mu for x in row]
        self.field = field_of(entries)
        if self.field is None:
            raise GeometryError("mixed exact/float eigenvalue entries")
        for x in entries:
            if not x:
                raise GeometryError("deck eigenvalues must be nonzero")

    @property
    def q(self) -> int:
        return len(self.lam)

    @property
    def n_h(self) -> int:
        return len(self.lam[0])

    @property
    def d(self) -> int:
        return len(self.mu[0])

    def _pow(self, rows, l: int, exps: Sequence[int]):
        key = (rows is self.mu, l, tuple(exps))
        out = self._table.get(key)
        if out is None:
            out = self.field.one
            for base, e in zip(rows[l], key[2]):
                if e:
                    out = out * base ** e
            self._table[key] = out
        return out

    def lam_pow(self, l: int, p: Sequence[int]):
        return self._pow(self.lam, l, p)

    def mu_pow(self, l: int, q_exp: Sequence[int]):
        return self._pow(self.mu, l, q_exp)

    def inverted(self) -> "DeckLinearData":
        """The linear parts of the inverse decks: every entry's reciprocal."""
        inv = self.field.inv
        return DeckLinearData([inv(row) for row in self.lam], [inv(row) for row in self.mu])

    def __repr__(self):
        return f"DeckLinearData(q={self.q}, n_h={self.n_h}, d={self.d}, field={self.field.name})"


def deck_linear_parts(basis: LatticeBasis, mu: Sequence[Sequence[complex]]) -> DeckLinearData:
    """Exponentiate the deck translation columns: lam[l][i] = e^{2 pi i tau_{i,l}}."""
    n_h, q = basis.gamma_prime.shape
    lam = [[cmath.exp(2j * cmath.pi * basis.gamma_prime[i, l])
            for i in range(n_h)] for l in range(q)]
    mu_rows = [[complex(x) for x in row] for row in mu]
    if len(mu_rows) != q:
        raise GeometryError("mu needs one row per deck")
    return DeckLinearData(lam, mu_rows)


def deck_consistency_residual(decks: DeckLinearData, basis: LatticeBasis) -> float:
    """Max |lam - e^{2 pi i tau}| over all entries (recomputability check)."""
    worst = 0.0
    for l in range(decks.q):
        for i in range(decks.n_h):
            ref = cmath.exp(2j * cmath.pi * basis.gamma_prime[i, l])
            worst = max(worst, abs(as_complex(decks.lam[l][i]) - ref))
    return worst


# ----------------------------------------------------------------------
# slab distance constant kappa0


class Kappa0Result(NamedTuple):
    q_point: np.ndarray
    kappa0: float


def kappa0_estimate(slab_im: Sequence[Sequence[float]], epsilon: float,
                    epsilon_prime: float, p_vec: Sequence[int],
                    rcap: float = 0.0,
                    r_im: Sequence[Sequence[float]] = ()) -> Kappa0Result:
    """Far-face point Q and margin constant for the slab separation bound.

    Q maximizes Q . P over the closed epsilon-slab (plus the symmetric R
    box); every Q' in the epsilon'-slab then satisfies
    ``(Q' - Q) . P <= -kappa0 (eps - eps') |P|_1`` with
    ``kappa0 = sum_j |Im gamma_j . P| / |P|_1`` over slab directions.
    """
    import numpy as np
    if epsilon < epsilon_prime or epsilon_prime < 0:
        raise GeometryError("need epsilon > epsilon' >= 0")
    p = np.asarray(p_vec, dtype=float)
    if not np.any(p):
        raise GeometryError("P must be nonzero")
    slab = np.asarray(slab_im, dtype=float)
    if slab.ndim != 2:
        raise GeometryError("slab vectors must be 2-d")
    if np.linalg.matrix_rank(slab) < slab.shape[0]:
        raise GeometryError("degenerate slab: Im gamma vectors dependent")
    dots = slab @ p
    q_point = np.zeros(slab.shape[1])
    for vec, dot in zip(slab, dots):
        s = (1 + epsilon) if dot >= 0 else -epsilon
        q_point = q_point + s * vec
    r_rows = np.asarray(r_im, dtype=float).reshape(-1, slab.shape[1]) if len(r_im) \
        else np.zeros((0, slab.shape[1]))
    for vec in r_rows:
        q_point = q_point + rcap * math.copysign(1.0, float(vec @ p)) * vec
    p_norm = float(np.sum(np.abs(p)))
    if epsilon == epsilon_prime:
        return Kappa0Result(q_point, 0.0)
    kappa0 = float(np.sum(np.abs(dots))) / p_norm
    return Kappa0Result(q_point, kappa0)


def kappa0_grid_check(slab_im, epsilon, epsilon_prime, p_vec, result: Kappa0Result,
                      grid_points: int = 1000, rcap: float = 0.0, r_im=(),
                      seed: int = 0) -> bool:
    """Verify the defining inequality against sampled Q' in the eps'-slab."""
    import numpy as np
    rng = np.random.default_rng(seed)
    slab = np.asarray(slab_im, dtype=float)
    p = np.asarray(p_vec, dtype=float)
    p_norm = float(np.sum(np.abs(p)))
    r_rows = np.asarray(r_im, dtype=float).reshape(-1, slab.shape[1]) if len(r_im) else np.zeros((0, slab.shape[1]))
    bound = -result.kappa0 * (epsilon - epsilon_prime) * p_norm
    for _ in range(grid_points):
        s = rng.uniform(-epsilon_prime, 1 + epsilon_prime, size=slab.shape[0])
        q_prime = s @ slab
        if len(r_rows):
            r = rng.uniform(-rcap, rcap, size=r_rows.shape[0])
            q_prime = q_prime + r @ r_rows
        if float((q_prime - result.q_point) @ p) > bound + 1e-12:
            return False
    return True


# ----------------------------------------------------------------------
# convex-hull extension margin


class EtaReport(NamedTuple):
    eta: Fraction
    slab_halfwidth: float | Fraction


def convex_extension_eta(spec: ToroidalSpec, epsilon: float | Fraction) -> EtaReport:
    """Largest margin eta with all +-1 deck translates of the
    (epsilon+eta)-slab inside the hull of the 0, +-1, +-2 translates of
    the epsilon-slab; it is 1/q for every epsilon.

    After the base change the deck translations are the unit steps e_i in
    the q slab coordinates, and the shared unbounded/box directions drop
    out.  With B = [-epsilon, 1+epsilon]^q, the hull of the translates is
    B + 2C, where C = conv{+-e_i} is the l1 unit ball.  The translate
    B + [-eta, eta]^q +- e_i lies in it if and only if, by Radstrom's
    cancellation law (B is convex and bounded), [-eta, eta]^q +- e_i lies
    in 2C: the l1 norm of its farthest vertex, 1 + q eta, is at most 2.
    """
    if epsilon <= 0:
        raise GeometryError("epsilon must be positive")
    eta = Fraction(1, spec.q)
    return EtaReport(eta, epsilon + eta)
