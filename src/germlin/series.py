"""Sparse formal series, Laurent in the horizontal block and Taylor in the
vertical block.

A series lives on ``(C*)^{n_h} x C^{n_v}``: exponent keys pair an integer
vector ``P`` (Laurent, horizontal) with a nonnegative vector ``Q`` (Taylor,
vertical).  Coefficients are exact Gaussian rationals or floats, see
:mod:`germlin.scalars`.  Every series carries explicit truncation caps:
``trunc_v`` grades the iteration and overflow in ``|Q|`` is dropped
silently, while the Laurent spread ``|P|`` is a budget the caller must set
large enough -- nonzero overflow there raises.
"""

from __future__ import annotations

import math
from operator import add as _add
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .scalars import FIELDS, FLOAT_OVERFLOW_TOL, QQI, as_complex

if TYPE_CHECKING:
    import numpy as np

class SeriesError(ValueError):
    """Input error: mismatched dimensions, fields or truncations."""


class TruncationOverflow(SeriesError):
    """Certified failure: a nonzero coefficient landed beyond the Laurent
    budget."""


class ExponentKey(NamedTuple):
    """Mixed exponent: P indexes horizontal Laurent powers, Q vertical."""

    P: tuple[int, ...]
    Q: tuple[int, ...]

    @property
    def p_size(self) -> int:
        return sum(abs(p) for p in self.P)

    @property
    def q_size(self) -> int:
        return sum(self.Q)


# ExponentKey from a ready (P, Q) pair, without NamedTuple argument parsing
_new_key = tuple.__new__


def _key(p: Sequence[int], q: Sequence[int]) -> ExponentKey:
    q = tuple(int(x) for x in q)
    if any(x < 0 for x in q):
        raise SeriesError("vertical exponents must be nonnegative")
    return ExponentKey(tuple(int(x) for x in p), q)


class GridSpec:
    """Sampling grid on a Reinhardt product domain.

    ``h_radii[i]`` is the tuple of sampled radii for horizontal coordinate
    ``i``; every vertical coordinate is sampled on the circle of radius
    ``v_radius``.  ``angles`` points per angular direction (>= 4); doubling
    it refines the sample set.
    """

    __slots__ = ("h_radii", "v_radius", "angles")

    def __init__(self, h_radii: Sequence[Sequence[float]], v_radius: float,
                 angles: int = 16):
        self.h_radii = tuple(tuple(float(r) for r in row) for row in h_radii)
        self.v_radius = float(v_radius)
        self.angles = int(angles)
        if self.angles < 4:
            raise SeriesError("need at least 4 angular samples")
        if self.v_radius <= 0:
            raise SeriesError("vertical radius must be positive")
        for row in self.h_radii:
            if not row or any(r <= 0 for r in row):
                raise SeriesError("horizontal radii must be positive and nonempty")

    def scaled(self, h_factors: Sequence[float] | None = None,
               v_factor: float = 1.0) -> "GridSpec":
        """New grid with radii multiplied coordinatewise."""
        if h_factors is None:
            h_factors = [1.0] * len(self.h_radii)
        rows = tuple(tuple(r * f for r in row)
                     for row, f in zip(self.h_radii, h_factors))
        return GridSpec(rows, self.v_radius * v_factor, self.angles)


class FormalSeries:
    """Finite map from exponent keys to nonzero coefficients."""

    __slots__ = ("n_h", "n_v", "trunc_h", "trunc_v", "field", "terms")

    def __init__(self, n_h: int, n_v: int, terms: Mapping | None = None,
                 trunc_h: int = 0, trunc_v: int = 0, field=QQI):
        if field not in FIELDS.values():
            raise SeriesError(f"unknown coefficient field {field!r}")
        self.n_h = int(n_h)
        self.n_v = int(n_v)
        self.trunc_h = int(trunc_h)
        self.trunc_v = int(trunc_v)
        self.field = field
        self.terms = {}
        if terms:
            for raw_key, coeff in terms.items():
                key = _key(*raw_key)
                if len(key.P) != self.n_h or len(key.Q) != self.n_v:
                    raise SeriesError("exponent key has wrong arity")
                if key.q_size > self.trunc_v:
                    raise SeriesError("key beyond vertical truncation")
                if key.p_size > self.trunc_h:
                    raise SeriesError("key beyond Laurent budget")
                self.terms[key] = coeff
            self.field.prune(self.terms)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, n_h, n_v, trunc_h, trunc_v, field=QQI):
        return cls(n_h, n_v, None, trunc_h, trunc_v, field)

    @classmethod
    def monomial(cls, n_h, n_v, p, q, coeff, trunc_h, trunc_v, field=QQI):
        return cls(n_h, n_v, {(tuple(p), tuple(q)): coeff}, trunc_h, trunc_v, field)

    @classmethod
    def constant(cls, n_h, n_v, coeff, trunc_h, trunc_v, field=QQI):
        return cls.monomial(n_h, n_v, (0,) * n_h, (0,) * n_v, coeff,
                            trunc_h, trunc_v, field)

    def like(self, terms=None) -> "FormalSeries":
        out = FormalSeries(self.n_h, self.n_v, None, self.trunc_h,
                           self.trunc_v, self.field)
        if terms:
            for raw_key, coeff in terms.items():
                out.terms[_key(*raw_key)] = coeff
            out.field.prune(out.terms)
        return out

    # ------------------------------------------------------------------
    # inspection

    def is_zero(self) -> bool:
        return not self.terms

    def v_order(self):
        """Minimal |Q| over stored terms, or None for the zero series."""
        if not self.terms:
            return None
        return min(k.q_size for k in self.terms)

    def max_p_size(self) -> int:
        return max((k.p_size for k in self.terms), default=0)

    def max_abs(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def coeff(self, p, q):
        return self.terms.get(_key(p, q), self.field.zero)

    def __eq__(self, other):
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return (self.n_h, self.n_v, self.field) == (other.n_h, other.n_v, other.field) \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.n_h, self.n_v, frozenset(self.terms.items())))

    def __repr__(self):
        return (f"FormalSeries(n_h={self.n_h}, n_v={self.n_v}, "
                f"terms={len(self.terms)}, trunc=({self.trunc_h},{self.trunc_v}), "
                f"field={self.field.name!r})")

    # ------------------------------------------------------------------
    # ring operations

    def _check_compat(self, other: "FormalSeries"):
        if (self.n_h, self.n_v) != (other.n_h, other.n_v):
            raise SeriesError("dimension mismatch")
        if self.field is not other.field:
            raise SeriesError("coefficient field mismatch")

    def _result_caps(self, other: "FormalSeries") -> tuple[int, int]:
        return min(self.trunc_h, other.trunc_h), min(self.trunc_v, other.trunc_v)

    def _capped(self, acc: Mapping, cap_h: int, cap_v: int) -> "FormalSeries":
        """Series like self holding acc: keys past cap_v dropped, nonzero ones
        past cap_h refused, zeros pruned."""
        out = FormalSeries(self.n_h, self.n_v, None, cap_h, cap_v, self.field)
        out.terms = _filter_caps(acc, cap_h, cap_v, self.field)
        self.field.prune(out.terms)
        return out

    def add(self, other: "FormalSeries") -> "FormalSeries":
        self._check_compat(other)
        acc = dict(self.terms)
        for k, c in other.terms.items():
            if k in acc:
                acc[k] = acc[k] + c
            else:
                acc[k] = c
        return self._capped(acc, *self._result_caps(other))

    def neg(self) -> "FormalSeries":
        return self.like({k: -c for k, c in self.terms.items()})

    def sub(self, other: "FormalSeries") -> "FormalSeries":
        return self.add(other.neg())

    def scale(self, factor) -> "FormalSeries":
        if not self.field.admits(factor):
            raise SeriesError("exact series scaled by inexact factor")
        return self.like({k: c * factor for k, c in self.terms.items()})

    def mul(self, other: "FormalSeries", cap_v: int | None = None) -> "FormalSeries":
        """Product truncated at v-degree ``cap_v``, by default the smaller
        operand cap; pass a larger one only where no term an operand dropped
        can reach it.  A left term of |Q| = d meets only the right terms of
        |Q| <= cap_v - d, in stored order: pairs above the cap are never
        formed, and keys come out in the order of the full double loop."""
        self._check_compat(other)
        cap_h, own_v = self._result_caps(other)
        if cap_v is None:
            cap_v = own_v
            if cap_v == 0 and any(k.q_size for k in (*self.terms, *other.terms)):
                raise SeriesError("truncation bound of zero in mul")
        right = [(sum(q2), p2, q2, c2) for (p2, q2), c2 in other.terms.items()]
        windows: dict[int, list] = {}
        acc: dict[ExponentKey, object] = {}
        for (p1, q1), c1 in self.terms.items():
            room = cap_v - sum(q1)
            if room < 0:
                continue
            window = windows.get(room)
            if window is None:
                window = windows[room] = [(p2, q2, c2) for d2, p2, q2, c2 in right
                                          if d2 <= room]
            for p2, q2, c2 in window:
                key = _new_key(ExponentKey, (tuple(map(_add, p1, p2)),
                                             tuple(map(_add, q1, q2))))
                prod = c1 * c2
                if key in acc:
                    acc[key] = acc[key] + prod
                else:
                    acc[key] = prod
        return self._capped(acc, cap_h, cap_v)

    __add__ = add
    __sub__ = sub
    __mul__ = mul
    __neg__ = neg

    # ------------------------------------------------------------------
    # structured operations

    def homogeneous_part(self, k: int) -> "FormalSeries":
        """Terms with |Q| exactly k."""
        return self.like({key: c for key, c in self.terms.items()
                          if key.q_size == k})

    def truncate_v(self, n_v_cap: int) -> "FormalSeries":
        out = FormalSeries(self.n_h, self.n_v, None, self.trunc_h,
                           min(self.trunc_v, n_v_cap), self.field)
        out.terms = {k: c for k, c in self.terms.items()
                     if k.q_size <= n_v_cap}
        return out

    def with_caps(self, trunc_h: int, trunc_v: int) -> "FormalSeries":
        """Re-cap; raises if an existing nonzero key does not fit."""
        out = FormalSeries(self.n_h, self.n_v, None, trunc_h, trunc_v, self.field)
        out.terms = _filter_caps(self.terms, trunc_h, trunc_v, self.field)
        return out

    def compose_linear(self, h_factors: Sequence, v_factors: Sequence) -> "FormalSeries":
        """Substitute ``h_i -> a_i h_i``, ``v_j -> b_j v_j``.

        Coefficient at (P, Q) picks up ``prod a_i^{P_i} * prod b_j^{Q_j}``;
        negative Laurent powers divide.
        """
        if len(h_factors) != self.n_h or len(v_factors) != self.n_v:
            raise SeriesError("factor arity mismatch")
        out_terms = {}
        cache: dict[tuple[int, int], object] = {}

        def fpow(slot, base, expo):
            tag = (slot, expo)
            if tag not in cache:
                cache[tag] = base ** expo
            return cache[tag]

        for key, c in self.terms.items():
            for i, p in enumerate(key.P):
                if p:
                    c = c * fpow(i, h_factors[i], p)
            for j, q in enumerate(key.Q):
                if q:
                    c = c * fpow(self.n_h + j, v_factors[j], q)
            out_terms[key] = c
        return self.like(out_terms)

    def reflect_conj(self) -> "FormalSeries":
        """Coefficientwise conjugate with Laurent signs flipped.

        On unit-radius horizontal tori this matches pointwise complex
        conjugation of the Q = 0 part.
        """
        out_terms = {}
        for key, c in self.terms.items():
            flipped = ExponentKey(tuple(-p for p in key.P), key.Q)
            out_terms[flipped] = c.conjugate()
        return self.like(out_terms)


def _filter_caps(acc: Mapping, cap_h: int, cap_v: int, field) -> dict:
    """acc without its keys past cap_v; the keys past cap_h must hold zeros,
    over CC moduli below FLOAT_OVERFLOW_TOL times the largest under cap_v."""
    out = {key: c for key, c in acc.items() if key.q_size <= cap_v}
    over = [key for key in out if key.p_size > cap_h]
    if over:
        worst = max(over, key=lambda k: field.abs2(out[k]))
        if not field.is_zero(out[worst], lambda: FLOAT_OVERFLOW_TOL * max(map(abs, out.values()))):
            raise TruncationOverflow(f"nonzero coefficient at |P|={worst.p_size} "
                                     f"exceeds Laurent budget {cap_h}")
        for key in over:
            del out[key]
    return out


# ----------------------------------------------------------------------
# substitution


def _binom(p: int, k: int) -> int:
    """Generalized binomial coefficient for integer upper index."""
    if k < 0:
        raise ValueError("negative lower index")
    if p >= 0:
        return math.comb(p, k) if k <= p else 0
    return (-1) ** k * math.comb(-p + k - 1, k)


def substitute_shift(fs: Sequence[FormalSeries], phi_h: Sequence[FormalSeries] | None,
                     phi_v: Sequence[FormalSeries] | None, n_v: int,
                     n_h: int | None = None) -> tuple[FormalSeries, ...]:
    """Evaluate ``f(h + phi_h, v + phi_v)`` for every f of ``fs``, truncated
    at v-degree ``n_v``.

    Every nonzero shift component must have v-order >= 2; this is what
    terminates the binomial expansion of negative Laurent powers
    ``(h_i + phi_i)^{P_i} = sum_k C(P_i, k) h_i^{P_i - k} phi_i^k``.
    ``n_h`` is the Laurent budget of the results; the default allows each
    f the worst-case spread of its expansion.

    Degree window: a key of f with |Q| = q feeds only degrees >= q, so f is
    cut at ``n_v``, and a key's leading factors are multiplied only up to
    ``n_v`` minus the v-exponents still to come.  Their product depends only
    on their (slot, exponent) tags, so one table of these images serves
    every key of every f; one stored at a higher cap serves a lower one, as
    its excess terms pair with no term of the next factor below the cap.
    Each f adds ``c * image`` per key, keys in lexicographic order, to its
    own accumulator, capped once; its result keeps the key order of summing
    the keys of f in stored order.
    """
    fs = tuple(fs)
    if not fs:
        return ()
    f0 = fs[0]
    phi_h = list(phi_h) if phi_h else [None] * f0.n_h
    phi_v = list(phi_v) if phi_v else [None] * f0.n_v
    if len(phi_h) != f0.n_h or len(phi_v) != f0.n_v:
        raise SeriesError("shift arity mismatch")
    shifts = [p for p in phi_h + phi_v if p is not None and not p.is_zero()]
    if any((g.n_h, g.n_v, g.field) != (f0.n_h, f0.n_v, f0.field) for g in fs + tuple(shifts)):
        raise SeriesError("substituted and shift series differ in dimension or field")
    if any(p.v_order() < 2 for p in shifts):
        raise SeriesError("shift components must have v-order >= 2")

    spread = max((p.max_p_size() for p in shifts), default=0)
    max_p = [f.max_p_size() for f in fs]
    worst = [p + (n_v // 2 + 1) * (spread + 1) for p in max_p]
    budgets = worst if n_h is None else [n_h] * len(fs)
    # intermediate binomial factors overshoot the Laurent budget even when
    # the final result fits, so work wide and re-cap at the end
    work_h = max(max(b, w) + p + 1 for b, w, p in zip(budgets, worst, max_p))

    one = FormalSeries.constant(f0.n_h, f0.n_v, f0.field.one, work_h, n_v, f0.field)

    # per slot the powers phi^0, phi^1, ... of its shift, extended on demand
    capped = [None if p is None else p.with_caps(work_h, n_v) for p in phi_h + phi_v]
    powers = {slot: [one, p] for slot, p in enumerate(capped)
              if p is not None and not p.is_zero()}

    def factor(slot: int, expo: int) -> FormalSeries:
        """sum_k C(expo, k) x^(expo - k) phi^k for the coordinate x of slot,
        each power's terms moved by x^(expo - k) and added in turn."""
        row = powers.get(slot, [one])
        k_max = 0 if len(row) == 1 else n_v // row[1].v_order()
        if expo >= 0:
            k_max = min(k_max, expo)
        j = slot - f0.n_h
        acc: dict[ExponentKey, object] = {}
        for k in range(k_max + 1):
            coeff = _binom(expo, k)
            if coeff == 0:
                continue
            e = expo - k
            while len(row) <= k:
                row.append(row[-1].mul(row[1]))
            for (p, q), c in row[k].terms.items():
                if j < 0:
                    p = p[:slot] + (p[slot] + e,) + p[slot + 1:]
                elif sum(q) + e > n_v:
                    continue
                else:
                    q = q[:j] + (q[j] + e,) + q[j + 1:]
                key = _new_key(ExponentKey, (p, q))
                term = c if coeff == 1 else c * coeff
                if key in acc:
                    term = acc[key] + term
                    if not term:
                        del acc[key]
                        continue
                acc[key] = term
        return f0._capped(acc, work_h, n_v)

    # nonempty tuple of leading (slot, exponent) tags -> their image
    images: dict[tuple[tuple[int, int], ...], FormalSeries] = {}

    def image(tags: tuple[tuple[int, int], ...], cap: int) -> FormalSeries:
        """Product of the factors of ``tags``, exact through v-degree cap."""
        out = images.get(tags)
        if out is None or out.trunc_v < cap:
            slot, e = tags[-1]
            if len(tags) == 1:
                out = factor(slot, e)
            else:
                head = image(tags[:-1], cap - e if slot >= f0.n_h else cap)
                out = head.mul(image(tags[-1:], n_v), cap)
            images[tags] = out
        return out

    results = []
    for f, budget in zip(fs, budgets):
        live = [(key, c) for key, c in f.terms.items() if key.q_size <= n_v]
        acc: dict[ExponentKey, object] = {}
        first: dict[ExponentKey, tuple[int, int]] = {}
        for rank, (key, c) in sorted(enumerate(live), key=lambda item: item[1][0]):
            tags = tuple((s, e) for s, e in enumerate(key.P + key.Q) if e)
            prod = image(tags, n_v) if tags else one
            for pos, (k, v) in enumerate(prod.terms.items()):
                if k in acc:
                    acc[k] = acc[k] + c * v
                    first[k] = min(first[k], (rank, pos))
                else:
                    acc[k], first[k] = c * v, (rank, pos)
        results.append(f._capped({k: acc[k] for k in sorted(acc, key=first.__getitem__)},
                                 budget, n_v))
    return tuple(results)


# ----------------------------------------------------------------------
# grid norms


def _grid_points(f_n_h: int, f_n_v: int, grid: GridSpec) -> list[np.ndarray]:
    if len(grid.h_radii) != f_n_h:
        raise SeriesError("grid dimension mismatch")
    import numpy as np
    thetas = np.exp(2j * np.pi * np.arange(grid.angles) / grid.angles)
    axes = []
    for row in grid.h_radii:
        axes.append(np.concatenate([r * thetas for r in row]))
    for _ in range(f_n_v):
        axes.append(grid.v_radius * thetas)
    if not axes:
        return []
    mesh = np.meshgrid(*axes, indexing="ij")
    return [m.reshape(-1) for m in mesh]


def _evaluate(f: FormalSeries, coords: list[np.ndarray]) -> np.ndarray:
    import numpy as np
    if not coords:
        c0 = f.coeff((0,) * f.n_h, (0,) * f.n_v)
        return np.array([as_complex(c0)])
    total = coords[0].shape[0]
    acc = np.zeros(total, dtype=complex)
    powcache: dict[tuple[int, int], np.ndarray] = {}

    def cpow(idx: int, e: int) -> np.ndarray:
        tag = (idx, e)
        if tag not in powcache:
            powcache[tag] = coords[idx] ** e
        return powcache[tag]

    for key, c in f.terms.items():
        vals = np.full(total, as_complex(c))
        for i, p in enumerate(key.P):
            if p:
                vals = vals * cpow(i, p)
        for j, q in enumerate(key.Q):
            if q:
                vals = vals * cpow(f.n_h + j, q)
        acc += vals
    return acc


def grid_sup_norm(f: FormalSeries, grid: GridSpec) -> float:
    """Max of |f| over the sampled torus products (a lower bound of the sup)."""
    if f.is_zero():
        return 0.0
    import numpy as np
    coords = _grid_points(f.n_h, f.n_v, grid)
    return float(np.max(np.abs(_evaluate(f, coords))))


class CauchyReport(NamedTuple):
    passed: bool
    worst_ratio: float
    slices: dict
    slack: float


def cauchy_bound_check(f: FormalSeries, grid: GridSpec,
                       slack: float = 1e-9) -> CauchyReport:
    """Check the coefficient-slice estimate sup|f_Q| <= sup|f| / r^{|Q|}.

    Slices are grouped by the full vertical exponent Q; the right-hand
    side uses the sampled sup of f over the grid, so ``slack`` absorbs the
    sampling gap.  Report-valued: never raises on failure.
    """
    if f.is_zero():
        return CauchyReport(True, 0.0, {}, slack)
    import numpy as np
    sup_f = grid_sup_norm(f, grid)
    h_only_coords = _grid_points(f.n_h, 0, GridSpec(grid.h_radii, grid.v_radius,
                                                    grid.angles))
    by_q: dict[tuple[int, ...], dict] = {}
    for key, c in f.terms.items():
        by_q.setdefault(key.Q, {})[ExponentKey(key.P, ())] = c

    slices = {}
    worst = 0.0
    passed = True
    for q, terms in sorted(by_q.items()):
        slice_series = FormalSeries(f.n_h, 0, None, f.trunc_h, 0, f.field)
        slice_series.terms = terms
        sup_slice = float(np.max(np.abs(_evaluate(slice_series, h_only_coords))))
        bound = sup_f / grid.v_radius ** sum(q)
        ratio = sup_slice / bound if bound > 0 else math.inf
        slices[q] = ratio
        worst = max(worst, ratio)
        if ratio > 1.0 + slack:
            passed = False
    return CauchyReport(passed, worst, slices, slack)


# ----------------------------------------------------------------------
# interchange format


def series_to_dict(f: FormalSeries) -> dict:
    records = []
    for key in sorted(f.terms):
        re, im = f.field.to_strings(f.terms[key])
        records.append({"P": list(key.P), "Q": list(key.Q), "re": re, "im": im})
    return {
        "n_h": f.n_h, "n_v": f.n_v,
        "N_h": f.trunc_h, "N_v": f.trunc_v,
        "mode": f.field.name,
        "records": records,
    }


def series_from_dict(data: Mapping) -> FormalSeries:
    field = FIELDS.get(data["mode"])
    if field is None:
        raise SeriesError(f"unknown coefficient field {data['mode']!r}")
    terms = {}
    for rec in data["records"]:
        key = _key(rec["P"], rec["Q"])
        terms[key] = field.from_strings(rec["re"], rec["im"])
    return FormalSeries(data["n_h"], data["n_v"], terms,
                        data["N_h"], data["N_v"], field)
