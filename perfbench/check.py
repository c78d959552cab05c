"""Output checks: each job's report against what its input was built to give.

``check(job, code, report)`` returns ``(verdict, exact, why, cause)``.  The
verdict is ``ok`` when the output agrees with the expectation, ``known`` when
it departs from it exactly as a documented defect of the program predicts
(``KNOWN_DEFECTS``), and ``failed`` otherwise.  ``exact`` marks checks that
decide a property exactly (residuals, planted witnesses, relations); the
others compare floats with a brute-force or analytic recomputation made
here, never with a stored output of the code under test.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

from gen import cmul, cpow, dec

REL_TOL = 1e-9


def payload_digest(report: dict) -> str:
    text = json.dumps(report["payload"], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def coeff_bits(report: dict) -> tuple[int, int]:
    """Largest numerator and denominator bit lengths over the solved series."""
    num = den = 0
    result = report.get("payload", {}).get("result") or {}
    for series in result.get("phi_h", []) + result.get("phi_v", []):
        for rec in series["records"]:
            for s in (rec["re"], rec["im"]):
                x = Fraction(s)
                num = max(num, abs(x.numerator).bit_length())
                den = max(den, x.denominator.bit_length())
    return num, den


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


# ----------------------------------------------------------------------
# per-kind expectations


def _linearize(expect, code, p):
    full = expect["lin_mode"] == "full"
    return [(code == 0, f"exit {code}, want 0"),
            (p.get("commutation_residual") == 0, "commutation residual != 0"),
            (not p["scan"]["resonances"], "resonance on a clean deck"),
            (all(r == 0 for r in p["result"]["residual_per_degree"]),
             "nonzero conjugacy residual"),
            (not full or p.get("recovered_ground_truth") is True,
             "ground truth not recovered")]


def _certify(expect, code, p):
    return [(code == 0, f"exit {code}, want 0"),
            (not p["scan"]["resonances"], "resonance on a clean deck"),
            (all(r == 0 for r in p["result"]["residual_per_degree"]),
             "nonzero conjugacy residual"),
            (p["domination"]["passed"] is True, "domination failed")]


def _vectors(total_max: int, width: int, signed: bool):
    lo = -total_max if signed else 0
    for v in itertools.product(range(lo, total_max + 1), repeat=width):
        if sum(abs(x) for x in v) <= total_max:
            yield v


def brute_min_divisor(decks: dict, n: int, scan_mode: str) -> float:
    """Smallest max-over-decks divisor modulus over |P|+|Q| <= n, |Q| >= 2,
    recomputed in complex floats."""
    lam = [[complex(*map(float, dec(e))) for e in row] for row in decks["lambda"]]
    mu = [[complex(*map(float, dec(e))) for e in row] for row in decks["mu"]]
    q, n_h, d = len(lam), len(lam[0]), len(mu[0])

    def mono(bases, expo):
        out = 1 + 0j
        for b, e in zip(bases, expo):
            out *= b ** e
        return out

    targets = [(mu, j) for j in range(d)]
    if scan_mode == "full":
        targets += [(lam, i) for i in range(n_h)]
    qs = [v for v in _vectors(n, d, False) if sum(v) >= 2]
    ps = list(_vectors(n - 2, n_h, True))
    best = math.inf
    for qv in qs:
        mu_q = [mono(mu[l], qv) for l in range(q)]
        room = n - sum(qv)
        for pv in ps:
            if sum(abs(x) for x in pv) > room:
                continue
            base = [mono(lam[l], pv) * mu_q[l] for l in range(q)]
            for rows, k in targets:
                best = min(best, max(abs(base[l] - rows[l][k]) for l in range(q)))
    return best


def _scan(expect, code, p):
    witness = expect["witness"]
    if witness is not None:
        found = p["resonances"]
        exact_mode = expect["mode"] == "exact"
        # a planted resonance vanishes exactly, so float scans must find it too
        return [(code == 1, f"exit {code}, want 1 (planted resonance)", True),
                (found == [witness] if exact_mode else witness in found,
                 f"resonances {found[:3]}, want {witness}", True)]
    want = brute_min_divisor(expect["decks"], expect["N"], expect["scan_mode"])
    return [(code == 0, f"exit {code}, want 0"),
            (not p["resonances"], "resonance on a clean deck"),
            (not p["violations"], "fitted bound violated"),
            (_close(p["min_divisor"], want),
             f"min_divisor {p['min_divisor']!r}, brute force {want!r}")]


def _radii(mod: Fraction):
    ratio = (1.0 / float(mod)) ** (1.0 / 3.0)
    return [1.0, ratio, ratio * ratio, 1.0 / float(mod)]


def analytic_coverage(mods, delta: float, points: int, seed: int,
                      window: int | None = None, own_box: bool = False):
    """(uncovered, triple overlaps) over the pipeline's Monte-Carlo points.

    For band i of coordinate j, a deck power k counts when it solves
    r_i - delta < |alpha_j|^k |z_j| < r_i + delta while every other
    coordinate m stays inside its box, |alpha_m|^k |z_m| < r4_m + delta / 2.
    By default every k is admissible.  ``window`` keeps only |k| <= window,
    as ``orbit_hits`` does; ``own_box`` bounds every other coordinate by
    coordinate j's box r4_j + delta / 2, as ``NestedCoveringSpec.contains``
    does.  Those two options reproduce the program's known deviations.
    """
    n = len(mods)
    radii = [_radii(m) for m in mods]
    logs = [math.log(float(m)) for m in mods]
    box = [math.log(r[3] + delta / 2) for r in radii]
    rng = random.Random(seed)
    uncovered = triples = 0
    for _ in range(points):
        logz = []
        for _ in range(n):
            logz.append(math.log(rng.uniform(0.2, 3.0)))
            rng.uniform(0, 2 * math.pi)
        hit_any = False
        for j in range(n):
            # deck powers keeping every other coordinate m in its box:
            # k log a_m + log z_m < box, i.e. k > (box - log z_m) / log a_m
            k_floor = max((box[j if own_box else m] - logz[m]) / logs[m]
                          for m in range(n) if m != j)
            bands = set()
            for i in range(3):
                lo_r, hi_r = radii[j][i] - delta, radii[j][i] + delta
                k_lo = max((math.log(hi_r) - logz[j]) / logs[j], k_floor)
                k_hi = (math.log(lo_r) - logz[j]) / logs[j]
                k = math.floor(k_lo) + 1
                if window is not None:
                    k = max(k, -window)
                    k_hi = min(k_hi, window + 1)
                if k < k_hi:
                    bands.add(i)
            hit_any = hit_any or bool(bands)
            triples += len(bands) == 3
        uncovered += not hit_any
    return uncovered, triples


# The program's documented deviations from the analytic covering, tried in
# this order when its counts differ: ROADMAP 4(d)'s window k in [-40, 40] in
# orbit_hits, and the box of the hit coordinate applied to every other one.
COVER_CAUSES = (("k-window", {"window": 40}), ("box rule", {"own_box": True}),
                ("k-window and box rule", {"window": 40, "own_box": True}))
KNOWN_DEFECTS = frozenset(cause for cause, _ in COVER_CAUSES)


def cover_cause(expect, got: tuple[int, int]) -> str:
    """Which known deviation reproduces the program's (uncovered, triples)."""
    args = ([Fraction(m) for m in expect["mods"]], float(Fraction(expect["delta"])),
            expect["points"], expect["seed"])
    for cause, options in COVER_CAUSES:
        if analytic_coverage(*args, **options) == got:
            return cause
    return "unexplained"


def _cover_exit(unc: int, tri: int, chains: dict) -> int:
    return 0 if unc == 0 and tri == 0 and all(chains.values()) else 1


def _cover(expect, code, p):
    mods = [Fraction(m) for m in expect["mods"]]
    unc, tri = analytic_coverage(mods, float(Fraction(expect["delta"])),
                                 expect["points"], expect["seed"])
    want = _cover_exit(unc, tri, p.get("chains", {}))
    mc = p["monte_carlo"]
    return [(mc["uncovered"] == unc,
             f"{mc['uncovered']} of {mc['points']} points uncovered, analytic {unc}"),
            (mc["triple_overlaps"] == tri,
             f"{mc['triple_overlaps']} triple overlaps, analytic {tri}"),
            (code == want, f"exit {code}, want {want}")]


def _classify(expect, code, p):
    if not expect["planted"]:
        return [(code == 0, f"exit {code}, want 0"),
                (p["kind"] == "generic", f"kind {p['kind']}, want generic")]
    alpha = [dec(e) for e in expect["alpha"]]
    ok = False
    if p["kind"] == "diagonal" and p["witness"]:
        pos, neg = p["witness"]
        left = right = (Fraction(1), Fraction(0))
        for a, e, f in zip(alpha, pos, neg):
            left, right = cmul(left, cpow(a, e)), cmul(right, cpow(a, f))
        bound = expect["exp_bound"]
        ok = (left == right and any(pos + neg)
              and sum(pos) <= bound and sum(neg) <= bound)
    return [(code == 1, f"exit {code}, want 1 (planted relation)"),
            (ok, f"witness {p['witness']} is not a relation")]


def _precheck(expect, code, p):
    return [(code == 0, f"exit {code}, want 0"),
            (p["passed"] is True, "precheck failed"),
            (len(p["items"]) == expect["items"],
             f"{len(p['items'])} items, want {expect['items']}")]


def _shilov(expect, code, p):
    mods = [Fraction(m) for m in expect["mods"]]
    delta = float(Fraction(expect["delta"]))
    coord = expect["coord"]
    radii = _radii(mods[coord])
    want = max(1.0 / (radii[expect["band"] - 1] - delta),
               1.0 / (radii[3] + delta / 2))
    return [(code == 0, f"exit {code}, want 0"),
            (_close(p["constant"], want), f"constant {p['constant']!r}, want {want!r}")]


def _toroidal(expect, code, p):
    irr = p["irrationality"]
    eta = {1: 1.0, 2: 0.5}[expect["q"]]
    checks = [(abs(p["extension"]["eta"] - eta) < 1e-6,
               f"eta {p['extension']['eta']!r}, want {eta}")]
    if not expect["planted"]:
        return checks + [(code == 0, f"exit {code}, want 0"),
                         (irr["passed"] is True, "irrationality failed")]
    # planted periods are rationals, so sigma R is checked exactly
    sigma = irr["witness"] or []
    rows = [[Fraction(x) for x in row] for row in expect["R"]]
    valid = (bool(sigma) and any(sigma) and max(map(abs, sigma)) <= expect["bound"]
             and all(sum(a * b for a, b in zip(sigma, col)).denominator == 1
                     for col in zip(*rows)))
    return checks + [(code == 1, f"exit {code}, want 1 (rational periods)", True),
                     (valid, f"witness {sigma} does not make sigma R integral", True)]


# kind: (expectations, whether they decide a property exactly); an
# expectation given as (ok, why, exact) overrides its kind's default
CHECKS = {"linearize": (_linearize, True), "certify": (_certify, True),
          "scan": (_scan, None), "cover": (_cover, False),
          "classify": (_classify, True), "precheck": (_precheck, True),
          "shilov": (_shilov, False), "toroidal": (_toroidal, False)}


def check(job: dict, code: int, report: dict | None) -> tuple[str, bool, str, str]:
    """(verdict, exact, why, cause): ``exact`` belongs to the first failed
    expectation.  When a ``hopf-cover`` count differs from the analytic one,
    ``cause`` names the documented deviation that reproduces the program's
    counts (``cover_cause``), and the verdict is ``known`` if it is one and
    the exit code follows from those counts; else ``cause`` is empty."""
    expect = job["expect"]
    fn, exact = CHECKS[expect["kind"]]
    if exact is None:
        exact = expect["mode"] == "exact"
    if report is None:
        return "failed", exact, f"exit {code} and no report", ""
    try:
        results = fn(expect, code, report["payload"])
    except (KeyError, TypeError, ValueError) as exc:
        return "failed", exact, f"malformed report: {exc!r}", ""
    for ok, why, *own in results:
        if not ok:
            cause, verdict = "", "failed"
            if expect["kind"] == "cover" and ("uncovered" in why or "triple" in why):
                p = report["payload"]
                got = (p["monte_carlo"]["uncovered"], p["monte_carlo"]["triple_overlaps"])
                cause = cover_cause(expect, got)
                if cause in KNOWN_DEFECTS and code == _cover_exit(*got, p.get("chains", {})):
                    verdict = "known"
            return verdict, own[0] if own else exact, why, cause
    return "ok", exact, "", ""
