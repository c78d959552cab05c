"""Seeded job generator for the germlin benchmark.

Every input is built here from the workload seed with the standard library
only; nothing is imported from germlin.  Each job carries the expectation
that follows from how its input was built (``check.py`` tests it), so no
output is ever compared with a stored output of the code under test.

A workload is a list of slots.  One cycle runs every slot once, in slot
order.  A slot fixes the pipeline and a rotation of variants
(dimensions and sizes); cycle ``c`` takes variant ``c + slot index``, so
every run covers the sizes in the same proportions and jobs per second does
not swing with the seed.  The seed draws everything else: deck eigenvalues,
perturbation scales, Hopf eigenvalues, margins, bundles, period matrices,
and Monte-Carlo seeds (linearize fixtures: see ``MEDIAN_FIXTURE``).
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction

# Gaussian primes a + bi with a^2 + b^2 = p.  Units (a + bi)^2 / p built from
# distinct primes are multiplicatively independent (unique factorization in
# Z[i]), which is what rules out accidental resonances and relations below.
GAUSS = ((2, 1), (3, 2), (4, 1), (5, 2), (6, 1), (5, 4))
MU_PRIMES = (2, 3, 5, 7)


def _unit(rng: random.Random, used: set) -> tuple[Fraction, Fraction]:
    a, b = rng.choice([g for g in GAUSS if g not in used])
    used.add((a, b))
    p = a * a + b * b
    im = Fraction(2 * a * b, p)
    return Fraction(a * a - b * b, p), (im if rng.random() < 0.5 else -im)


def cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def cpow(x, k: int):
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = cmul(out, x)
    return out


def _enc(z) -> dict:
    return {"re": str(Fraction(z[0])), "im": str(Fraction(z[1]))}


def dec(e) -> tuple[Fraction, Fraction]:
    return Fraction(e["re"]), Fraction(e["im"])


# ----------------------------------------------------------------------
# inputs


def linear_decks(rng: random.Random, dims, planted: bool = False) -> dict:
    """Unit lambdas and prime-reciprocal mus, one independent row per deck.

    No divisor with |Q| >= 2 vanishes: |lam^P mu^Q| is a product of at least
    two prime reciprocals and never equals |mu_j| or |lam_i| = 1.  With
    ``planted`` every deck gets mu_{l,1} = lam_{l,0} mu_{l,0}^2 (0-based);
    its only vanishing divisor is P = e_0, Q = 2 e_0 at target ('v', 1).
    """
    n_h, d, q = dims
    lam, mu = [], []
    for _ in range(q):
        used: set = set()
        lam.append([_unit(rng, used) for _ in range(n_h)])
        row = [(Fraction(1, p), Fraction(0)) for p in rng.sample(MU_PRIMES, d)]
        if planted:
            row[1] = cmul(lam[-1][0], cmul(row[0], row[0]))
        mu.append(row)
    return {"lambda": [[_enc(x) for x in row] for row in lam],
            "mu": [[_enc(x) for x in row] for row in mu]}


def planted_witness(dims) -> dict:
    n_h, d, _ = dims
    return {"P": [1] + [0] * (n_h - 1), "Q": [2] + [0] * (d - 1),
            "target": ["v", 1]}


def delta_interval(a: float) -> tuple[float, float]:
    """Open interval of margins the three-band covering accepts for one
    coordinate with |alpha| = a and base radius 1 (radii 1, rho, rho^2,
    1/a with rho = a^(-1/3))."""
    rho = a ** (-1.0 / 3.0)
    r = (1.0, rho, rho * rho, 1.0 / a)
    lower = max((r[1] - r[0]) / 2, (r[2] - r[1]) / 2,
                (r[3] - r[2]) * a / (1 + a))
    upper = min(r[0], (1 - a) / (1 + a), (r[2] - r[0]) / 2)
    # bands s_i (c_i - d, c_i + d) have a common point iff
    # d > |s_x c_x - s_y c_y| / (s_x + s_y) for every pair; none may, for
    # deck shifts k1 of band 1 and k3 of band 3 in -2..2
    for k1 in range(-2, 3):
        for k3 in range(-2, 3):
            bands = ((a ** -k1, r[0]), (1.0, r[1]), (a ** -k3, r[2]))
            meet = max(abs(sx * cx - sy * cy) / (sx + sy)
                       for i, (sx, cx) in enumerate(bands)
                       for sy, cy in bands[i + 1:])
            upper = min(upper, meet)
    return lower, upper


def _moduli(rng: random.Random, lo: float, hi: float, n: int) -> list[Fraction]:
    while True:
        mods = sorted(Fraction(rng.randint(round(lo * 100), round(hi * 100)), 100)
                      for _ in range(n))
        if len(set(mods)) == n:
            return mods


def _covering(rng: random.Random, lo: float, hi: float, n: int):
    """Moduli whose accepted margin intervals overlap, and a margin strictly
    inside all of them.  The intervals scale with 1 - |alpha|, so the moduli
    are drawn close together: the smallest in [lo, hi], the others at most
    (1 - smallest) / 8 above it."""
    while True:
        base = Fraction(rng.randint(round(lo * 1000), round(hi * 1000)), 1000)
        spread = (1 - base) / 8
        mods = sorted({base} | {base + spread * Fraction(rng.randint(1, 100), 100)
                                for _ in range(n - 1)})
        if len(mods) < n:
            continue
        bounds = [delta_interval(float(m)) for m in mods]
        lower = max(b[0] for b in bounds)
        upper = min(b[1] for b in bounds)
        if upper > lower * 1.1:
            t = rng.uniform(0.3, 0.7)
            delta = Fraction(lower + t * (upper - lower)).limit_denominator(10 ** 6)
            return mods, delta


def _alpha(rng: random.Random, mods, used: set) -> list:
    return [cmul((m, Fraction(0)), _unit(rng, used)) for m in mods]


def _spec(alpha) -> dict:
    return {"alpha": [_enc(a) for a in alpha], "jordan_overdiag": []}


def _bundle(rng: random.Random, used: set) -> dict:
    """beta = s u with |beta| = s != 1 and u from a prime the spec does not
    use, so beta times any alpha power stays outside the eigenvalue group."""
    s = rng.choice((Fraction(1, 2), Fraction(2, 3), Fraction(3, 2), Fraction(3, 4)))
    return {"beta": _enc(cmul((s, Fraction(0)), _unit(rng, used)))}


def _toroidal(rng: random.Random, q: int, planted: bool) -> dict:
    """n_r = 1 or 2; R entries are square roots of distinct primes mod 1, or
    rationals with one denominator 2, 3 or 5 when ``planted``.  Imaginary unit
    blocks in R3 and P0 keep the real basis independent."""
    n_r = rng.choice((1, 2))
    den = rng.choice((2, 3, 5))
    # distinct primes: square roots of distinct primes are linearly
    # independent over Q, so no integer sigma makes sigma R integral
    primes = iter(rng.sample((2, 3, 5, 7, 11, 13, 17, 19), 2 * n_r * q))

    def real() -> str:
        if planted:
            return str(Fraction(rng.randint(1, den - 1), den))
        return repr(math.sqrt(next(primes)) % 1.0)

    def cx(re, im) -> dict:
        return {"re": repr(float(re)), "im": repr(float(im))}

    eye = [[float(i == j) for j in range(n_r)] for i in range(n_r)]
    return {"n": n_r + q, "a": 0, "b": 0, "q": q,
            "R1": [[real() for _ in range(q)] for _ in range(n_r)],
            "R2": [[real() for _ in range(q)] for _ in range(n_r)],
            "R3": [[cx(0, x) for x in row] for row in eye],
            "P0": [[cx(rng.uniform(-0.5, 0.5), float(i == j)) for j in range(q)]
                   for i in range(q)],
            "P1": [[cx(0, 0) for _ in range(n_r)] for _ in range(q)]}


# ----------------------------------------------------------------------
# job builders: each returns (config, input files, expectation)


def _linearize(rng, v):
    dims, command = v["dims"], v["command"]
    decks = linear_decks(rng, dims)
    params = {"n_h": dims[0], "d": dims[1], "q": dims[2], "n_v": v["n_v"],
              "profile": "coboundary", "scale": rng.choice(("1/16", "1/32"))}
    if command == "linearize":
        params["lin_mode"] = v["lin_mode"]
    config = {"command": command, "seed": v["fixture_seed"],
              "inputs": {"decks": "decks.json"}, "params": params}
    return config, {"decks.json": decks}, {"kind": command,
                                           "lin_mode": v.get("lin_mode")}


def _scan(rng, v):
    planted, mode = v.get("planted", False), v.get("mode", "exact")
    decks = linear_decks(rng, v["dims"], planted)
    config = {"command": "dioph-scan", "mode": mode,
              "inputs": {"decks": "decks.json"},
              "params": {"N": v["N"], "scan_mode": v["scan_mode"]}}
    expect = {"kind": "scan", "decks": decks, "N": v["N"],
              "scan_mode": v["scan_mode"], "mode": mode,
              "witness": planted_witness(v["dims"]) if planted else None}
    return config, {"decks.json": decks}, expect


def _cover(rng, v):
    used: set = set()
    mods, delta = _covering(rng, *v["mods"], v["n"])
    alpha = _alpha(rng, mods, used)
    config = {"command": "hopf-cover", "seed": rng.randrange(10 ** 6),
              "inputs": {"spec": "spec.json", "bundle": "bundle.json"},
              "params": {"delta": str(delta), "mc_points": 2000}}
    files = {"spec.json": _spec(alpha), "bundle.json": _bundle(rng, used)}
    expect = {"kind": "cover", "mods": [str(m) for m in mods],
              "delta": str(delta), "points": 2000, "seed": config["seed"]}
    return config, files, expect


def _classify(rng, v):
    used: set = set()
    n, k = v["n"], v.get("k")
    while True:
        mods = _moduli(rng, 0.3, 0.9, n)
        if not k or mods[-1] ** k not in mods[1:]:
            break
    alpha = _alpha(rng, mods, used)
    if k:
        # alpha_0 becomes alpha_top^k; the moduli stay distinct, re-sorted
        alpha = sorted(alpha[1:] + [cpow(alpha[-1], k)],
                       key=lambda z: z[0] * z[0] + z[1] * z[1])
    config = {"command": "hopf-classify", "inputs": {"spec": "spec.json"},
              "params": {"exp_bound": v["exp_bound"]}}
    return config, {"spec.json": _spec(alpha)}, {
        "kind": "classify", "planted": bool(k), "alpha": [_enc(a) for a in alpha],
        "exp_bound": v["exp_bound"]}


def _precheck(rng, v):
    used: set = set()
    alpha = _alpha(rng, _moduli(rng, 0.3, 0.9, v["n"]), used)
    config = {"command": "hopf-precheck",
              "inputs": {"spec": "spec.json", "bundle": "bundle.json"},
              "params": {"n_v": 6, "exp_bound": 12}}
    files = {"spec.json": _spec(alpha), "bundle.json": _bundle(rng, used)}
    # beta alpha_i^(+-1) and beta^-m alpha_i for m = 1..n_v, every i
    return config, files, {"kind": "precheck", "items": (2 + 6) * v["n"]}


def _shilov(rng, v):
    n = v["n"]
    mods, delta = _covering(rng, 0.3, 0.9, n)
    alpha = _alpha(rng, mods, set())
    band, coord = rng.randint(1, 3), rng.randrange(n)
    config = {"command": "shilov", "inputs": {"spec": "spec.json"},
              "params": {"delta": str(delta), "band": band, "coord": coord}}
    return config, {"spec.json": _spec(alpha)}, {
        "kind": "shilov", "mods": [str(m) for m in mods], "delta": str(delta),
        "band": band, "coord": coord}


def _toroidal_job(rng, v):
    spec = _toroidal(rng, v["q"], v["planted"])
    config = {"command": "toroidal-validate", "inputs": {"spec": "spec.json"},
              "params": {"height_bound": 20, "epsilon": "0.25"}}
    return config, {"spec.json": spec}, {
        "kind": "toroidal", "planted": v["planted"], "q": v["q"],
        "R": [a + b for a, b in zip(spec["R1"], spec["R2"])], "bound": 20}


def _rot(**axes):
    """Variants as the product of the given axes, in a fixed order."""
    out = [{}]
    for key, values in axes.items():
        out = [dict(v, **{key: x}) for x in values for v in out]
    return out


D111, D112, D122, D222 = (1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)
PLANTED_SCANS = [{"dims": dims, "N": n, "scan_mode": mode, "planted": True}
                 for dims, n, mode in ((D122, 10, "full"), (D222, 8, "vertical"),
                                       (D122, 11, "vertical"), (D222, 9, "full"),
                                       (D122, 12, "full"), (D222, 10, "vertical"))]


# Fixture seed per (dims, n_v): the one of median job time among seeds 0-4,
# measured once.  The fixture seed, which the program expands into the
# hidden conjugacy, alone sets how many series terms a job carries; its cost
# tail is heavy (a (1,2,2), n_v = 8 fixture can run 28 s against a median
# 2.4 s), more than a run of about 25 jobs can average, so each variant keeps
# one typical fixture while the workload seed draws the decks and the scale.
MEDIAN_FIXTURE = {(D111, 10): 1, (D111, 11): 0, (D111, 12): 1, (D111, 13): 1,
                  (D111, 14): 0, (D112, 8): 0, (D112, 9): 3, (D112, 10): 3,
                  (D122, 6): 2, (D122, 7): 2, (D122, 8): 2}


def _lin(command, lin_mode, *pairs):
    return [{"command": command, "dims": dims, "n_v": n_v, "lin_mode": lin_mode,
             "fixture_seed": MEDIAN_FIXTURE[dims, n_v]} for dims, n_v in pairs]


def _float(*variants):
    return [dict(v, mode="float") for v in variants]


PLANTED_CLASSIFY = [{"n": 2, "exp_bound": 8, "k": 2}, {"n": 2, "exp_bound": 14, "k": 3},
                    {"n": 2, "exp_bound": 20, "k": 2}, {"n": 3, "exp_bound": 10, "k": 2}]


# slot: (name, builder, variants).  The slot mix of hopf-float keeps its
# median and tail jobs inside groups of like jobs rather than on the gaps
# between them: twelve of its nineteen slots are quick jobs (about 0.1 s,
# mostly interpreter start-up), and its top ten jobs fall among the three
# slow n = 3 and near-unit hopf-cover slots.
WORKLOADS = {
    "linearize-exact": [
        ("full_linearize(1,1,1)", _linearize,
         _lin("linearize", "full", *[(D111, n) for n in range(10, 15)])),
        ("full_linearize(1,1,2)", _linearize,
         _lin("linearize", "full", *[(D112, n) for n in range(8, 11)])),
        ("full_linearize(1,2,2)", _linearize,
         _lin("linearize", "full", *[(D122, n) for n in range(6, 9)])),
        ("vertical_linearize", _linearize,
         _lin("linearize", "vertical", (D111, 10), (D112, 8), (D122, 6), (D111, 12),
              (D112, 9), (D122, 7), (D111, 14), (D112, 10), (D122, 8))),
        ("certify", _linearize,
         _lin("certify", None, (D111, 10), (D112, 8), (D122, 6), (D111, 12), (D112, 9),
              (D122, 7))),
        # ROADMAP baseline case: full_linearize at (1,1,1), n_v = 14
        ("baseline:full_linearize(1,1,1),n_v=14", _linearize,
         _lin("linearize", "full", (D111, 14))),
    ],
    "scan-exact": [
        ("scan(1,1,1)", _scan,
         _rot(N=range(30, 41, 2), dims=[D111], scan_mode=["full", "vertical"])),
        ("scan(1,1,1)'", _scan,
         _rot(N=range(31, 41, 2), dims=[D111], scan_mode=["vertical", "full"])),
        ("scan(1,2,2)", _scan,
         _rot(N=(10, 11, 12), dims=[D122], scan_mode=["full", "vertical"])),
        ("scan(1,2,2)'", _scan,
         _rot(N=(12, 10, 11), dims=[D122], scan_mode=["vertical", "full"])),
        ("scan(2,2,2)", _scan,
         _rot(N=(8, 9, 10), dims=[D222], scan_mode=["full", "vertical"])),
        ("scan(2,2,2)'", _scan,
         _rot(N=(10, 8, 9), dims=[D222], scan_mode=["vertical", "full"])),
        # ROADMAP baseline case: full scan at (2,2,2), N = 10
        ("baseline:scan_full(2,2,2),N=10", _scan,
         [{"dims": D222, "N": 10, "scan_mode": "full"}]),
        ("scan_planted", _scan, PLANTED_SCANS),
    ],
    "hopf-float": [
        ("hopf-cover(n=2)", _cover, [{"n": 2, "mods": (0.3, 0.9)}]),
        ("hopf-cover(n=3)", _cover, [{"n": 3, "mods": (0.3, 0.9)}]),
        ("hopf-cover(n=3)'", _cover, [{"n": 3, "mods": (0.3, 0.9)}]),
        ("hopf-classify", _classify,
         [{"n": 2, "exp_bound": b} for b in (8, 12, 16, 20)]
         + [{"n": 3, "exp_bound": 8}, {"n": 3, "exp_bound": 10}]),
        ("hopf-classify(planted)", _classify, PLANTED_CLASSIFY),
        ("hopf-classify(planted)'", _classify, PLANTED_CLASSIFY[2:] + PLANTED_CLASSIFY[:2]),
        ("hopf-classify(planted)''", _classify, PLANTED_CLASSIFY[3:] + PLANTED_CLASSIFY[:3]),
        # adjacent slots with one two-variant list take opposite variants, so
        # every cycle has one quick (n = 2, q = 1) and one slow job of each
        ("hopf-precheck", _precheck, [{"n": 2}, {"n": 3}]),
        ("hopf-precheck'", _precheck, [{"n": 2}, {"n": 3}]),
        ("shilov", _shilov, [{"n": 2}, {"n": 3}]),
        ("toroidal-validate", _toroidal_job,
         _rot(q=(1, 2), planted=[False])),
        ("toroidal-validate(planted)", _toroidal_job,
         _rot(q=(1, 2), planted=[True])),
        ("dioph-scan(float)", _scan, _float(
            {"dims": D111, "N": 30, "scan_mode": "full"},
            {"dims": D122, "N": 10, "scan_mode": "vertical"},
            {"dims": D222, "N": 8, "scan_mode": "full"}, PLANTED_SCANS[0])),
        ("dioph-scan(float)'", _scan, _float(
            {"dims": D111, "N": 40, "scan_mode": "vertical"},
            {"dims": D122, "N": 12, "scan_mode": "full"}, PLANTED_SCANS[1],
            {"dims": D222, "N": 10, "scan_mode": "vertical"})),
        ("dioph-scan(float)''", _scan, _float(
            {"dims": D122, "N": 11, "scan_mode": "vertical"},
            {"dims": D222, "N": 9, "scan_mode": "full"},
            {"dims": D111, "N": 34, "scan_mode": "full"}, PLANTED_SCANS[2])),
        ("dioph-scan(float,vertical)", _scan, _float(
            {"dims": D222, "N": 8, "scan_mode": "vertical"},
            {"dims": D111, "N": 36, "scan_mode": "vertical"}, PLANTED_SCANS[5],
            {"dims": D122, "N": 12, "scan_mode": "vertical"})),
        ("shilov'", _shilov, [{"n": 3}, {"n": 2}]),
        ("shilov''", _shilov, [{"n": 2}, {"n": 3}]),
        # near-unit moduli, where deck powers beyond +-40 are needed.  Last in
        # the cycle, so every run that stops in its fourth cycle holds three
        ("hopf-cover(near-unit)", _cover,
         [{"n": 2, "mods": (0.97, 0.985)}, {"n": 3, "mods": (0.97, 0.985)}]),
    ],
}


def cycle(workload: str, seed: int, index: int) -> list[dict]:
    """The jobs of one cycle, in slot order.  The order is fixed so that a
    run that stops inside a cycle has the same mix whatever the seed."""
    jobs = []
    for s, (name, build, variants) in enumerate(WORKLOADS[workload]):
        variant = variants[(index + s) % len(variants)]
        config, files, expect = build(random.Random(f"{workload}/{seed}/{index}/{s}"),
                                      variant)
        jobs.append({"id": f"c{index}s{s}", "name": name, "config": config,
                     "files": files, "expect": expect})
    return jobs


def write_job(job: dict, root: str) -> str:
    """Write one job's config and inputs under ``root``; returns its dir."""
    path = os.path.join(root, job["id"])
    os.makedirs(path, exist_ok=True)
    for fname, data in list(job["files"].items()) + [("config.json", job["config"])]:
        with open(os.path.join(path, fname), "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True)
    return path
