"""Batch command-line surface: one pipeline per invocation, JSON reports.

Exit codes: 0 for a passing run, 1 for a certified failure (resonance
witness, failing checklist, uncovered point, nonzero residual, negative
majorant coefficient, Laurent budget overflow, a spec that is not
generic where a check needs one), 2 for input errors.  Only
``dioph-scan`` reads the config's ``mode`` (the coefficient field,
``exact`` or ``float``); the other pipelines run exact and reject
``float``.  Exact-mode payloads are deterministic: rerunning
with the echoed config reproduces them byte for byte (timing lives outside
the payload).
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import math
import os
import random
import sys
import time
from fractions import Fraction

from . import __version__, hopf, linearize, toroidal
from .divisors import IncompatibleSystem, ResonanceError, diophantine_scan
from .linearize import MajorantFailure
from .scalars import FIELDS, QQI
from .series import GridSpec, TruncationOverflow
from .toroidal import DeckLinearData, ToroidalSpec

PASS, FAIL, INPUT_ERROR = 0, 1, 2
CONFIG_KEYS = frozenset({"command", "inputs", "params", "mode", "seed"})


class ConfigError(ValueError):
    pass


def _num(value, default=None):
    if value is None:
        return default
    if isinstance(value, str):
        return float(Fraction(value))
    return float(value)


def _int(value, default=None):
    if value is None:
        return default
    return int(value)


def load_config(path: str, overrides: dict) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if "command" not in config:
        raise ConfigError("config needs a 'command' entry")
    config.setdefault("inputs", {})
    config.setdefault("params", {})
    config.setdefault("mode", "exact")
    config.setdefault("seed", 0)
    if not isinstance(config["params"], dict):
        raise ConfigError("config 'params' must be an object")
    unknown = sorted(set(config) - CONFIG_KEYS)
    if config["command"] in PIPELINES:
        known = PIPELINES[config["command"]][1]
        unknown += [f"params.{k}" for k in sorted(set(config["params"]) - known)]
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for key, value in overrides.items():
        if value is not None:
            config[key] = value
    if config["mode"] not in FIELDS:
        raise ConfigError(f"unknown mode {config['mode']!r}")
    if config["mode"] != QQI.name and config["command"] != "dioph-scan":
        raise ConfigError(f"{config['command']} runs exact only; mode is read by dioph-scan")
    base = os.path.dirname(os.path.abspath(path))
    for name, rel in list(config["inputs"].items()):
        resolved = rel if os.path.isabs(rel) else os.path.join(base, rel)
        if not os.path.exists(resolved):
            raise ConfigError(f"input file {rel} for {name} does not exist")
        config["inputs"][name] = resolved
    return config


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _input_digest(config: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(config["inputs"]):
        with open(config["inputs"][name], "rb") as fh:
            h.update(name.encode())
            h.update(fh.read())
    return h.hexdigest()


def _decks_from_json(data: dict, field) -> DeckLinearData:
    lam, mu = ([[field.from_strings(e["re"], e["im"]) for e in row]
                for row in data[name]] for name in ("lambda", "mu"))
    return DeckLinearData(lam, mu)


# ----------------------------------------------------------------------
# pipelines


def _run_toroidal_validate(config: dict):
    spec = ToroidalSpec.from_json_dict(_read_json(config["inputs"]["spec"]))
    params = config["params"]
    bound = _int(params.get("height_bound"), 20)
    eps = _num(params.get("epsilon"), 0.25)
    irr = toroidal.validate_irrationality(spec, bound)
    basis = toroidal.shear_to_standard(spec)
    eta = toroidal.convex_extension_eta(spec, eps)
    payload = {
        "irrationality": {"passed": irr.passed, "bound": irr.bound,
                          "witness": list(irr.witness) if irr.witness else None},
        "gamma_prime": [[repr(complex(x)) for x in row]
                        for row in basis.gamma_prime.tolist()],
        "extension": {"eta": float(eta.eta),
                      "slab_halfwidth": float(eta.slab_halfwidth)},
    }
    return payload, PASS if irr.passed else FAIL


def _run_dioph_scan(config: dict):
    decks = _decks_from_json(_read_json(config["inputs"]["decks"]), FIELDS[config["mode"]])
    params = config["params"]
    n = _int(params.get("N"), 12)
    scan_mode = params.get("scan_mode", "vertical")
    report = diophantine_scan(decks, n, scan_mode)
    return report.to_json_dict(), FAIL if report.has_resonance else PASS


def _fixture(config: dict):
    params = config["params"]
    dims = (_int(params.get("n_h"), 1), _int(params.get("d"), 1),
            _int(params.get("q"), 1))
    n_v = _int(params.get("n_v"), 5)
    profile = params.get("profile", "coboundary")
    scale = Fraction(params.get("scale", "1/16"))
    decks = None
    if "decks" in config["inputs"]:
        decks = _decks_from_json(_read_json(config["inputs"]["decks"]), QQI)
    gen = linearize.generate_commuting_decks(int(config["seed"]), dims, n_v,
                                             profile, decks, scale)
    return gen, n_v


def _run_linearize(config: dict):
    params = config["params"]
    lin_mode = params.get("lin_mode", "full")
    if lin_mode not in ("full", "vertical"):
        raise ConfigError(f"unknown lin_mode {lin_mode!r}")
    gen, n_v = _fixture(config)
    scan_mode = "full" if lin_mode == "full" else "vertical"
    report = diophantine_scan(gen.pert.decks, n_v + 4, scan_mode)
    payload = {"commutation_residual": linearize.check_commutation(gen.pert),
               "scan": report.to_json_dict()}
    if report.has_resonance:
        return payload, FAIL
    if lin_mode == "full":
        result = linearize.full_linearize(gen.pert, n_v, report)
    else:
        result = linearize.vertical_linearize(gen.pert, n_v, report)
    payload["result"] = result.to_json_dict()
    if gen.phi0_v is not None:
        if lin_mode == "full":
            match = all(a.terms == b.truncate_v(n_v).terms for a, b in
                        zip(result.phi_h + result.phi_v, gen.phi0_h + gen.phi0_v))
        else:
            match = None
        payload["recovered_ground_truth"] = match
    return payload, PASS if result.max_residual == 0.0 else FAIL


def _run_certify(config: dict):
    params = config["params"]
    gen, n_v = _fixture(config)
    report = diophantine_scan(gen.pert.decks, n_v + 4)
    payload = {"scan": report.to_json_dict()}
    if report.has_resonance:
        return payload, FAIL
    result = linearize.vertical_linearize(gen.pert, n_v, report)
    payload["result"] = result.to_json_dict()
    base = GridSpec([( _num(params.get("h_radius_lo"), 0.9),
                       _num(params.get("h_radius_hi"), 1.1))]
                    * gen.pert.decks.n_h,
                    _num(params.get("v_radius"), 0.4),
                    _int(params.get("angles"), 12))
    constants = linearize.fit_majorant_constants(gen.pert, report, base)
    cert = linearize.majorant_functional_solve("vertical", constants, n_v)
    grids = linearize.grid_ladder(base, n_v, constants["eta_margin"])
    verdict = linearize.certify_domination(result, cert, grids, gen.pert.decks)
    payload["constants"] = constants
    payload["certificate"] = cert.to_json_dict()
    payload["domination"] = {"passed": verdict.passed,
                             "first_fail": verdict.first_fail,
                             "rows": [list(r) for r in verdict.rows]}
    ok = verdict.passed and result.max_residual == 0.0
    return payload, PASS if ok else FAIL


def _run_hopf_classify(config: dict):
    spec = hopf.HopfSpec.from_json_dict(_read_json(config["inputs"]["spec"]))
    params = config["params"]
    bound = _int(params.get("exp_bound"), 8)
    cls = hopf.classify_hopf(spec, bound)
    payload = {"kind": cls.kind, "reason": cls.reason, "bound": cls.bound,
               "witness": [list(w) for w in cls.witness] if cls.witness else None}
    if "bundle" in config["inputs"]:
        bundle = hopf.FlatBundle.from_json_dict(_read_json(config["inputs"]["bundle"]))
        variant = params.get("variant", "mall_generic")
        rep = hopf.vanishing_predicate(bundle, spec, variant, bound)
        payload["vanishing"] = {
            "variant": rep.variant, "criterion_holds": rep.criterion_holds,
            "H0_vanishes": rep.h0_vanishes, "H1_vanishes": rep.h1_vanishes,
            "witness": list(rep.witness) if rep.witness else None,
            "reason": rep.reason}
        return payload, PASS if rep.criterion_holds else FAIL
    return payload, PASS if cls.kind in ("generic", "classical") else FAIL


def _run_hopf_precheck(config: dict):
    spec = hopf.HopfSpec.from_json_dict(_read_json(config["inputs"]["spec"]))
    bundle = hopf.FlatBundle.from_json_dict(_read_json(config["inputs"]["bundle"]))
    params = config["params"]
    rep = hopf.hopf_precheck(bundle, spec, _int(params.get("n_v"), 6),
                             _int(params.get("exp_bound"), 12))
    return rep.to_json_dict(), PASS if rep.passed else FAIL


def _run_hopf_cover(config: dict):
    spec = hopf.HopfSpec.from_json_dict(_read_json(config["inputs"]["spec"]))
    params = config["params"]
    delta = Fraction(params.get("delta", "1/5"))
    r1 = [Fraction(x) for x in params.get("r1", ["1"] * spec.n)]
    cov = hopf.build_covering(spec, delta, r1)
    payload = {"covering": cov.to_json_dict()}
    points = _int(params.get("mc_points"), 2000)
    rng = random.Random(int(config["seed"]))
    uncovered = 0
    triples = 0
    for _ in range(points):
        z = [cmath.rect(rng.uniform(0.2, 3.0), rng.uniform(0, 2 * math.pi))
             for _ in range(spec.n)]
        hits = hopf.orbit_hits(cov, spec, z)
        if not hits:
            uncovered += 1
        for j in range(spec.n):
            if {i for (i, jj, _) in hits if jj == j} == {1, 2, 3}:
                triples += 1
    payload["monte_carlo"] = {"points": points, "uncovered": uncovered,
                              "triple_overlaps": triples}
    ok = uncovered == 0 and triples == 0
    if "bundle" in config["inputs"]:
        bundle = hopf.FlatBundle.from_json_dict(_read_json(config["inputs"]["bundle"]))
        graph = hopf.hopf_transition_graph(cov, spec, bundle)
        chains = hopf.transition_chain_search(graph)
        payload["chains"] = {str(node): ([str(x) for x in chain] if chain else None)
                             for node, chain in sorted(chains.items())}
        ok = ok and all(chain is not None for chain in chains.values())
    return payload, PASS if ok else FAIL


def _run_shilov(config: dict):
    spec = hopf.HopfSpec.from_json_dict(_read_json(config["inputs"]["spec"]))
    params = config["params"]
    delta = Fraction(params.get("delta", "1/5"))
    r1 = [Fraction(x) for x in params.get("r1", ["1"] * spec.n)]
    cov = hopf.build_covering(spec, delta, r1)
    band = _int(params.get("band"), 1)
    coord = _int(params.get("coord"), 0)
    piece = hopf.covering_piece(cov, band, coord)
    fields = params.get("fields", "diagonal")
    if fields == "jordan":
        fields = ("jordan", _num(params.get("alpha"), abs(complex(spec.alpha_complex()[0]))))
    constant = hopf.shilov_constant(piece, fields)
    payload = {"piece": {"band": band, "coord": coord,
                         "annulus": list(piece.annulus),
                         "disc_radius": piece.disc_radius},
               "constant": constant}
    return payload, PASS


_FIXTURE_PARAMS = {"n_h", "d", "q", "n_v", "profile", "scale"}

# command -> (pipeline, the params it reads); any other param is rejected
PIPELINES = {
    "toroidal-validate": (_run_toroidal_validate, {"height_bound", "epsilon"}),
    "dioph-scan": (_run_dioph_scan, {"N", "scan_mode"}),
    "linearize": (_run_linearize, _FIXTURE_PARAMS | {"lin_mode"}),
    "certify": (_run_certify, _FIXTURE_PARAMS | {"h_radius_lo", "h_radius_hi",
                                                 "v_radius", "angles"}),
    "hopf-classify": (_run_hopf_classify, {"exp_bound", "variant"}),
    "hopf-precheck": (_run_hopf_precheck, {"n_v", "exp_bound"}),
    "hopf-cover": (_run_hopf_cover, {"delta", "r1", "mc_points"}),
    "shilov": (_run_shilov, {"delta", "r1", "band", "coord", "fields", "alpha"}),
}


def run(config: dict) -> tuple[dict, int]:
    """Dispatch one pipeline; returns (report, exit code)."""
    command = config["command"]
    if command not in PIPELINES:
        raise ConfigError(f"unknown command {command!r}")
    started = time.time()
    payload, code = PIPELINES[command][0](config)
    report = {
        "command": command,
        "config": {k: config[k] for k in ("command", "inputs", "params",
                                          "mode", "seed")},
        "version": __version__,
        "input_digest": _input_digest(config),
        "payload": payload,
        "exit_code": code,
        "timing": {"seconds": time.time() - started},
    }
    return report, code


def render_summary(report: dict) -> str:
    """One line per check, deterministic ordering, witnesses printed."""
    lines = [f"germlin {report['version']} :: {report['command']} "
             f"-> exit {report['exit_code']}"]
    payload = report.get("payload", {})

    def walk(prefix: str, value):
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}.{key}" if prefix else key, value[key])
        elif isinstance(value, list):
            if len(value) > 8:
                lines.append(f"  {prefix}: [{len(value)} entries]")
            else:
                lines.append(f"  {prefix}: {value}")
        else:
            lines.append(f"  {prefix}: {value}")

    walk("", payload)
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="germlin",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="JSON run config")
    parser.add_argument("--out", help="write the JSON report here")
    parser.add_argument("--mode", choices=tuple(FIELDS))
    parser.add_argument("--seed", type=int)
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, {"mode": args.mode,
                                           "seed": args.seed})
        report, code = run(config)
    except (ResonanceError, IncompatibleSystem, MajorantFailure,
            TruncationOverflow, hopf.NonGenericSpec) as exc:
        print(f"certified failure: {exc}", file=sys.stderr)
        return FAIL
    except (ConfigError, OSError, KeyError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    text = json.dumps(report, indent=2, sort_keys=True, default=str)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(render_summary(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
