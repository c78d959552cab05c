"""Batch command-line surface: one pipeline per invocation, JSON reports.

Exit codes: 0 for a passing run, 1 for a certified failure (resonance
witness, failing checklist, uncovered point, nonzero residual, negative
majorant coefficient, Laurent budget overflow, a spec that is not
generic where a check needs one), 2 for input errors.  Only
``dioph-scan`` reads the config's ``mode`` (the coefficient field,
``exact`` or ``float``); the other pipelines run exact and reject
``float``.  The report echoes the config with every param resolved, so
rerunning an exact-mode echo reproduces the payload byte for byte
(timing lives outside the payload).
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
from typing import Callable, NamedTuple

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


class Param(NamedTuple):
    """A command's param: ``kind`` is int, Fraction, float, a tuple of
    choices or list (of fractions); ``lo`` and ``hi`` bound it inclusively,
    each entry of a list.  A None ``default`` is derived by the pipeline
    from its inputs, or stands for "not read"; JSON null then means it."""

    kind: object
    default: object = None
    lo: object = -math.inf
    hi: object = math.inf


class Command(NamedTuple):
    run: Callable           # config -> (payload, exit code)
    params: dict            # name -> Param
    needs: tuple = ()       # input names the command requires
    takes: tuple = ()       # input names it may also take


# the JSON types each kind takes (never bool), as an error message names them
_JSON_TYPES = {int: (int,), Fraction: (int, str), float: (int, float, str)}
_WANT = {int: "a JSON integer", Fraction: "a string or an integer",
         float: "a number or a string", list: "a list of strings or integers"}


def _param(name: str, p: Param, value):
    """The converted, range-checked value of one param."""
    if value is None and p.default is None:
        return None
    if isinstance(p.kind, tuple):
        if isinstance(value, str) and value in p.kind:
            return value
        raise ConfigError(f"params.{name} must be one of {', '.join(p.kind)}, got {value!r}")
    kind, items = (Fraction, value) if p.kind is list else (p.kind, [value])
    if not isinstance(items, list) or any(isinstance(x, bool) or not isinstance(
            x, _JSON_TYPES[kind]) for x in items):
        raise ConfigError(f"params.{name} must be {_WANT[p.kind]}, got {value!r}")
    try:
        out = [kind(Fraction(x) if isinstance(x, str) else x) for x in items]
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"params.{name}: cannot read {value!r}: {exc}") from None
    for x in out:
        if not p.lo <= x <= p.hi or abs(x) == math.inf:
            raise ConfigError(f"params.{name} must be finite in [{p.lo}, {p.hi}], got {value!r}")
    return out if p.kind is list else out[0]


def load_config(path: str, overrides: dict) -> dict:
    """The config at ``path`` with the CLI overrides, checked against its
    command's table: input paths resolved, params converted, defaults in."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    config = {"inputs": {}, "params": {}, "mode": QQI.name, "seed": 0, **config}
    config.update((k, v) for k, v in overrides.items() if v is not None)
    for key, kind, want in (("inputs", dict, "an object"), ("params", dict, "an object"),
                            ("mode", str, "a string"), ("seed", int, "an integer")):
        if isinstance(config[key], bool) or not isinstance(config[key], kind):
            raise ConfigError(f"config '{key}' must be {want}, got {config[key]!r}")
    command, inputs, params = config.get("command"), config["inputs"], config["params"]
    if not isinstance(command, str) or command not in PIPELINES:
        raise ConfigError(f"unknown command {command!r}; one of {', '.join(PIPELINES)}")
    table = PIPELINES[command]
    unknown = sorted(set(config) - CONFIG_KEYS) + sorted(set(inputs) - {*table.needs, *table.takes})
    unknown += [f"params.{k}" for k in sorted(set(params) - set(table.params))]
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    if config["mode"] not in FIELDS:
        raise ConfigError(f"unknown mode {config['mode']!r}")
    if config["mode"] != QQI.name and command != "dioph-scan":
        raise ConfigError(f"{command} runs exact only; mode is read by dioph-scan")
    missing = [name for name in table.needs if name not in inputs]
    if missing:
        raise ConfigError(f"{command} needs inputs: {', '.join(missing)}")
    base = os.path.dirname(os.path.abspath(path))
    for name, rel in inputs.items():
        if not isinstance(rel, str) or not os.path.exists(os.path.join(base, rel)):
            raise ConfigError(f"input file {rel!r} for {name} does not exist")
        inputs[name] = os.path.join(base, rel)
    config["params"] = {name: _param(name, p, params[name]) if name in params
                        else p.default for name, p in table.params.items()}
    return config


def _decode(config: dict, name: str, decoder, *args):
    """Input ``name`` read and decoded; a file of the wrong shape or with an
    unreadable number (``"x"``, ``"1/0"``, ``1e400``) is an input error that
    names the input."""
    with open(config["inputs"][name], "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        return decoder(data, *args)
    except (TypeError, AttributeError, KeyError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"input {name} is malformed: {type(exc).__name__}: {exc}") from None


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
# pipelines: each reads its resolved params from config["params"]


def _run_toroidal_validate(config: dict):
    spec = _decode(config, "spec", ToroidalSpec.from_json_dict)
    params = config["params"]
    irr = toroidal.validate_irrationality(spec, params["height_bound"])
    basis = toroidal.shear_to_standard(spec)
    eta = toroidal.convex_extension_eta(spec, params["epsilon"])
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
    decks = _decode(config, "decks", _decks_from_json, FIELDS[config["mode"]])
    params = config["params"]
    report = diophantine_scan(decks, params["N"], params["scan_mode"])
    return report.to_json_dict(), FAIL if report.has_resonance else PASS


def _fixture(config: dict):
    params = config["params"]
    dims = (params["n_h"], params["d"], params["q"])
    decks = None
    if "decks" in config["inputs"]:
        decks = _decode(config, "decks", _decks_from_json, QQI)
    gen = linearize.generate_commuting_decks(config["seed"], dims, params["n_v"],
                                             params["profile"], decks, params["scale"])
    return gen, params["n_v"]


def _run_linearize(config: dict):
    lin_mode = config["params"]["lin_mode"]
    gen, n_v = _fixture(config)
    report = diophantine_scan(gen.pert.decks, n_v + 4, lin_mode)
    payload = {"commutation_residual": linearize.check_commutation(gen.pert),
               "scan": report.to_json_dict()}
    if report.has_resonance:
        return payload, FAIL
    solve = linearize.full_linearize if lin_mode == "full" else linearize.vertical_linearize
    result = solve(gen.pert, n_v, report)
    payload["result"] = result.to_json_dict()
    if gen.phi0_v is not None:
        payload["recovered_ground_truth"] = None if lin_mode == "vertical" else all(
            a.terms == b.truncate_v(n_v).terms for a, b in
            zip(result.phi_h + result.phi_v, gen.phi0_h + gen.phi0_v))
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
    base = GridSpec([(params["h_radius_lo"], params["h_radius_hi"])] * gen.pert.decks.n_h,
                    params["v_radius"], params["angles"])
    constants = linearize.fit_majorant_constants(gen.pert, report, base)
    cert = linearize.majorant_functional_solve("vertical", constants, n_v)
    grids = linearize.grid_ladder(base, n_v, constants["eta_margin"])
    verdict = linearize.certify_domination(result, cert, grids, gen.pert.decks)
    payload.update(constants=constants, certificate=cert.to_json_dict(), domination={
        "passed": verdict.passed, "first_fail": verdict.first_fail,
        "rows": [list(r) for r in verdict.rows]})
    ok = verdict.passed and result.max_residual == 0.0
    return payload, PASS if ok else FAIL


def _run_hopf_classify(config: dict):
    params, has_bundle = config["params"], "bundle" in config["inputs"]
    if not has_bundle and params["variant"] is not None:
        raise ConfigError("variant is read only with a bundle input")
    spec = _decode(config, "spec", hopf.HopfSpec.from_json_dict)
    cls = hopf.classify_hopf(spec, params["exp_bound"])
    payload = {"kind": cls.kind, "reason": cls.reason, "bound": cls.bound,
               "witness": [list(w) for w in cls.witness] if cls.witness else None}
    if has_bundle:
        bundle = _decode(config, "bundle", hopf.FlatBundle.from_json_dict)
        variant = params["variant"] = params["variant"] or "mall_generic"
        rep = hopf.vanishing_predicate(bundle, spec, variant, params["exp_bound"])
        payload["vanishing"] = {
            "variant": rep.variant, "criterion_holds": rep.criterion_holds,
            "H0_vanishes": rep.h0_vanishes, "H1_vanishes": rep.h1_vanishes,
            "witness": list(rep.witness) if rep.witness else None,
            "reason": rep.reason}
        return payload, PASS if rep.criterion_holds else FAIL
    return payload, PASS if cls.kind in ("generic", "classical") else FAIL


def _run_hopf_precheck(config: dict):
    spec = _decode(config, "spec", hopf.HopfSpec.from_json_dict)
    bundle = _decode(config, "bundle", hopf.FlatBundle.from_json_dict)
    params = config["params"]
    rep = hopf.hopf_precheck(bundle, spec, params["n_v"], params["exp_bound"])
    return rep.to_json_dict(), PASS if rep.passed else FAIL


def _covering(config: dict):
    """The spec and its covering; r1 defaults to one unit radius per coordinate."""
    spec = _decode(config, "spec", hopf.HopfSpec.from_json_dict)
    params = config["params"]
    if params["r1"] is None:
        params["r1"] = [Fraction(1)] * spec.n
    return spec, hopf.build_covering(spec, params["delta"], params["r1"])


def _run_hopf_cover(config: dict):
    spec, cov = _covering(config)
    payload = {"covering": cov.to_json_dict()}
    points = config["params"]["mc_points"]
    rng = random.Random(config["seed"])
    uncovered = triples = 0
    for _ in range(points):
        z = [cmath.rect(rng.uniform(0.2, 3.0), rng.uniform(0, 2 * math.pi))
             for _ in range(spec.n)]
        hits = hopf.orbit_hits(cov, spec, z)
        uncovered += not hits
        triples += sum({i for (i, jj, _) in hits if jj == j} == {1, 2, 3}
                       for j in range(spec.n))
    payload["monte_carlo"] = {"points": points, "uncovered": uncovered,
                              "triple_overlaps": triples}
    ok = uncovered == 0 and triples == 0
    if "bundle" in config["inputs"]:
        bundle = _decode(config, "bundle", hopf.FlatBundle.from_json_dict)
        graph = hopf.hopf_transition_graph(cov, spec, bundle)
        chains = hopf.transition_chain_search(graph)
        payload["chains"] = {str(node): ([str(x) for x in chain] if chain else None)
                             for node, chain in sorted(chains.items())}
        ok = ok and all(chain is not None for chain in chains.values())
    return payload, PASS if ok else FAIL


def _run_shilov(config: dict):
    params = config["params"]
    if params["fields"] != "jordan" and params["alpha"] is not None:
        raise ConfigError("alpha is read only with fields jordan")
    spec, cov = _covering(config)
    band, coord = params["band"], params["coord"]
    piece = hopf.covering_piece(cov, band, coord)
    if params["fields"] == "jordan" and params["alpha"] is None:
        params["alpha"] = abs(complex(spec.alpha_complex()[0]))
    fields = ("jordan", params["alpha"]) if params["fields"] == "jordan" else "diagonal"
    return {"piece": {"band": band, "coord": coord, "annulus": list(piece.annulus),
                      "disc_radius": piece.disc_radius},
            "constant": hopf.shilov_constant(piece, fields)}, PASS


_FIXTURE = {"n_h": Param(int, 1, 1), "d": Param(int, 1, 1), "q": Param(int, 1, 1),
            "n_v": Param(int, 5, 2), "profile": Param(("coboundary", "generic"), "coboundary"),
            "scale": Param(Fraction, Fraction(1, 16))}
_COVER = {"delta": Param(Fraction, Fraction(1, 5)), "r1": Param(list)}

# command -> its pipeline, params and inputs; anything else is rejected
PIPELINES = {
    "toroidal-validate": Command(_run_toroidal_validate, {
        "height_bound": Param(int, 20, 1), "epsilon": Param(float, 0.25)}, ("spec",)),
    "dioph-scan": Command(_run_dioph_scan, {
        "N": Param(int, 12, 2), "scan_mode": Param(("vertical", "full"), "vertical")}, ("decks",)),
    "linearize": Command(_run_linearize, {
        **_FIXTURE, "lin_mode": Param(("full", "vertical"), "full")}, takes=("decks",)),
    "certify": Command(_run_certify, {
        **_FIXTURE, "h_radius_lo": Param(float, 0.9), "h_radius_hi": Param(float, 1.1),
        "v_radius": Param(float, 0.4), "angles": Param(int, 12, 4)}, takes=("decks",)),
    "hopf-classify": Command(_run_hopf_classify, {
        "exp_bound": Param(int, 8, 1),
        "variant": Param(("mall_generic", "classical", "zhou1", "zhou2"))},
        ("spec",), ("bundle",)),
    "hopf-precheck": Command(_run_hopf_precheck, {
        "n_v": Param(int, 6, 1), "exp_bound": Param(int, 12, 1)}, ("spec", "bundle")),
    "hopf-cover": Command(_run_hopf_cover, {
        **_COVER, "mc_points": Param(int, 2000, 1)}, ("spec",), ("bundle",)),
    "shilov": Command(_run_shilov, {
        **_COVER, "band": Param(int, 1, 1, 3), "coord": Param(int, 0, 0),
        "fields": Param(("diagonal", "jordan"), "diagonal"), "alpha": Param(float)},
        ("spec",)),
}


def run(config: dict) -> tuple[dict, int]:
    """Dispatch one pipeline on a config from ``load_config``; returns
    (report, exit code)."""
    command = config["command"]
    started = time.time()
    payload, code = PIPELINES[command].run(config)
    report = {"command": command, "config": dict(config), "version": __version__,
              "input_digest": _input_digest(config), "payload": payload,
              "exit_code": code, "timing": {"seconds": time.time() - started}}
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
    parser = argparse.ArgumentParser(prog="germlin", description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="JSON run config")
    parser.add_argument("--out", help="write the JSON report here")
    parser.add_argument("--mode", choices=tuple(FIELDS))
    parser.add_argument("--seed", type=int)
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, {"mode": args.mode, "seed": args.seed})
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
