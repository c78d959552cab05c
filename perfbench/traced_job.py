"""Run one germlin CLI job with spans around the public functions of its
seven modules, then write the spans and counters as JSON.

    PYTHONPATH=src python perfbench/traced_job.py SPANS.json JOB_ID CLI_ARGS...

Each wrapped function is replaced wherever the package holds a reference to
it: module attributes (so ``from .series import substitute_shift`` copies
in ``linearize`` are patched too) and class attributes (so ``__mul__`` is
patched along with ``FormalSeries.mul``).  A span is (name, start ns, end
ns, parent span); spans stay in memory until the job ends.  Scalar
arithmetic and eigenvalue powers are only counted: spans around millions of
``QC`` operations would swamp the job.
"""

from __future__ import annotations

import json
import sys
import time

from germlin import cli, divisors, hopf, linearize, scalars, series, toroidal

MODULES = (cli, divisors, hopf, linearize, scalars, series, toroidal)
now = time.perf_counter_ns

spans: list = []
stack = [-1]
counts: dict[str, int] = {}
scanning = [0]


def _replace(orig, wrapper):
    for mod in MODULES:
        for name, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, name, wrapper)
            elif isinstance(value, type) and value.__module__.startswith("germlin"):
                for attr, member in list(vars(value).items()):
                    if member is orig:
                        setattr(value, attr, wrapper)


def span(owner, attr: str, name: str, after=None, flag=None):
    """Record a span around every call; ``after(args, result)`` adds
    counters once the span has closed."""
    orig = vars(owner)[attr]

    def wrapper(*args, **kwargs):
        idx = len(spans)
        spans.append(None)
        parent = stack[-1]
        stack.append(idx)
        if flag is not None:
            flag[0] += 1
        start = now()
        try:
            out = orig(*args, **kwargs)
        finally:
            end = now()
            stack.pop()
            spans[idx] = (name, start, end, parent)
            if flag is not None:
                flag[0] -= 1
        if after is not None:
            after(args, out)
        return out

    _replace(orig, wrapper)


def count(owner, attr: str, key: str, only_if=None):
    orig = vars(owner)[attr]
    cell = [0]

    def wrapper(*args, **kwargs):
        if only_if is None or only_if[0]:
            cell[0] += 1
        return orig(*args, **kwargs)

    _replace(orig, wrapper)
    return key, cell


def _add(key: str, value: int):
    counts[key] = counts.get(key, 0) + value


def _mul_terms(args, out):
    _add("series.mul.term_pairs", len(args[0].terms) * len(args[1].terms))
    _add("series.mul.out_terms", len(out.terms))


def _solved_keys(args, out):
    _add("divisors.solve_family.keys", sum(len(s.terms) for s in out))


def _homog(orig):
    def wrapper(self, k):
        out = orig(self, k)
        _add("linearize.homog.terms_in", len(self.terms))
        _add("linearize.homog.terms_out", len(out.terms))
        return out
    return wrapper


def install() -> list:
    FS = series.FormalSeries
    span(cli, "main", "cli.main")
    span(cli, "load_config", "cli.load_config")
    span(cli, "run", "cli.run")
    span(linearize, "generate_commuting_decks", "linearize.fixture")
    for fn in ("check_commutation", "full_linearize", "vertical_linearize",
               "conjugacy_residual", "certify_domination"):
        span(linearize, fn, f"linearize.{fn}")
    span(linearize, "fit_majorant_constants", "linearize.majorant")
    span(linearize, "majorant_functional_solve", "linearize.majorant")
    span(divisors, "diophantine_scan", "divisors.diophantine_scan", flag=scanning)
    span(divisors, "solve_family", "divisors.solve_family", after=_solved_keys)
    span(divisors, "compatibility_residual", "divisors.compatibility_residual")
    span(FS, "mul", "series.mul", after=_mul_terms)
    span(series, "substitute_shift", "series.substitute_shift")
    span(FS, "compose_linear", "series.compose_linear")
    span(series, "grid_sup_norm", "series.grid_sup_norm")
    span(toroidal, "validate_irrationality", "toroidal.validate_irrationality")
    span(toroidal, "convex_extension_eta", "toroidal.convex_extension_eta")
    span(hopf, "orbit_hits", "hopf.orbit_hits")
    span(hopf, "build_covering", "hopf.build_covering")
    span(hopf, "hopf_transition_graph", "hopf.chains")
    span(hopf, "transition_chain_search", "hopf.chains")
    span(hopf, "classify_hopf", "hopf.classify")
    span(hopf, "hopf_precheck", "hopf.hopf_precheck")
    homog = vars(FS)["homogeneous_part"]
    _replace(homog, _homog(homog))
    return [count(scalars.QC, "__mul__", "scalars.qc_mul.calls"),
            count(scalars.QC, "__add__", "scalars.qc_add.calls"),
            count(scalars.QC, "__truediv__", "scalars.qc_div.calls"),
            count(scalars.QC, "__pow__", "scalars.qc_pow.calls"),
            count(toroidal.DeckLinearData, "lam_pow", "toroidal.lam_pow.calls"),
            count(toroidal.DeckLinearData, "mu_pow", "toroidal.mu_pow.calls"),
            count(divisors, "max_divisor", "divisors.scan_points", scanning)]


def main() -> int:
    out_path, job_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    cells = install()
    try:
        code = cli.main(argv)
    finally:
        for key, cell in cells:
            counts[key] = cell[0]
        names = sorted({s[0] for s in spans})
        index = {n: i for i, n in enumerate(names)}
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"job": job_id, "names": names, "counts": counts,
                       "spans": [[index[s[0]], s[1], s[2], s[3]]
                                 for s in spans]}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
