"""Self-test of the benchmark itself (``python3 perfbench/run.py --selftest``).

1. The generator is deterministic: the same seed gives byte-identical
   inputs, another seed different ones.
2. A sample of jobs from every workload, run twice, gives identical payload
   sha256 digests; the traced runner gives the same digests as the CLI.
3. The checks reject doctored outputs: a nonzero residual, a shifted
   minimum divisor, a changed uncovered count (also on a near-unit job
   whose count the k-window defect explains), a dropped witness, a
   toroidal witness that leaves sigma R fractional.
4. ``layers.MAPPING`` names exactly the per-layer metrics of
   ``BENCHMARK.json``, in its order.
"""

from __future__ import annotations

import copy
import json
import os
import shutil

import check
import gen
import layers
import run

SAMPLE = {"linearize-exact": ("full_linearize(1,1,2)", "certify"),
          "scan-exact": ("scan(1,1,1)", "scan_planted"),
          "hopf-float": None}


def _generator_ok() -> bool:
    ok = True
    for wl in gen.WORKLOADS:
        for c in (0, 1):
            a = json.dumps(gen.cycle(wl, 7, c), sort_keys=True)
            b = json.dumps(gen.cycle(wl, 7, c), sort_keys=True)
            other = json.dumps(gen.cycle(wl, 8, c), sort_keys=True)
            if a != b or a == other:
                print(f"  generator not deterministic or ignores the seed: {wl}, cycle {c}")
                ok = False
    return ok


def _run_repeated(work: str) -> tuple[bool, list]:
    env = run.job_env()
    ok, records = True, []
    for wl, names in SAMPLE.items():
        jobs = [j for j in gen.cycle(wl, 7, 0) if names is None or j["name"] in names]
        for job in jobs:
            runs = []
            for traced in (False, False, True):
                path = gen.write_job(job, os.path.join(work, f"{wl}-{len(runs)}"))
                rec = run.run_job(job, path, env, traced)
                run.verify([rec])
                runs.append(rec)
            digests = {r["digest"] for r in runs}
            if len(digests) != 1 or None in digests:
                print(f"  payload digests differ: {wl} {job['name']}")
                ok = False
            if runs[0]["verdict"] == "failed":
                ok = False
            records.append(runs[0])
            print(f"  {wl:16s} {job['name']:28s} {runs[0]['verdict']:6s}"
                  f"  sha256 {runs[0]['digest'][:16]}  {runs[0]['why']}")
    return ok, records


def _load(rec) -> dict:
    with open(os.path.join(rec["path"], "report.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _doctored_rejected(records) -> bool:
    ok = True

    def expect_reject(rec, edit, what):
        nonlocal ok
        report = copy.deepcopy(_load(rec))
        edit(report["payload"])
        verdict, *_ = check.check(rec["job"], report["exit_code"], report)
        if verdict != "failed":
            print(f"  check accepted a doctored output: {what}")
            ok = False

    for rec in records:
        if rec["verdict"] == "failed":
            continue
        kind = rec["job"]["expect"]["kind"]
        if kind in ("linearize", "certify"):
            expect_reject(rec, lambda p: p["result"]["residual_per_degree"].__setitem__(2, 1e-3),
                          "nonzero residual")
        elif kind == "scan" and rec["job"]["expect"]["witness"] is None:
            expect_reject(rec, lambda p: p.__setitem__("min_divisor", p["min_divisor"] * (1 + 1e-6)),
                          "shifted min_divisor")
        elif kind == "scan":
            expect_reject(rec, lambda p: p.__setitem__("resonances", []), "dropped witness")
        elif kind == "cover":
            expect_reject(rec, lambda p: p["monte_carlo"].__setitem__(
                "uncovered", p["monte_carlo"]["uncovered"] + 1), "changed uncovered count")
        elif kind == "toroidal" and rec["job"]["expect"]["planted"]:
            expect_reject(rec, lambda p: p["irrationality"]["witness"].__setitem__(
                0, p["irrationality"]["witness"][0] + 1), "fractional sigma R")
    return ok


def _mapping_ok() -> bool:
    names = list(run._units("per_layer"))
    if names != [name for name, *_ in layers.MAPPING]:
        print("  layers.MAPPING and the per_layer metrics of BENCHMARK.json differ")
        return False
    return True


def main() -> int:
    work = os.path.join(run.OUT, "work", f"selftest-{os.getpid()}")
    try:
        print("generator determinism")
        gen_ok = _generator_ok()
        print("payload digests over two untraced runs and one traced run")
        digests_ok, records = _run_repeated(work)
        print("checks reject doctored outputs")
        doctored_ok = _doctored_rejected(records)
        print("layer mapping")
        mapping_ok = _mapping_ok()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    passed = gen_ok and digests_ok and doctored_ok and mapping_ok
    print("selftest", "passed" if passed else "FAILED")
    return 0 if passed else 1
