#!/usr/bin/env python3
"""Fold the per-run result files of one or more sets of runs into one summary.

    python3 perfbench/summarize.py --label <commit> --out perfbench/baseline-<commit>.json \
        .perfbench/set1 .perfbench/set2

Each argument is a directory of result files (a copy of ``.perfbench/results``
after one set of runs); the default is ``.perfbench/results``.  Per set and
workload: every run's end-to-end metrics, their median and quartiles
(``statistics.quantiles(n=4)``) with the spread (q3 - q1) / median, the
failed, known-defect and attempted counts and the causes of the
disagreeing jobs of each run, the median time of
each named job, and the payload sha256 of every job by seed.  Traced runs
contribute their per-layer metrics.  With two or more sets, ``comparison``
gives, per workload and metric, how much worse each later set's median is
than the first's, against the bound in ``BENCHMARK.json``, and counts the
payload digests the sets share and those that differ.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _stats(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def fold(results: str) -> dict:
    out = {"results": os.path.relpath(results, ROOT), "workloads": {}, "traced": {}}
    for path in sorted(glob.glob(os.path.join(results, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            res = json.load(fh)
        wl = res["workload"]
        if res["trace"]:
            out["traced"].setdefault(wl, []).append(
                {"seed": res["seed"], "metrics": res["metrics"], "self_s": res["self_s"],
                 "failed": res["failed"], "attempted": res["attempted"]})
            continue
        entry = out["workloads"].setdefault(wl, {"runs": [], "payload_sha256": {}})
        causes: dict = {}
        for j in res["jobs"]:
            if not j["ok"]:
                causes[j["cause"] or "other"] = causes.get(j["cause"] or "other", 0) + 1
        entry["runs"].append({"seed": res["seed"], "metrics": res["metrics"],
                              "failed": res["failed"], "known": res["known"],
                              "attempted": res["attempted"],
                              "disagree_by_cause": causes,
                              "tail_percentile": res["tail_percentile"]})
        entry["payload_sha256"][str(res["seed"])] = {
            j["id"]: j["payload_sha256"] for j in res["jobs"]}
        for j in res["jobs"]:
            entry.setdefault("_named", {}).setdefault(j["name"], []).append(j["wall_s"])
    for entry in out["workloads"].values():
        runs = entry["runs"]
        entry["summary"] = {k: _stats([r["metrics"][k] for r in runs])
                            for k in runs[0]["metrics"]}
        entry["named_job_s"] = {k: _stats(v) for k, v in sorted(entry.pop("_named").items())}
    return out


def compare(sets: list[dict]) -> dict:
    """Each later set against the first: medians, how much worse, bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    first, out = sets[0], {}
    for later in sets[1:]:
        name = later["results"]
        for wl, entry in sorted(first["workloads"].items()):
            other = later["workloads"].get(wl)
            if other is None:
                continue
            rows = out.setdefault(wl, {})
            for m in metrics:
                a = entry["summary"][m["name"]]["median"]
                b = other["summary"][m["name"]]["median"]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                rows.setdefault(m["name"], {})[name] = {
                    "first": a, "later": b, "worse": worse, "bound": m["bound"],
                    "within": worse <= m["bound"]}
            same = differ = 0
            for seed, jobs in entry["payload_sha256"].items():
                for job, digest in jobs.items():
                    theirs = other["payload_sha256"].get(seed, {}).get(job, "")
                    if theirs == "" or digest is None:
                        continue
                    same += theirs == digest
                    differ += theirs != digest
            rows.setdefault("payload_sha256", {})[name] = {"same": same, "differ": differ}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("results", nargs="*",
                        default=[os.path.join(ROOT, ".perfbench", "results")])
    args = parser.parse_args()
    sets = [fold(os.path.abspath(r)) for r in args.results]
    data = {"label": args.label, "python": sys.version.split()[0],
            "machine": f"{platform.machine()}, {os.cpu_count()} cpus, {platform.platform()}",
            "sets": sets, "comparison": compare(sets)}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for s in sets:
        for wl, entry in sorted(s["workloads"].items()):
            print(s["results"], wl, f"{len(entry['runs'])} runs")
            for k, st in entry["summary"].items():
                print(f"  {k:12s} median {st['median']:.6g}  spread {st.get('spread', 0):.4f}")
    for wl, rows in sorted(data["comparison"].items()):
        for metric, by_set in rows.items():
            for name, c in by_set.items():
                if metric == "payload_sha256":
                    print(f"{wl} vs {name}: digests same {c['same']}, differ {c['differ']}")
                else:
                    print(f"{wl} vs {name}: {metric:12s} {c['first']:.6g} -> {c['later']:.6g}"
                          f"  worse {c['worse']:+.3f} (bound {c['bound']})"
                          f"{'' if c['within'] else '  OUTSIDE BOUND'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
