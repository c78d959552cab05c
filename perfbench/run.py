#!/usr/bin/env python3
"""germlin benchmark: closed-loop batch CLI jobs on three seeded workloads.

    python3 perfbench/run.py --workload linearize-exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --selftest

Each job is one ``python -m germlin.cli --config ... --out ...`` run in its
own interpreter (``PYTHONPATH=src``, BLAS/OpenMP threads 1, no
``GERMLIN_THREADS``), one at a time from this single process: a closed
loop with one client.  Jobs run in cycle order until ``--seconds``
have been spent in jobs and at least 24 jobs have run; a set-up probe
(a fresh ``import germlin.cli``) follows each job.  Outputs are checked
after the loop.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
jobs through ``traced_job.py`` for the per-layer metrics, each right after
the same job untraced, to give the tracing overhead.  Metric names and units are those of
``BENCHMARK.json``.  The last line of stdout is one JSON object; per-job
records (wall time, exit code, check verdict, failure cause, payload
sha256) go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import check  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402

JOB_TIMEOUT_S = 120
# job_tail_s takes the highest percentile with 10 jobs above it; 24 jobs
# put it at p58, and whole cycles of linearize-exact (6) and scan-exact (8)
MIN_JOBS = 24


def _units(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout


def job_env() -> dict:
    env = dict(os.environ)
    env.pop("GERMLIN_THREADS", None)
    # jobs load germlin from its bytecode cache, as installed CLIs do
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv: list, env: dict, stderr) -> tuple[int | None, float, int]:
    """Run one process to completion: (exit code or None on timeout, wall
    seconds from spawn to exit, ru_maxrss in KiB)."""
    signal.signal(signal.SIGALRM, _alarm)
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=stderr)
    code = None
    try:
        signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        code = os.waitstatus_to_exitcode(status)
    except BaseException as exc:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        if not isinstance(exc, JobTimeout):
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return code, time.perf_counter() - start, usage.ru_maxrss


def setup_probe(env: dict) -> float:
    """Wall time of a fresh interpreter importing germlin.cli."""
    code, wall, _ = spawn([sys.executable, "-c", "import germlin.cli"], env,
                          subprocess.DEVNULL)
    if code != 0:
        raise SystemExit("germlin.cli does not import")
    return wall


def closed_loop(workload: str, seed: int, seconds: float, work: str,
                traced: bool) -> tuple[list, float, list]:
    """Run jobs in cycle order until ``seconds`` of loop time have passed
    and at least MIN_JOBS jobs have run: (records, loop time, paired
    times).  The loop time covers the jobs only.  A cycle's inputs are
    written before it starts.  Each job is paired with a run right next to
    it, so both see the same state of the machine: untraced, a set-up
    probe follows it (a first probe, which writes the bytecode cache, runs
    before the loop and is not kept); traced, the same job untraced
    precedes it, for the tracing overhead."""
    env = job_env()
    if not traced:
        setup_probe(env)
    records, paired, loop = [], [], 0.0
    for index in itertools.count():
        jobs = gen.cycle(workload, seed, index)
        dirs = [gen.write_job(job, work) for job in jobs]
        for job, path in zip(jobs, dirs):
            if len(records) >= MIN_JOBS and loop >= seconds:
                return records, loop, paired
            if traced:
                paired.append(run_job(job, path, env, False)["wall_s"])
            records.append(run_job(job, path, env, traced))
            loop += records[-1]["wall_s"]
            if not traced:
                paired.append(setup_probe(env))


def run_job(job: dict, path: str, env: dict, traced: bool) -> dict:
    report = os.path.join(path, "report.json")
    cli = ["--config", os.path.join(path, "config.json"), "--out", report]
    if traced:
        argv = [sys.executable, os.path.join(HERE, "traced_job.py"),
                os.path.join(path, "spans.json"), job["id"]] + cli
    else:
        argv = [sys.executable, "-m", "germlin.cli"] + cli
    if os.path.exists(report):
        os.remove(report)
    with open(os.path.join(path, "stderr.txt"), "wb") as err:
        code, wall, rss = spawn(argv, env, err)
    return {"job": job, "path": path, "code": code, "wall_s": wall,
            "rss_kb": rss}


def verify(records: list) -> None:
    """Check every job's output against its expectation (outside the timed
    loop) and add the verdict and payload digest to its record."""
    for rec in records:
        job, report = rec["job"], None
        try:
            with open(os.path.join(rec["path"], "report.json"), encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, json.JSONDecodeError):
            pass
        if rec["code"] is None:
            verdict, exact, why, cause = "failed", False, f"timed out after {JOB_TIMEOUT_S} s", ""
        else:
            verdict, exact, why, cause = check.check(job, rec["code"], report)
        if verdict != "ok" and report is None:
            with open(os.path.join(rec["path"], "stderr.txt"), errors="replace") as fh:
                tail = fh.read().strip().splitlines()[-1:]
            why = f"{why}: {tail[0] if tail else 'no stderr'}"
        rec.update(verdict=verdict, ok=verdict == "ok", exact=exact, why=why, cause=cause,
                   digest=check.payload_digest(report) if report else None,
                   bits=check.coeff_bits(report) if report else (0, 0))


def tail_percentile(walls: list[float]) -> tuple[float, float]:
    """Highest per-job percentile with at least 10 jobs beyond it."""
    ordered = sorted(walls)
    i = max(len(ordered) - 11, 0)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def summarize(records: list, loop: float) -> dict:
    walls = [r["wall_s"] for r in records]
    done = [r for r in records if r["code"] is not None]
    failed = sum(r["verdict"] == "failed" for r in records)
    known = sum(r["verdict"] == "known" for r in records)
    tail, pct = tail_percentile(walls)
    return {"n": len(records), "failed": failed, "known": known,
            "correct": all(r["ok"] or not r["exact"] for r in records),
            "jobs_per_s": len(done) / loop, "job_p50_s": statistics.median(walls),
            "job_tail_s": tail, "tail_pct": pct,
            "agree_share": sum(r["ok"] for r in records) / len(records),
            "peak_rss_mb": max(r["rss_kb"] for r in records) / 1024}


def job_rows(records: list) -> list[dict]:
    return [{"id": r["job"]["id"], "name": r["job"]["name"],
             "command": r["job"]["config"]["command"],
             "mode": r["job"]["config"].get("mode", "exact"),
             "params": r["job"]["config"]["params"], "wall_s": r["wall_s"],
             "exit": r["code"], "ok": r["ok"], "verdict": r["verdict"],
             "why": r["why"], "cause": r["cause"],
             "payload_sha256": r["digest"], "rss_mb": r["rss_kb"] / 1024}
            for r in records]


def print_failures(records: list) -> None:
    causes: dict = {}
    for r in records:
        if not r["ok"]:
            causes[r["cause"] or "other"] = causes.get(r["cause"] or "other", 0) + 1
            cause = f" (cause: {r['cause']})" if r["cause"] else ""
            print(f"  {r['verdict']} {r['job']['id']} {r['job']['name']}: {r['why']}{cause}")
    if causes:
        print("  disagreeing jobs by cause: "
              + ", ".join(f"{k} {v}" for k, v in sorted(causes.items())))


def named_medians(records: list) -> dict:
    by_name: dict = {}
    for r in records:
        by_name.setdefault(r["job"]["name"], []).append(r["wall_s"])
    return {k: (statistics.median(v), len(v)) for k, v in sorted(by_name.items())}


def run_workload(workload: str, seed: int, seconds: float) -> dict:
    work = os.path.join(OUT, "work", f"{workload}-{seed}-{os.getpid()}")
    try:
        records, loop, setup = closed_loop(workload, seed, seconds, work, traced=False)
        verify(records)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    s = summarize(records, loop)
    metrics = {"jobs_per_s": s["jobs_per_s"], "job_p50_s": s["job_p50_s"],
               "job_tail_s": s["job_tail_s"], "agree_share": s["agree_share"],
               "setup_s": statistics.median(setup),
               "peak_rss_mb": s["peak_rss_mb"]}
    n, units = s["n"], _units("end_to_end")
    samples = {k: n for k in metrics}
    samples["setup_s"] = len(setup)
    print(f"workload {workload}  seed {seed}  closed loop, 1 client, "
          f"{n} jobs in {loop:.2f} s of job time")
    for key, value in metrics.items():
        note = ""
        if key == "job_tail_s":
            note = f"  (p{s['tail_pct']:.0f}: {min(10, n - 1)} of {n} jobs above)"
        if key == "agree_share":
            note = (f"  (known defect {s['known']}/{n}, failed {s['failed']}/{n}; "
                    f"failed_share {(s['known'] + s['failed']) / n:.4f})")
        print(f"  {key:12s} {value:12.6g} {units[key]:7s} n={samples[key]}{note}")
    for name, (med, count) in named_medians(records).items():
        print(f"  job {name}: median {med:.3f} s over {count}")
    print_failures(records)
    save(workload, seed, 0, {"metrics": metrics, "samples": samples,
                             "tail_percentile": s["tail_pct"],
                             "failed": s["failed"], "known": s["known"], "attempted": n,
                             "setup_s_samples": setup,
                             "jobs": job_rows(records)})
    return {"correct": s["correct"], "attempted": n, "failed": s["failed"],
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    work = os.path.join(OUT, "work", f"{workload}-{seed}-{os.getpid()}")
    try:
        records, loop, twins = closed_loop(workload, seed, seconds, work, traced=True)
        verify(records)
        traces = []
        for r in records:
            try:
                with open(os.path.join(r["path"], "spans.json"), encoding="utf-8") as fh:
                    traces.append(json.load(fh))
            except (OSError, json.JSONDecodeError):
                print(f"  no spans from {r['job']['id']} (exit {r['code']})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    s, untraced = summarize(records, loop), sum(twins)
    metrics, self_s = layers.aggregate(traces, [r["bits"] for r in records])
    metrics.update({"trace.jobs": s["n"], "trace.jobs_per_s": s["n"] / loop,
                    "trace.untraced_jobs_per_s": s["n"] / untraced,
                    "trace.overhead_ratio": loop / untraced})
    print(f"workload {workload}  seed {seed}  traced: {s['n']} jobs, "
          f"{loop:.2f} s traced against {untraced:.2f} s untraced "
          f"(overhead x{loop / untraced:.3f})")
    units = _units("per_layer")
    for name, unit in units.items():
        print(f"  {name:36s} {metrics[name]:14.6g} {unit}")
    print("  self time per job, largest first:")
    for name, sec in sorted(self_s.items(), key=lambda kv: -kv[1])[:12]:
        print(f"    {name:34s} {sec:10.4f} s")
    print_failures(records)
    save(workload, seed, 1, {"metrics": metrics, "self_s": self_s,
                             "failed": s["failed"], "attempted": s["n"],
                             "jobs": job_rows(records)})
    return {"correct": s["correct"], "attempted": s["n"], "failed": s["failed"],
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}


def save(workload: str, seed: int, trace: int, data: dict) -> None:
    path = os.path.join(OUT, "results")
    os.makedirs(path, exist_ok=True)
    name = os.path.join(path, f"{workload}-seed{seed}-trace{trace}.json")
    with open(name, "w", encoding="utf-8") as fh:
        json.dump(dict(data, workload=workload, seed=seed, trace=trace), fh,
                  indent=1, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    # a terminated run still stops its job and removes its inputs
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "germlin", "cli.py")):
        print(f"no germlin sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.selftest:
        import selftest
        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    runner = run_traced if args.trace else run_workload
    if args.workload != "all":
        result = runner(args.workload, args.seed, args.seconds)
    else:
        parts = {wl: runner(wl, args.seed, args.seconds) for wl in gen.WORKLOADS}
        result = {"correct": all(p["correct"] for p in parts.values()),
                  "attempted": sum(p["attempted"] for p in parts.values()),
                  "failed": sum(p["failed"] for p in parts.values()),
                  "metrics": {f"{wl}.{k}": v for wl, p in parts.items()
                              for k, v in p["metrics"].items()}}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
