"""Per-layer metrics from the spans and counters of a traced run.

``MAPPING`` records, for every layer metric, the end-to-end metrics it
should move and the workloads it shows on; later performance changes name
their predicted movers and non-movers by these names.  Times and counts are
per traced job; a span nested inside a span of the same name counts once.
"""

from __future__ import annotations

from collections import defaultdict

LIN = "linearize-exact"
HOPF = "hopf-float"
SCAN_SHARE = "scan-exact; smaller share on linearize-exact; float path on hopf-float"
QC_SHARE = ("scan-exact, linearize-exact; on hopf-float about 2% of scan-exact's "
            "per-job volume, from exact Hopf eigenvalues in classify_hopf and "
            "hopf_precheck")
HOPF_MOVES = "jobs_per_s, job_tail_s, agree_share"

# (layer metric, end-to-end metrics it should move, workloads where it shows);
# units and better-direction are in BENCHMARK.json
MAPPING = [
    ("series.mul.calls", "jobs_per_s, job_p50_s", LIN),
    ("series.mul.s", "jobs_per_s, job_p50_s", LIN),
    ("series.mul.term_pairs", "jobs_per_s, job_p50_s", LIN),
    ("series.mul.kept_ratio", "jobs_per_s, job_p50_s", LIN),
    ("series.substitute_shift.calls", "jobs_per_s, job_p50_s", LIN),
    ("series.substitute_shift.s", "jobs_per_s, job_p50_s", LIN),
    ("series.compose_linear.s", "jobs_per_s, job_p50_s", LIN),
    ("series.grid_sup_norm.s", "jobs_per_s, job_p50_s", LIN),
    ("linearize.homog_kept_ratio", "jobs_per_s, job_tail_s", LIN),
    ("linearize.fixture.s", "jobs_per_s, job_tail_s", LIN),
    ("linearize.check_commutation.s", "jobs_per_s, job_tail_s", LIN),
    ("linearize.full_linearize.s", "jobs_per_s, job_tail_s", LIN),
    ("linearize.vertical_linearize.s", "jobs_per_s, job_tail_s", LIN),
    ("linearize.conjugacy_residual.s", "jobs_per_s, job_tail_s", LIN),
    ("linearize.majorant.s", "jobs_per_s, job_tail_s", LIN),
    ("linearize.certify_domination.s", "jobs_per_s, job_tail_s", LIN),
    ("divisors.diophantine_scan.s", "jobs_per_s", SCAN_SHARE),
    ("divisors.scan_points", "jobs_per_s", SCAN_SHARE),
    ("divisors.scan_points_per_s", "jobs_per_s", SCAN_SHARE),
    ("toroidal.lam_pow.calls", "jobs_per_s", SCAN_SHARE),
    ("toroidal.mu_pow.calls", "jobs_per_s", SCAN_SHARE),
    ("divisors.solve_family.s", "job_p50_s", LIN),
    ("divisors.solve_family.keys", "job_p50_s", LIN),
    ("divisors.compatibility_residual.s", "job_p50_s", LIN),
    ("scalars.qc_mul.calls", "jobs_per_s", QC_SHARE),
    ("scalars.qc_add.calls", "jobs_per_s", "linearize-exact"),
    ("scalars.qc_div.calls", "jobs_per_s", QC_SHARE),
    ("scalars.qc_pow.calls", "jobs_per_s", QC_SHARE),
    ("scalars.coeff_num_bits.max", "jobs_per_s", LIN),
    ("scalars.coeff_den_bits.max", "jobs_per_s", LIN),
    ("hopf.orbit_hits.calls", HOPF_MOVES, HOPF),
    ("hopf.orbit_hits.s", HOPF_MOVES, HOPF),
    ("hopf.orbit_hits.us_per_point", HOPF_MOVES, HOPF),
    ("hopf.build_covering.s", HOPF_MOVES, HOPF),
    ("hopf.chains.s", HOPF_MOVES, HOPF),
    ("hopf.classify.s", HOPF_MOVES, HOPF),
    ("hopf.hopf_precheck.s", HOPF_MOVES, HOPF),
    ("toroidal.validate_irrationality.s", HOPF_MOVES, HOPF),
    ("toroidal.convex_extension_eta.s", HOPF_MOVES, HOPF),
    ("cli.load_config.s", "job_p50_s, setup_s", "hopf-float, where jobs are short"),
    ("cli.run.s", "job_p50_s, setup_s", "hopf-float, where jobs are short"),
    ("cli.emit.s", "job_p50_s, setup_s", "hopf-float, where jobs are short"),
    ("trace.jobs", "base of every per-job figure", "all"),
    ("trace.jobs_per_s", "tracing overhead", "all"),
    ("trace.untraced_jobs_per_s", "tracing overhead", "all"),
    ("trace.overhead_ratio", "tracing overhead", "all"),
]


def span_times(trace: dict) -> tuple[dict, dict]:
    """Inclusive and self seconds per span name for one job."""
    names = trace["names"]
    spans = trace["spans"]
    total: dict = defaultdict(float)
    self_t: dict = defaultdict(float)
    child = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        self_t[names[name]] += (end - start - child[i]) / 1e9
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total[names[name]] += (end - start) / 1e9
    return total, self_t


def emit_time(trace: dict) -> float:
    """Report dump and summary: from the end of cli.run to the end of cli.main."""
    names = trace["names"]
    ends = {names[n]: e for n, _, e, _ in trace["spans"]}
    if "cli.run" not in ends:
        return 0.0
    return (ends["cli.main"] - ends["cli.run"]) / 1e9


def aggregate(traces: list[dict], bits: list[tuple[int, int]]) -> tuple[dict, dict]:
    """(metrics, self seconds per span name), per traced job."""
    n = max(len(traces), 1)
    total: dict = defaultdict(float)
    self_t: dict = defaultdict(float)
    counts: dict = defaultdict(int)
    calls: dict = defaultdict(int)
    emit = 0.0
    for trace in traces:
        t, s = span_times(trace)
        for k, v in t.items():
            total[k] += v
        for k, v in s.items():
            self_t[k] += v
        for k, v in trace["counts"].items():
            counts[k] += v
        for idx, *_ in trace["spans"]:
            calls[trace["names"][idx]] += 1
        emit += emit_time(trace)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {name: total[name[:-2]] / n for name, *_ in MAPPING
         if name.endswith(".s") and name != "cli.emit.s"}
    m.update({
        "series.mul.calls": calls["series.mul"] / n,
        "series.mul.term_pairs": counts["series.mul.term_pairs"] / n,
        "series.mul.kept_ratio": ratio(counts["series.mul.out_terms"],
                                       counts["series.mul.term_pairs"]),
        "series.substitute_shift.calls": calls["series.substitute_shift"] / n,
        "linearize.homog_kept_ratio": ratio(counts["linearize.homog.terms_out"],
                                            counts["linearize.homog.terms_in"]),
        "divisors.scan_points": counts["divisors.scan_points"] / n,
        "divisors.scan_points_per_s": ratio(counts["divisors.scan_points"],
                                            total["divisors.diophantine_scan"]),
        "divisors.solve_family.keys": counts["divisors.solve_family.keys"] / n,
        "toroidal.lam_pow.calls": counts["toroidal.lam_pow.calls"] / n,
        "toroidal.mu_pow.calls": counts["toroidal.mu_pow.calls"] / n,
        "hopf.orbit_hits.calls": calls["hopf.orbit_hits"] / n,
        "hopf.orbit_hits.us_per_point": 1e6 * ratio(total["hopf.orbit_hits"],
                                                    calls["hopf.orbit_hits"]),
        "scalars.coeff_num_bits.max": max((b[0] for b in bits), default=0),
        "scalars.coeff_den_bits.max": max((b[1] for b in bits), default=0),
        "cli.emit.s": emit / n,
    })
    for op in ("mul", "add", "div", "pow"):
        key = f"scalars.qc_{op}.calls"
        m[key] = counts[key] / n
    return m, {k: v / n for k, v in self_t.items()}
