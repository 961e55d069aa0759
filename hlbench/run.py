"""The hltorus benchmark.

Usage, from the repository root:

    python3 hlbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of one workload (see workloads.py) for about S seconds.  Each
pass verifies every instance once, in a fresh interpreter, one pass at a
time.  Every report is checked against its expected status and the digest
of the sorted reports against the recorded one; an instance that raises,
reports another status, or belongs to a pass whose digest differs counts as
failed.

--trace 0 reports the end-to-end metrics, all with tracing off.  Their times
are scaled to a fixed host speed: each pass's times are multiplied by
REF_NOMINAL_S over the mean time of the reference blocks the pass ran (see
child.py), so a host that runs everything a third slower for a while does not
move them; each set-up time is scaled by the block timed right after it.
The raw times are printed above the result.

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics from the traced passes' span trees, plus the tracing overhead.  Spans
of the last traced pass are written to .bench_build/hlbench/.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Without src/hltorus to measure, the benchmark exits 2
and prints no result.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(".bench_build", "hlbench")
RUN_LIMIT_S = 170.0
MIN_UNTRACED_PASSES = 2
# set-up-only children a --trace 0 run starts with; with the passes' own,
# setup_s is the median of 7 to 10 samples
SETUP_SAMPLES = 5
# Time of child.reference_block() at the host speed the scaled times refer
# to; a round figure within the 0.09-0.14 s that the block's mean took on
# the 2-vCPU Xeon VM the baseline was taken on.
REF_NOMINAL_S = 0.1


class BenchError(Exception):
    pass


def child_env():
    # measure the package's defaults, whatever HLTORUS_* the caller has set
    env = {k: v for k, v in os.environ.items() if not k.startswith("HLTORUS_")}
    env["PYTHONPATH"] = os.path.abspath("src")
    return env


def spawn_child(workload, seed, mode, tiny, spans_path, env, timeout):
    """Run child.py in ``mode``; return its result and the spawn time."""
    argv = [sys.executable, CHILD, workload, str(seed), mode, str(int(tiny)),
            spans_path]
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("a %s %s child did not finish within %.0f s"
                         % (workload, mode, timeout))
    if proc.returncode != 0:
        raise BenchError("a %s %s child exited with %d:\n%s"
                         % (workload, mode, proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1]), t_spawn


def scaled_setup(res, t_spawn):
    """A child's set-up time, scaled by the reference block it timed right
    after set-up."""
    # perf_counter is CLOCK_MONOTONIC, shared by parent and child
    return (res["t_first"] - t_spawn) * REF_NOMINAL_S / res["ref_s"][0]


def run_pass(workload, seed, traced, tiny, spans_path, env, timeout):
    res, t_spawn = spawn_child(workload, seed, "trace" if traced else "run",
                               tiny, spans_path, env, timeout)
    res["setup_s"] = res["t_first"] - t_spawn
    res["setup_scaled_s"] = scaled_setup(res, t_spawn)
    res["traced"] = traced
    res["scale"] = REF_NOMINAL_S / statistics.mean(res["ref_s"])
    return res


def run_passes(workload, seed, seconds, trace, tiny, spans_path):
    """(passes, setups): passes until the next one would end after
    ``seconds``.  With tracing, passes alternate untraced and traced, starting
    untraced.  Without, the run starts with SETUP_SAMPLES set-up-only
    children, whose scaled set-up times are ``setups``."""
    env = child_env()
    start = time.perf_counter()
    setups = []
    for _ in range(0 if trace else SETUP_SAMPLES):
        res, t_spawn = spawn_child(workload, seed, "setup", tiny, spans_path,
                                   env, RUN_LIMIT_S)
        setups.append(scaled_setup(res, t_spawn))
    passes = []
    took = {False: [], True: []}
    while True:
        traced = trace and len(passes) % 2 == 1
        remaining = RUN_LIMIT_S - (time.perf_counter() - start)
        t0 = time.perf_counter()
        passes.append(run_pass(workload, seed, traced, tiny, spans_path, env,
                               max(remaining, 1.0)))
        took[traced].append(time.perf_counter() - t0)
        nxt = trace and len(passes) % 2 == 1
        enough = bool(took[True]) if trace else len(took[False]) >= MIN_UNTRACED_PASSES
        predicted = statistics.median(took[nxt] or took[not nxt])
        if enough and time.perf_counter() - start + predicted > seconds:
            return passes, setups


def _beta_cf(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300

    def nonzero(v):
        return v if abs(v) > tiny else tiny

    c = 1.0
    d = 1.0 / nonzero(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 10000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / nonzero(1.0 + num * d)
            c = nonzero(1.0 + num / c)
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise BenchError("incomplete beta did not converge for a=%g b=%g x=%g" % (a, b, x))


def beta_cdf(a, b, x):
    """Regularised incomplete beta function I_x(a, b), for a, b > 0."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def harrell_davis(values, q):
    """Harrell-Davis estimate of the q-quantile: the mean of the order
    statistics weighted by a Beta((n+1)q, (n+1)(1-q)) distribution.  Where a
    plain quantile is one value, this leans on its neighbours too, so the
    noise of one value moves it less."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def end_to_end(untraced, setups):
    """Every time of a pass is scaled by the pass's ``scale``, and each
    set-up time by the reference block timed right after it.  An instance's
    latency is its median over the passes; p50 and p98 are Harrell-Davis
    estimates over the instances' latencies."""
    setups = setups + [p["setup_scaled_s"] for p in untraced]

    # latencies are in seed order, the same order in every pass
    per_instance = [
        statistics.median(p["latencies_ms"][i] * p["scale"] for p in untraced)
        for i in range(len(untraced[0]["latencies_ms"]))]
    return {
        "wall_s": (statistics.median(p["wall_s"] * p["scale"] for p in untraced), "s"),
        "instance_ms_p50": (harrell_davis(per_instance, 0.5), "ms"),
        "instance_ms_p98": (harrell_davis(per_instance, 0.98), "ms"),
        "peak_rss_mib": (statistics.median(p["peak_rss_mib"] for p in untraced), "MiB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def per_layer(untraced, traced):
    """Self times are medians over the traced passes; every count must be
    the same in each traced pass."""
    figures = [p["layers"] for p in traced]
    first = {k: v for k, v in figures[0].items() if k != "self_s"}
    for f in figures[1:]:
        if {k: v for k, v in f.items() if k != "self_s"} != first:
            raise BenchError("layer counts differ between traced passes: %r / %r"
                             % (first, f))
    calls = first["calls"]
    for name, n in sorted(calls.items()):
        if n == 0:
            raise BenchError("layer %s recorded no calls; was it renamed?" % name)

    def self_s(name):
        return statistics.median(f["self_s"][name] for f in figures)

    def hit_frac(name):
        return first["hits"][name] / calls[name]

    traced_wall = statistics.median(p["wall_s"] * p["scale"] for p in traced)
    untraced_wall = statistics.median(p["wall_s"] * p["scale"] for p in untraced)
    coverage = statistics.median(
        sum(p["layers"]["self_s"].values()) / p["wall_s"] for p in traced)
    hl, ex = "hall_littlewood.hl_full", "densities._expansion"
    return {
        "hall_littlewood.calls": (calls[hl], "count"),
        "hall_littlewood.self_s": (self_s(hl), "s"),
        "hall_littlewood.cache_hit_frac": (hit_frac(hl), "ratio"),
        "hall_littlewood.out_terms": (first["built_size"][hl], "count"),
        "densities.expansion_calls": (calls[ex], "count"),
        "densities.expansion_self_s": (self_s(ex), "s"),
        "densities.expansion_cache_hit_frac": (hit_frac(ex), "ratio"),
        "densities.expansion_states": (first["built_size"][ex], "count"),
        "densities.convolution_self_s": (self_s("densities.ct_integrate"), "s"),
        "laurent.mul_calls": (calls["laurent.mul"], "count"),
        "laurent.mul_self_s": (self_s("laurent.mul"), "s"),
        "laurent.mul_out_terms": (first["mul_out_terms"], "count"),
        "series.mul_calls": (calls["series.mul"], "count"),
        "series.mul_self_s": (self_s("series.mul"), "s"),
        "identities.self_s": (self_s("identities.verify"), "s"),
        "trace_overhead_frac": (traced_wall / untraced_wall - 1.0, "ratio"),
        "trace_coverage_frac": (coverage, "ratio"),
    }


def count_failures(passes, expected_digest):
    """(attempted, failed, messages).  A pass whose digest differs from the
    expected one fails as a whole: the digest cannot say which report moved."""
    attempted = failed = 0
    messages = []
    for i, p in enumerate(passes):
        attempted += p["attempted"]
        if p["digest"] != expected_digest:
            failed += p["attempted"]
            messages.append("pass %d: digest %s, expected %s"
                            % (i, p["digest"], expected_digest or "(none recorded)"))
        else:
            failed += len(p["failed"])
        messages.extend("pass %d: instance %d: %s" % (i, iid, why)
                        for iid, why in p["failed"])
    return attempted, failed, messages


def main(argv=None, tiny=False, expected_digest=None):
    """Run the benchmark; return the process exit code.

    ``tiny`` runs the small self-test variant of the workload, and
    ``expected_digest`` replaces the recorded digest; both serve selftest.py.
    """
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "hltorus", "__init__.py")):
        print("hlbench: no src/hltorus here; run from the repository root",
              file=sys.stderr)
        return 2
    if expected_digest is None:
        expected_digest = workloads.DIGESTS[(args.workload, tiny)]
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, "spans-%s.tsv" % args.workload)
    try:
        passes, setups = run_passes(args.workload, args.seed, args.seconds,
                                    bool(args.trace), tiny, spans_path)
        untraced = [p for p in passes if not p["traced"]]
        traced = [p for p in passes if p["traced"]]
        if args.trace:
            metrics = per_layer(untraced, traced)
        else:
            metrics = end_to_end(untraced, setups)
    except BenchError as exc:
        print("hlbench: %s" % exc, file=sys.stderr)
        return 1
    attempted, failed, messages = count_failures(passes, expected_digest)
    for line in messages[:20]:
        print("FAILED " + line)
    samples = sum(len(p["latencies_ms"]) for p in untraced)
    print("%s seed %d: %d untraced and %d traced passes, %d latency samples, "
          "failed_frac %.4f" % (args.workload, args.seed, len(untraced),
                                len(traced), samples, failed / attempted))
    for i, p in enumerate(passes):
        print("  pass %d%s: raw wall %.3f s, raw setup %.3f s, %d reference "
              "blocks of mean %.4f s, scale %.4f"
              % (i, " (traced)" if p["traced"] else "", p["wall_s"],
                 p["setup_s"], len(p["ref_s"]), statistics.mean(p["ref_s"]),
                 p["scale"]))
    if setups:
        print("  set-up-only children: scaled setup %s s"
              % ", ".join("%.3f" % x for x in setups))
    if traced:
        print("spans of the last traced pass: %s" % spans_path)
    for name, (value, unit) in metrics.items():
        print("  %-36s %14.6f %s" % (name, value, unit))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
