"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tiles15-budget --seed 0 --seconds 15 --trace 0

A closed loop with one client: each planning query goes through
`bench.run_from_manifest` only after the previous one has returned, and every
query runs on the virtual clock, so its search effort is fixed and only wall
time varies. Untraced runs (`--trace 0`) go over the workload's queries in
turn until `--seconds` have passed (every query at least once) and report
the end-to-end metrics. Their times are host-speed-normalised: a fixed
reference loop runs between queries, and each query's wall time is scaled by
how much slower than nominal the loop ran around it (`host_speed`).
Traced runs (`--trace 1`) run each of the first TRACE_QUERIES queries
untraced and then traced, and report the per-layer metrics. Every published solution is checked outside the
timed region; the last line of output is one JSON object.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench-work"
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150
# The host's speed swings by a third within seconds as its neighbours' load
# comes and goes. Timings are scaled to a host that runs `reference_loop` in
# REFERENCE_S: a change to the program moves them, the host's load does not.
REFERENCE_S = 0.0075
REFERENCE_ITERATIONS = 100_000
BLOCK_S = 0.1   # wall time of queries between two reference loops, at least
TRACE_QUERIES = 16  # a traced run covers the workload's first queries, at most this many


def reference_loop() -> float:
    """Wall time of a fixed pure-Python integer loop.

    It imports nothing from the program and allocates nothing, so only the
    host's speed moves it. Of the loops tried (dict and heap work, lookups
    in a large dict, calls and attribute access), this one's time tracked
    the planner's best as the host's load came and went.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


def host_speed(before: float, after: float) -> float:
    """Factor that scales a wall time measured between two reference loops to nominal speed."""
    return REFERENCE_S / math.sqrt(before * after)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "oracle"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    before = reference_loop() if args.child == "setup" else 0.0
    t_setup = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import amhastar
    except ImportError as exc:
        print(f"perfbench: cannot import amhastar from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(amhastar.__file__).resolve().parent != ROOT / "src" / "amhastar":
        print(f"perfbench: amhastar imported from {amhastar.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    from perfbench import workloads

    if args.workload not in workloads.WHY:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    queries = workloads.make_inputs(args.workload, args.seed, WORKDIR)
    if args.child == "setup":
        setup_s = time.perf_counter() - t_setup
        print(setup_s * host_speed(before, reference_loop()))
        return 0
    if args.child == "oracle":
        print(json.dumps(workloads.expected_costs(args.workload, queries)))
        return 0

    setup = [float(_child(args, "setup")) for _ in range(SETUP_REPEATS)]
    t0 = time.perf_counter()
    queries = workloads.select(args.workload, queries, _expected_costs(args))
    print(f"workload {args.workload} seed {args.seed}: {len(queries)} queries per pass; "
          f"checker preparation {time.perf_counter() - t0:.2f} s (not timed)")
    print(f"  why: {workloads.WHY[args.workload]}")
    runner = Runner(queries)
    if args.trace:
        result = runner.traced_run(args)
    else:
        result = runner.untraced_run(args, statistics.median(setup))
    print(json.dumps(result))
    return 0


def _expected_costs(args) -> dict[int, float]:
    """The checker's optima, computed in a child process and cached on disk.

    They depend only on the workload, the seed and the source that generates
    and solves the queries, so a rerun of a seed on the same source reuses
    them; the lattice oracle takes most of a lattice run's wall time.
    """
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "amhastar").glob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.read_bytes())
    cache = WORKDIR / f"optima-{args.workload}-{args.seed}-{digest.hexdigest()[:16]}.json"
    if not cache.exists():
        WORKDIR.mkdir(parents=True, exist_ok=True)
        partial = cache.with_suffix(f".{os.getpid()}.tmp")
        partial.write_text(_child(args, "oracle"))
        os.replace(partial, cache)
    return {int(k): v for k, v in json.loads(cache.read_text()).items()}


def _child(args, role: str) -> str:
    """Last stdout line of this script run in a fresh process in `role`."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--child", role],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return out.stdout.strip().splitlines()[-1]


class Runner:
    """Closed-loop passes over one workload's queries, with per-query checks."""

    def __init__(self, queries) -> None:
        self.queries = queries
        self.replays: dict[str, list] = {}   # first pass's records per query
        self.attempted = 0
        self.failed = 0

    def run_query(self, q, tracer=None) -> dict:
        """Run one query, check its records outside the timing, return its timings."""
        from amhastar.bench import run_from_manifest
        from perfbench.checker import check_query

        run = run_from_manifest if tracer is None else tracer.wrap("query", run_from_manifest, True)
        first: list[float] = []

        def observer(rec):
            if not first:
                first.append(time.perf_counter())

        if tracer is not None:
            tracer.query = q.qid
        failures = []
        t0 = time.perf_counter()
        try:
            records, planner, domain = run(q.manifest, tracer is not None, observer)
        except Exception as exc:  # noqa: BLE001 - one broken query must not end the run
            failures = [f"raised {type(exc).__name__}: {exc}"]
            records, planner, domain = [], None, None
        t1 = time.perf_counter()
        if not failures:
            failures = check_query(q, records, domain)
            if self.replays.setdefault(q.qid, records) != records:
                failures.append("records differ from the first pass")
        if tracer is not None and domain is not None:
            tracer.finish_query(domain)
            tracer.count("planner.expansions", planner.expansions_total)
            tracer.count("planner.publishes", len(records))
            log = [qi for it in planner.expansion_log for _, qi in it]
            tracer.count("planner.expansions.logged", len(log))
            tracer.count("planner.expansions.inadmissible", sum(1 for qi in log if qi))
        self.attempted += 1
        if failures:
            self.failed += 1
            print(f"  FAIL {q.qid}: " + "; ".join(failures[:5]))
        return {
            "query_s": t1 - t0,
            "first_s": first[0] - t0 if first else None,
            "search_s": t1 - q.manifest.built_at if planner is not None else None,
            "expansions": planner.expansions_total if planner is not None else 0,
        }

    def result(self, metrics: dict) -> dict:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<36} {value:>14.6g} {unit}")
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        }

    def untraced_run(self, args, setup_s: float) -> dict:
        """The queries in turn until `args.seconds` have passed, each at least once.

        The queries run in blocks of at least BLOCK_S of wall time with a
        reference loop before the first block and after each one; a query's
        times are scaled by the host speed the two loops around its block
        measured, and a query run more than once counts with its median.
        """
        n = len(self.queries)
        samples: list[list[dict]] = [[] for _ in range(n)]
        wall = 0.0
        speeds = []
        before = reference_loop()
        t_end = time.perf_counter() + args.seconds
        k = 0
        while k < n or time.perf_counter() < t_end:
            block = []
            while not block or (sum(t["query_s"] for _, t in block) < BLOCK_S
                                and (k < n or time.perf_counter() < t_end)):
                block.append((k % n, self.run_query(self.queries[k % n])))
                k += 1
            after = reference_loop()
            speed = host_speed(before, after)
            before = after
            speeds.append(speed)
            for i, timing in block:
                wall += timing["query_s"]
                samples[i].append({key: v * speed if key.endswith("_s") and v is not None else v
                                   for key, v in timing.items()})
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        per_query = [
            {key: statistics.median(vs) if (vs := [s[key] for s in runs if s[key] is not None])
             else None for key in runs[0]}
            for runs in samples
        ]
        query_s = [q["query_s"] for q in per_query]
        first_s = [q["first_s"] for q in per_query if q["first_s"] is not None]
        print(f"  {k} query runs over {n} queries; {self.failed} of {self.attempted} failed "
              f"(failed_frac {self.failed / self.attempted:.4g}); "
              f"oracle: {'none for this workload' if self.queries[0].optimal is None else 'exhaustive'}")
        print(f"  host speed (nominal 1): median {statistics.median(speeds):.3f}, "
              f"range {min(speeds):.3f}-{max(speeds):.3f}; unscaled wall time {wall:.3f} s")
        print(f"  samples: each query's median over its runs; query_s n={n}, "
              f"first_solution_s n={len(first_s)}")
        if n >= 200:
            print(f"  query_s_p95 {statistics.quantiles(query_s, n=20)[18]:.6g} s (n={n})")
        return self.result({
            "setup_s": (setup_s, "s"),
            "total_s": (sum(query_s), "s"),
            "query_s_p50": (statistics.median(query_s), "s"),
            "first_solution_s_p50": (statistics.median(first_s), "s"),
            "expansions_per_s": (
                sum(q["expansions"] for q in per_query)
                / sum(q["search_s"] or 0.0 for q in per_query), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        })

    def traced_run(self, args) -> dict:
        """Each of the first TRACE_QUERIES queries untraced, then at once traced.

        The pair shares the host's speed; the cap keeps a traced run, which
        takes about two and a half times as long, well inside its time limit.
        """
        from perfbench import tracer as tracing
        from perfbench.layers import layer_metrics

        tracer = tracing.Tracer.calibrated()
        untraced = traced = 0.0
        for q in self.queries[:TRACE_QUERIES]:
            untraced += self.run_query(q)["query_s"]
            uninstall = tracing.install(tracer)
            try:
                traced += self.run_query(q, tracer)["query_s"]
            finally:
                uninstall()
        WORKDIR.mkdir(parents=True, exist_ok=True)
        spans_path = WORKDIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"  spans written to {os.path.relpath(spans_path, ROOT)}")
        return self.result(layer_metrics(tracer, untraced, traced))


if __name__ == "__main__":
    sys.exit(main())
