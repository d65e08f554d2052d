"""troppadic benchmark: one workload per run, one item at a time.

    python3 perfbench/run.py --workload bound_systems --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

A run builds its inputs from the seed, times each operation in a closed
loop (one process, one thread, the next item starts when the previous one
returns) for whole rounds until --seconds have passed, checks every
output against an oracle that shares no code with the library, and prints
one JSON line: {"correct", "attempted", "failed", "metrics"}.  --trace 0
gives the end-to-end metrics; --trace 1 re-runs the first rounds with
every traced library function wrapped and gives the per-layer metrics.
--smoke runs a few items of every workload, traced, and shows that each
check rejects a corrupted output.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5

# This shared machine's speed moves by up to 30% within seconds (a fixed
# pure-Python loop takes 0.11 s or 0.17 s depending on the moment), more
# than any bound worth enforcing.  So between items the run times a fixed
# reference kernel, and every time it reports is scaled to a machine on
# which that kernel takes REF_NOMINAL_S.  Raw wall times go to the details
# file.
REF_NOMINAL_S = 0.005
CAL_EVERY_S = 0.1


class Record(NamedTuple):
    item: object
    time: float  # wall time scaled to the reference machine
    ok: bool
    out: object  # the output, or the failure message
    wall: float


def load_program():
    """Put the checkout's library on the path; the oracle comes from tests/."""
    oracle_path = ROOT / "tests" / "oracle_roots.py"
    if not (ROOT / "src" / "troppadic" / "__init__.py").is_file() or not oracle_path.is_file():
        sys.exit(f"perfbench: no troppadic sources (src/troppadic, tests/oracle_roots.py) under {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("oracle_roots", oracle_path)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle.torus_root_count


def reference_kernel():
    """Fixed work of the kinds the library and its CLI do (Fraction
    arithmetic, tuple-keyed dicts, a JSON round trip), sharing no code with
    them; returns its wall time."""
    t0 = perf_counter()
    x, d = Fraction(0), {}
    for i in range(1, 700):
        x += Fraction(1, i % 97 + 1) * i
        k = (i % 31, i % 7)
        d[k] = d.get(k, 0) + x.denominator % 5
    doc = {"terms": [{"exps": [i, i % 3], "coeff": str(i)} for i in range(200)]}
    json.loads(json.dumps(doc, sort_keys=True, indent=2))
    return perf_counter() - t0


def reference_time():
    return (reference_kernel() + reference_kernel()) / 2


def run_items(items, records, scaled=True):
    """Time each item; an exception from the library is a failed operation.

    With ``scaled`` the reference kernel runs after every CAL_EVERY_S of
    items, and each item's time is its wall time scaled by the kernel times
    that bracket it.
    """
    segment, busy = [], 0.0
    ref0 = reference_time() if scaled else None
    for k, item in enumerate(items):
        t0 = perf_counter()
        try:
            out, ok = item.run(), True
        except Exception as exc:  # noqa: BLE001 - the operation boundary
            out, ok = f"{type(exc).__name__}: {exc}", False
        wall = perf_counter() - t0
        segment.append((item, wall, ok, out))
        busy += wall
        if busy >= CAL_EVERY_S or k == len(items) - 1:
            scale = 1.0
            if scaled:
                ref1 = reference_time()
                scale = REF_NOMINAL_S / ((ref0 + ref1) / 2)
                ref0 = ref1
            records.extend(Record(it, w * scale, good, res, w) for it, w, good, res in segment)
            segment, busy = [], 0.0


def check_records(records, extract, checks):
    """Run every check on every successful output; return the failures."""
    problems = []
    for r in records:
        if not r.ok:
            continue
        try:
            data = extract(r.item, r.out)
            for check in checks:
                check(r.item, data)
        except Exception as exc:  # noqa: BLE001 - a wrong output, reported
            problems.append(f"{r.item.kind} {r.item.data}: {type(exc).__name__}: {exc}")
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    return problems


def percentile(sorted_values, pct):
    """Nearest-rank percentile, pct a whole number."""
    return sorted_values[max(0, -(-pct * len(sorted_values) // 100) - 1)]


def measure_setup(args):
    """Median time from starting a fresh interpreter to the point where the
    first item is ready to be timed, scaled like item times."""
    times, walls = [], []
    for k in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", str(k)]
        ref0 = reference_time()
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            wall = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            sys.exit(f"perfbench: setup probe exited {code} without getting ready")
        ref1 = reference_time()
        times.append(wall * REF_NOMINAL_S / ((ref0 + ref1) / 2))
        walls.append(wall)
    return statistics.median(times), walls


def result_line(records, problems, metrics):
    return {
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(1 for r in records if not r.ok),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def timed_run(args, wl, workdir, oracle, checks, workloads):
    setup_s, setup_walls = measure_setup(args)
    records = []
    rounds = 0
    t_start = perf_counter()
    while rounds < wl.min_rounds or perf_counter() - t_start < args.seconds:
        run_items(workloads.make_round(wl, args.seed, rounds, workdir, oracle), records)
        rounds += 1
        if rounds == wl.min_rounds:
            # read over a fixed amount of work: the run keeps every output
            # for the checks, so later rounds grow the harness, not the program
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            first = list(records)
    wall = perf_counter() - t_start

    extract, check_list = checks.checks_for(args.workload, ROOT)
    problems = check_records(records, extract, check_list)
    good = [r for r in records if r.ok]
    times = sorted(r.time for r in good)
    level = workloads.tail_level(sum(1 for r in first if r.ok))
    bound_sum = sum(checks.bound_value(r.item, extract(r.item, r.out)) for r in first if r.ok)
    metrics = {
        "items_per_s": (len(times) / sum(times), "1/s"),
        "latency_p50_s": (statistics.median(times), "s"),
        "latency_tail_s": (percentile(times, level), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "bound_sum": (float(bound_sum), "count"),
    }
    by_kind = {}
    for r in good:
        by_kind.setdefault(r.item.kind, []).append(r.time)
    details = {
        "rounds": rounds,
        "wall_s": wall,
        "items_ok": len(good),
        "tail_percentile": level,
        "setup_wall_s": setup_walls,
        "items_per_wall_s": len(good) / sum(r.wall for r in good),
        "latency_by_kind": {
            k: {"n": len(v), "median_s": statistics.median(v), "max_s": max(v)}
            for k, v in sorted(by_kind.items())
        },
        "failures": sorted({f"{r.item.kind} {r.item.data.get('expr', '')}: {r.out}" for r in records if not r.ok}),
        "check_failures": problems,
    }
    return result_line(records, problems, metrics), details


def traced_run(args, wl, workdir, oracle, checks, spans, workloads):
    """The first min_rounds rounds, each item once untraced and once traced,
    in alternating order so that load on the machine falls on both passes
    alike.  The counts repeat exactly for a seed, and the difference of the
    two passes is the tracing overhead."""
    items = []
    for rnd in range(wl.min_rounds):
        items += workloads.make_round(wl, args.seed, rnd, workdir, oracle)
    tracer = spans.Tracer()
    plain, traced = [], []
    for k, item in enumerate(items):
        for use_trace in (k % 2 == 1, k % 2 == 0):
            if not use_trace:
                run_items([item], plain, scaled=False)
                continue
            tracer.install()
            try:
                run_items([item], traced, scaled=False)
            finally:
                tracer.uninstall()
    tracer.check_expected(args.workload)

    extract, check_list = checks.checks_for(args.workload, ROOT)
    problems = check_records(traced, extract, check_list)
    reports = [extract(r.item, r.out) for r in traced if r.ok and r.item.kind in ("pointed", "sparse")]
    extra = {k: (v, "count") for k, v in spans.report_counts(reports).items()}
    overhead = sum(r.wall for r in traced) - sum(r.wall for r in plain)
    extra["trace.overhead_s"] = (overhead, "s")
    details = {
        "rounds": wl.min_rounds,
        "untraced_s": sum(r.wall for r in plain),
        "traced_s": sum(r.wall for r in traced),
        "check_failures": problems,
    }
    return result_line(traced, problems, tracer.metrics(extra)), details


def smoke(oracle, checks, spans, workloads):
    """The first item of every kind of every workload, traced and checked;
    then each check must reject a corrupted copy of a good output."""
    errors = []
    for name, wl in workloads.WORKLOADS.items():
        workdir = OUT / f"smoke-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        tracer = spans.Tracer()
        records = []
        try:
            seen, items = set(), []
            for item in workloads.make_round(wl, 1, 0, workdir, oracle):
                key = (item.kind, bool(item.data.get("diagonal")))
                if key not in seen:
                    seen.add(key)
                    items.append(item)
            tracer.install()
            try:
                run_items(items, records, scaled=False)
            finally:
                tracer.uninstall()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        try:
            tracer.check_expected(name)
        except spans.TraceError as exc:
            errors.append(str(exc))
        extract, check_list = checks.checks_for(name, ROOT)
        errors += check_records(records, extract, check_list)
        for check in check_list:
            cname = checks.check_name(check)
            applies, corrupt = checks.CORRUPTIONS[cname]
            target = next((r for r in records if r.ok and applies(r.item)), None)
            if target is None:
                errors.append(f"{name}: no item to corrupt for {cname}")
                continue
            try:
                check(target.item, corrupt(target.item, extract(target.item, target.out)))
            except checks.CheckFailed:
                print(f"smoke: {name}: {cname} rejects a corrupted output")
            else:
                errors.append(f"{name}: {cname} accepted a corrupted output")
        failed = sorted(r.item.kind for r in records if not r.ok)
        print(f"smoke: {name}: {len(records)} items, failed: {failed}")
    for e in errors:
        print(f"smoke: FAIL {e}", file=sys.stderr)
    return 1 if errors else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=("bound_systems", "mixed_volumes", "series_calculus"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="a few items per workload plus the check self-test")
    ap.add_argument("--setup-probe", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")

    oracle = load_program()
    import checks
    import spans
    import workloads

    if args.smoke:
        return smoke(oracle, checks, spans, workloads)

    wl = workloads.WORKLOADS[args.workload]
    if args.setup_probe is not None:
        workdir = OUT / f"probe-{args.workload}-{args.setup_probe}"
        workdir.mkdir(parents=True, exist_ok=True)
        workloads.make_round(wl, args.seed, 0, workdir, oracle)
        print("ready", flush=True)
        shutil.rmtree(workdir, ignore_errors=True)
        return 0

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / name
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result, details = traced_run(args, wl, workdir, oracle, checks, spans, workloads)
        else:
            result, details = timed_run(args, wl, workdir, oracle, checks, workloads)
    except spans.TraceError as exc:
        sys.exit(f"perfbench: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (OUT / f"{name}.json").write_text(
        json.dumps({"result": result, "details": details}, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
