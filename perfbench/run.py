"""germcalc benchmark: runs one workload, checks its outputs, prints metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selfcheck [--seed N]

Every measurement runs in a fresh single-threaded interpreter (worker.py),
one at a time.  With --trace 0 the result line carries the end-to-end
metrics of BENCHMARK.json; with --trace 1 it carries the per-layer metrics
of a separate traced run.  The last line of standard output is that result
as one JSON object.  A full report, with the run environment and every
per-layer metric, is written under .perfbench-out/ in the checkout.

Exit status: 0 when every case matched its reference, 1 when any failed,
2 when the checkout holds no germcalc sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import stats  # noqa: E402
from layers import PER_LAYER, SPEC  # noqa: E402
from workloads import CHAIN_ORDER, WORKLOADS  # noqa: E402

SETUP_PROBES = 8
# the end-to-end metrics of BENCHMARK.json, in its order
LINE_METRICS = ("setup_s", "case_ref_s", "peak_rss_mb")
# a workload process that takes longer than this is killed and counted failed
WORKER_TIMEOUT_S = 170.0


def run_worker(workload: str, seed: int, mode: str, seconds: float = 0.0, spans_out=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", repr(seconds)]
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {workload}/{mode} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def environment(workload: str, seed: int) -> dict:
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "git_revision": rev or "unknown (not a git checkout)",
        "workload": workload,
        "seed": seed,
        "chain_order_k": CHAIN_ORDER if workload == "chain-n3-jet" else None,
        "closed_loop": "one caller, next case starts when the previous ends",
    }


def metric(value, unit, samples, statistic):
    return {"value": value, "unit": unit, "samples": samples, "statistic": statistic}


def untraced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics: full report and the result-line subset."""
    probes = [run_worker(workload, seed, "setup") for _ in range(SETUP_PROBES)]
    main = run_worker(workload, seed, "timed", seconds)
    setups = [(p["setup_s"], p["setup_kernel_s"]) for p in probes + [main]]
    executions = main["cases"]
    walls = [c[1] for c in executions]
    cpus = [c[2] for c in executions]
    kernels = [c[5] for c in executions]
    n = len(walls)
    distinct = main["distinct_cases"]
    ratios = stats.by_case(executions, distinct, lambda c: c[1] / c[5])
    ref = calibrate.REFERENCE_S
    full = {
        "setup_s": metric(
            statistics.median(s / b for s, b in setups) * ref, "s", len(setups),
            "median over fresh processes of set-up time over the calibration kernel "
            "time after it, times the reference kernel time"),
        "case_ref_s": metric(
            stats.geometric_mean([statistics.median(r) for r in ratios]) * ref, "s", n,
            f"geometric mean over {distinct} distinct cases of the median over "
            "repetitions of case time over the calibration kernel time around it, "
            "times the reference kernel time"),
        "peak_rss_mb": metric(main["peak_rss_mb"], "MB", 1, "ru_maxrss of the workload process"),
        "setup_wall_s": metric(statistics.median(s for s, _ in setups), "s", len(setups),
                               "median over fresh processes, not calibrated"),
        "case_gmean_s": metric(stats.geometric_mean(walls), "s", n, "geometric mean over cases"),
        "case_cpu_gmean_s": metric(stats.geometric_mean(cpus), "s", n, "geometric mean over cases"),
        "case_p50_s": metric(stats.percentile(walls, 50), "s", n, "p50 over cases"),
        "wall_s": metric(main["timed_wall_s"], "s", 1, "timed phase, calibration included"),
        "cpu_s": metric(main["timed_cpu_s"], "s", 1, "timed phase, process CPU"),
        "kernel_s": metric(statistics.median(main["kernel_samples"]), "s",
                           len(main["kernel_samples"]),
                           f"median calibration kernel time; {ref} s on the reference host"),
        "fail_share": metric(stats.fail_share(main["failed"], main["attempted"]), "ratio", n,
                             "failed / attempted"),
    }
    tail = stats.tail_percentile(n)
    if tail is not None:
        full[f"case_p{tail}_s"] = metric(stats.percentile(walls, tail), "s", n, f"p{tail} over cases")
    else:
        full["case_p95_s"] = {"absent": f"{n} cases leave fewer than {stats.MIN_TAIL_SAMPLES} beyond p75"}
    line = {k: {"value": full[k]["value"], "unit": full[k]["unit"]} for k in LINE_METRICS}
    report = {"attempted": main["attempted"], "failed": main["failed"],
              "errors": main["errors"], "digest": main["digest"], "metrics": full,
              "setup_samples": setups, "labels": main["labels"],
              "cases": [[c[0], c[1], c[2], c[5]] for c in executions]}
    return report, line


def traced(workload: str, seed: int, spans_out) -> tuple[dict, dict]:
    """Per-layer metrics from a traced pass over the workload's cases, next
    to an untraced pass for the overhead and an output check."""
    plain = run_worker(workload, seed, "fixed")
    trace = run_worker(workload, seed, "traced", spans_out=spans_out)
    # a case fails if either run failed it or their outputs differ
    failed = sum(1 for a, b in zip(plain["cases"], trace["cases"])
                 if not (a[3] and b[3] and a[4] == b[4]))
    report = {
        "attempted": trace["attempted"], "failed": failed,
        "errors": plain["errors"] + trace["errors"],
        "outputs_match_untraced": trace["digest"] == plain["digest"],
        "untraced_wall_s": plain["timed_wall_s"],
        "traced_wall_s": trace["timed_wall_s"],
        "overhead_s": trace["timed_wall_s"] - plain["timed_wall_s"],
        "spans": trace["spans"], "spans_file": str(spans_out),
        "layer_metrics": trace["layer_metrics"], "per_layer": trace["per_layer"],
        "calls": trace["calls"], "installed": trace["installed"],
    }
    if not report["outputs_match_untraced"]:
        report["errors"].append("traced outputs differ from untraced outputs")
    line = {k: {"value": v["value"], "unit": v["unit"]} for k, v in trace["per_layer"].items()}
    return report, line


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    OUT.mkdir(exist_ok=True)
    if trace:
        report, line = traced(workload, seed, OUT / f"spans-{workload}.bin.gz")
    else:
        report, line = untraced(workload, seed, seconds)
    report["environment"] = environment(workload, seed)
    report["trace"] = trace
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": line,
    }
    return report, result


def print_report(report: dict) -> None:
    env = report["environment"]
    print(f"# {env['workload']} seed={env['seed']} trace={int(report['trace'])} "
          f"python={env['python']} nproc={env['nproc']} rev={env['git_revision']}"
          + (f" k={env['chain_order_k']}" if env["chain_order_k"] else ""))
    print(f"#   cases attempted={report['attempted']} failed={report['failed']}")
    for err in report["errors"]:
        print(f"#   FAILED {err}")
    if not report["trace"]:
        for name, m in report["metrics"].items():
            if "absent" in m:
                print(f"#   {name:18s} absent: {m['absent']}")
            else:
                print(f"#   {name:18s} {m['value']:.6g} {m['unit']}  (n={m['samples']}, {m['statistic']})")
        return
    print(f"#   tracing overhead {report['overhead_s']:.3f} s "
          f"(traced {report['traced_wall_s']:.3f} s - untraced {report['untraced_wall_s']:.3f} s); "
          f"outputs match untraced: {report['outputs_match_untraced']}")
    for name, m in report["layer_metrics"].items():
        if "absent" in m:
            print(f"#   {name:42s} absent: {m['absent']}")
        else:
            base = f"  (base {m['base']})" if "base" in m else ""
            print(f"#   {name:42s} {m['value']:.6g} {m['unit']}{base}")


def selfcheck(seed: int) -> int:
    """Two traced runs per workload give identical counts, traced outputs
    equal untraced ones, and every boundary a metric names is reached on the
    workload that metric is meant to move."""
    problems = []
    results = {}
    for name in WORKLOADS:
        first = run_worker(name, seed, "traced")
        second = run_worker(name, seed, "traced")
        plain = run_worker(name, seed, "fixed")
        results[name] = first
        if first["calls"] != second["calls"] or first["errors_by_layer"] != second["errors_by_layer"]:
            diff = sorted(k for k in set(first["calls"]) | set(second["calls"])
                          if first["calls"].get(k) != second["calls"].get(k))
            problems.append(f"{name}: counts differ between two traced runs: {diff[:10]}")
        if first["digest"] != plain["digest"]:
            problems.append(f"{name}: traced outputs differ from untraced outputs")
        if first["failed"] or plain["failed"]:
            problems.append(f"{name}: failed cases {first['errors'] + plain['errors']}")
        print(f"# {name}: {first['spans']} spans, counts repeat: "
              f"{first['calls'] == second['calls']}, outputs match: {first['digest'] == plain['digest']}")
    for metric_name, unit, workload in SPEC:
        if workload is None:
            continue
        entry = results[workload]["layer_metrics"][metric_name]
        if "absent" in entry or (unit == "count" and entry["value"] == 0):
            problems.append(f"{metric_name} is not reached on {workload}: {entry}")
    reached = set()
    for res in results.values():
        reached |= {k for k, v in res["calls"].items() if v}
    never = sorted(set(results["verify-all"]["installed"]) - reached)
    print(f"# {len(never)} wrapped boundaries are reached by no workload "
          f"(API the workloads do not use): {', '.join(never)}")
    for p in problems:
        print(f"# SELFCHECK FAILED: {p}")
    print(f"# selfcheck {'passed' if not problems else 'failed'}: "
          f"{len(SPEC)} metrics, {len(PER_LAYER)} in the result line")
    return 0 if not problems else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true", help="run every workload in turn")
    ap.add_argument("--selfcheck", action="store_true", help="check the traced run itself")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "germcalc" / "__init__.py").is_file():
        print(f"run.py: no germcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck(args.seed)
    if args.all:
        names = list(WORKLOADS)
    elif args.workload:
        names = [args.workload]
    else:
        ap.error("give --workload, --all or --selfcheck")
    status = 0
    for name in names:
        report, result = run_one(name, args.seed, args.seconds, bool(args.trace))
        print_report(report)
        print(json.dumps(result))
        sys.stdout.flush()
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
