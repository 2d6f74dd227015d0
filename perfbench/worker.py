"""One workload process: set up, run cases closed-loop, check every output,
and print one JSON result line.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE [--seconds S]

Modes:
  setup   import germcalc and generate the inputs, then stop;
  timed   run the workload's cases in passes, closed-loop, until --seconds
          have passed; the first pass always completes, and a case is not
          started when its previous time would overrun --seconds.  The
          calibration kernel (calibrate.py) is sampled meanwhile;
  fixed   run one pass, untraced;
  traced  run one pass with every layer boundary wrapped.

run.py starts this script in a fresh interpreter for every measurement.
"""

import sys
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def import_program():
    """Import germcalc from this checkout's src/, never from elsewhere."""
    if not (SRC / "germcalc" / "__init__.py").is_file():
        raise SystemExit(f"worker: no germcalc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import germcalc

    if Path(germcalc.__file__).resolve().parent != (SRC / "germcalc").resolve():
        raise SystemExit(f"worker: imported germcalc from {germcalc.__file__}, not {SRC}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "fixed", "traced"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    tracer = installed = None
    if args.mode == "traced":
        import layers
        from tracing import Tracer

        tracer = Tracer()
        installed = layers.install(tracer)
    inputs = wl.setup(args.seed)
    setup_s = time.perf_counter() - T0
    result = {"workload": wl.name, "seed": args.seed, "mode": args.mode, "setup_s": setup_s}
    if args.mode == "setup":
        result["setup_kernel_s"] = calibrate.measure()
        print(json.dumps(result))
        return 0

    expected = wl.expected(args.seed)
    pass_cases = wl.cases(inputs)
    one_pass = args.mode in ("fixed", "traced")
    # Timed runs sample the calibration kernel while the cases run; sample
    # time is taken out of the case it interrupted.
    result["setup_kernel_s"] = calibrate.measure()
    sampler = calibrate.Sampler(None if one_pass else calibrate.SAMPLE_EVERY_S)
    cases = []  # [case index, wall_s, cpu_s, ok, output digest, start, end]
    last_wall = {}
    errors = []
    digest = hashlib.sha256()
    with sampler:
        t_start = time.perf_counter()
        c_start = time.process_time()
        i = 0
        while True:
            j = i % len(pass_cases)
            if i >= len(pass_cases):  # the first pass always completes
                if one_pass or time.perf_counter() - t_start + last_wall[j] > args.seconds:
                    break
            label, payload = pass_cases[j]
            if tracer is not None:
                tracer.case = i
                tracer.active = True
            # read the clocks outside the sample counter, so that only
            # samples taken inside [w0, w1] are taken out of the case
            w0 = time.perf_counter()
            c0 = time.process_time()
            spent, spent_cpu = sampler.spent, sampler.spent_cpu
            try:
                output = wl.run(payload)
                failure = None
            except Exception as exc:  # a failed case is counted, not fatal
                output, failure = None, f"{label}: {exc!r}"
            spent = sampler.spent - spent
            spent_cpu = sampler.spent_cpu - spent_cpu
            c1 = time.process_time()
            w1 = time.perf_counter()
            if tracer is not None:
                tracer.active = False
            if failure is None and not wl.check(payload, output, expected):
                failure = f"{label}: output differs from the reference"
            case_digest = ""
            if failure is None:
                case_digest = hashlib.sha256(wl.digest(output).encode()).hexdigest()[:16]
            else:
                errors.append(failure)
            digest.update(case_digest.encode() + b"\0")
            cases.append([j, w1 - w0 - spent, c1 - c0 - spent_cpu, failure is None, case_digest, w0, w1])
            last_wall[j] = w1 - w0
            i += 1
        timed_wall_s = time.perf_counter() - t_start
        timed_cpu_s = time.process_time() - c_start
    if not one_pass and not sampler.took:  # a run shorter than one period
        sampler.sample()
    # replace each case's [start, end] by its calibration, the mean kernel
    # time around it; untimed passes have none
    for case in cases:
        end = case.pop()
        case[5] = None if one_pass else sampler.around(case[5], end)
    result["kernel_samples"] = sampler.took
    result.update(
        timed_wall_s=timed_wall_s,
        timed_cpu_s=timed_cpu_s,
        distinct_cases=len(pass_cases),
        labels=[label for label, _ in pass_cases],
        cases=cases,
        attempted=len(cases),
        failed=sum(1 for c in cases if not c[3]),
        errors=errors[:10],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        digest=digest.hexdigest(),
    )
    if tracer is not None:
        import layers

        summary, calls, table = layers.summarize(tracer)
        result.update(
            layer_metrics=summary,
            per_layer=layers.per_layer(summary, table, calls),
            calls=calls,
            errors_by_layer=dict(tracer.errors),
            spans=len(table),
            installed=installed,
        )
        if args.spans_out:
            tracer.dump(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
