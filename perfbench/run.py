"""End-to-end benchmark of the CogSys reproduction's user paths.

Run from the repository root::

    python3 perfbench/run.py --workload serve_presets --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table each

One process, one caller: after set-up the workload's op runs back to back
(a closed loop) for ``--seconds``.  Set-up and every op are timed with the
host-speed probe of ``perfbench/probe.py``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced ops and
reports the per-layer metrics of the traced ones, writing every span to
``perfbench/out/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md``.
"""

import time

_START = time.perf_counter()

from probe import HostProbe  # noqa: E402

# The set-up clock runs from here: imports, then each set-up repetition.
PROBE = HostProbe()
PROBE.start(_START)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
WORKLOADS = ("serve_presets", "trace_replay", "dse_cold")
DEFAULT_SEED = 0
#: set-up repetitions per run; setup_s reports their median
SETUP_REPS = 3

#: end-to-end metrics: name -> unit; every time is scaled to the probe's
#: reference host speed
END_TO_END = {
    "setup_s": "s",
    "op_p50_ref_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--update-expected", action="store_true",
        help="store this run's simulated outputs as the default seed's "
        "expected outputs",
    )
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Run every workload in its own process and pass its output through."""
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)],
            check=False,
        )
        status = status or child.returncode
    return status


def _canonical(outputs):
    """Outputs as they round-trip through JSON (tuples become lists)."""
    return json.loads(json.dumps(outputs))


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bench(args, work: Path) -> dict:
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {ROOT / 'src'}")
    from ops import WORKLOAD_CLASSES
    from spans import LAYER_METRICS, Tracer, median_metrics

    import_s = PROBE.stop()
    import_raw_s = PROBE.elapsed_s
    workload = WORKLOAD_CLASSES[args.workload](args.seed, work)
    tracer = Tracer()
    errors: list[str] = []

    # Set-up, repeated from scratch; the last repetition serves the ops.
    # The serving workloads end set-up with one untimed warm-up op, which
    # fills the service tables and gives the untraced reference outputs.
    setup_times, setup_raw, setup_layers, reference = [], [], [], None
    for _ in range(SETUP_REPS):
        with PROBE:
            setup_layers.append(workload.setup())
            if workload.warm:
                reference = _canonical(workload.outputs(workload.op(tracer)))
        setup_times.append(PROBE.scaled_s)
        setup_raw.append(PROBE.elapsed_s)
    setup_s = import_s + statistics.median(setup_times)
    table_before = workload.table_size()

    times, layer_rows = [], []
    #: op times scaled to the reference host speed: untraced, traced
    scaled = {False: [], True: []}
    failed = 0
    loop_start = time.perf_counter()
    while True:
        done = bool(times) and time.perf_counter() - loop_start >= args.seconds
        if done and (not args.trace or all(scaled.values())):
            break
        op_id = len(times)
        traced = bool(args.trace) and op_id % 2 == 1
        try:
            with PROBE:
                if traced:
                    with tracer.op(op_id):
                        raw = workload.op(tracer)
                else:
                    raw = workload.op(tracer)
            outputs = _canonical(workload.outputs(raw))
            del raw
            if reference is None:
                reference = outputs
            problem = None if outputs == reference else "outputs differ from the reference op"
        except Exception as exc:  # an op that raises counts as failed
            problem = f"raised {exc!r}"
        times.append(PROBE.elapsed_s)
        scaled[traced].append(PROBE.scaled_s)
        if traced:
            layer_rows.append(tracer.op_metrics(op_id))
        if problem:
            failed += 1
            errors.append(f"op {op_id}: {problem}")

    # Correctness of the reference outputs: invariants for any seed, the
    # stored expected outputs for the default seed.
    if reference is not None:
        reference_errors = workload.check(reference)
        if args.seed == DEFAULT_SEED and not args.update_expected:
            expected = json.loads(EXPECTED.read_text())
            if expected.get(workload.name) != reference:
                reference_errors.append("outputs differ from expected.json")
        if reference_errors:
            errors += reference_errors
            failed = len(times)
    if workload.table_size() != table_before:
        errors.append("service tables grew inside timed ops")
        failed = len(times)
    items = workload.items(reference) if reference is not None else 0

    if args.trace:
        layers = median_metrics(layer_rows)
        layers["trace.record_s"] = statistics.median(
            row.get("trace.record_s", 0.0) for row in setup_layers
        )
        layers["tracing.overhead_x"] = (
            statistics.median(scaled[True]) / statistics.median(scaled[False])
        )
        # Warm ops must never miss the service tables; a cold op must miss
        # exactly once per report it produces.
        misses = [row["backends.misses"] for row in layer_rows]
        if workload.warm and any(misses):
            errors.append(f"service-table misses inside warm ops: {misses}")
        if not workload.warm and any(count != items for count in misses):
            errors.append(f"cold ops missed {misses} times, not {items} each")
        units = LAYER_METRICS
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans: {spans_path.relative_to(ROOT)}")
        metrics = layers
    else:
        op_p50 = statistics.median(scaled[False])
        metrics = {
            "setup_s": setup_s,
            "op_p50_ref_s": op_p50,
            "work_per_s": items / op_p50,
            "peak_rss_mb": _peak_rss_mb(),
        }
        units = END_TO_END
    workload.close()

    if args.update_expected and reference is not None and not errors:
        stored = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
        stored[workload.name] = reference
        EXPECTED.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")

    print(f"workload {workload.name}  seed {args.seed}  ops {len(times)}  "
          f"failed {failed}  error_rate {failed / len(times):.4f}  "
          f"work/op {items}")
    for error in errors:
        print(f"  error: {error}")
    for name, value in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {units[name]}")
    if not args.trace:
        # Printed, not reported: the raw host times follow the host's speed,
        # and a run holds too few ops for a percentile with ten ops beyond it.
        raw = {
            "setup_raw_s": import_raw_s + statistics.median(setup_raw),
            "op_p50_raw_s": statistics.median(times),
            "op_max_raw_s": max(times),
        }
        for name, value in raw.items():
            print(f"  {name:<30} {value:>14.6g} s (host time, not reported)")
    return {
        "correct": not errors,
        "attempted": len(times),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.update_expected and args.seed != DEFAULT_SEED:
        print(f"error: --update-expected needs --seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    if args.workload == "all":
        PROBE.close()
        return run_all(args)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    # A terminated run unwinds normally, so the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    # Keep the result cache inside the run's scratch space so it never
    # serves an op and nothing is written outside the checkout.
    os.environ["REPRO_CACHE_DIR"] = str(work / "result-cache")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        result = bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        status = main()
    finally:
        # An armed timer would outlive the handler at interpreter exit.
        PROBE.close()
    sys.exit(status)
