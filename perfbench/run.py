"""Whole-run packet-hop benchmark of the mesh-routing simulator.

Run from the repository root:

    python3 perfbench/run.py --workload perm-array-n512 --seed 0 --seconds 40
    python3 perfbench/run.py --workload stream-array-n64 --trace 1
    python3 perfbench/run.py --workload all        # each in its own process

One workload per process.  After an untimed warm-up on a 16x16 mesh, whole
runs repeat while another one fits in ``--seconds``; every run builds its own
topology, router, workload and simulator and has its output checked.  Runs
are timed in CPU seconds of this process and scaled to the reference host
speed by the calibration kernel timed before and after each run
(``calibrate.py``).  With ``--trace 0`` the end-to-end metrics of
BENCHMARK.json are reported (timings are medians over the runs of the
scaled times); with ``--trace 1`` traced and untraced
runs alternate, the per-layer metrics of the median traced run are
reported, and the spans are written to ``perfbench/out/``.  A human-readable
report goes to stderr; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when any run's output check failed and 2 when the program under test is
missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT_DIR = HERE.parent
SRC = ROOT_DIR / "src"
SPEC = ROOT_DIR / "BENCHMARK.json"
FINGERPRINTS = HERE / "fingerprints.json"
SPANS_DIR = HERE / "out"


def _say(*parts: object) -> None:
    print(*parts, file=sys.stderr, flush=True)


def _reset_peak_rss() -> None:
    """Restart the kernel's peak-resident-memory mark (Linux ``VmHWM``)."""
    Path("/proc/self/clear_refs").write_text("5")


def _peak_rss_mb() -> float:
    """Peak resident memory since the last reset, in MB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _check(run, expected, first) -> list[str]:
    """The run's output check plus any fingerprint mismatch.

    ``expected`` is the stored fingerprint for this (workload, seed), or
    None; without one, every run must reproduce the first run's outputs.
    """
    problems = run.check()
    reference = expected if expected is not None else first
    if reference is not None and run.fingerprint != reference:
        source = "stored" if expected is not None else "first run's"
        problems.append(
            f"fingerprint {run.fingerprint} differs from the {source} {reference}"
        )
    return problems


def _setup_sample(workload, seed: int, own: float) -> float:
    """Mean CPU seconds of one setup over the run's own and a timed batch of
    setup-only repeats (``workload.setups_per_sample`` setups in all)."""
    t0 = process_time()
    for _ in range(workload.setups_per_sample - 1):
        workload.setup(seed)
    return (own + process_time() - t0) / workload.setups_per_sample


def _measure(name: str, seed: int, seconds: float, trace: bool, expected):
    """Warm up, then repeat whole runs for ``seconds``; returns the report."""
    from calibrate import REFERENCE_S, calibration_s
    from spans import NullTracer, Tracer, layer_metrics, trace_problems
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    untraced = NullTracer()
    workload.run(seed, untraced, small=True)

    tracer = Tracer() if trace else None
    runs, setups, traced, layers = [], [], [], []
    # Host speed during each run relative to the reference host (untraced
    # mode only): the reference kernel time over the mean of the kernel's
    # times just before the run and just after it (and its setup_s sample).
    # The first run has only the one after, so that the memory the kernel
    # frees is not in the run's peak.
    calibrations, scales = [], []
    peak_rss = 0.0
    failures = 0
    first = None

    def checked(kind: str, run, extra: list[str] = (), scale: float | None = None) -> None:
        nonlocal failures, first
        problems = _check(run, expected, first) + list(extra)
        run.check = None  # release the simulator the check held
        first = first or run.fingerprint
        failures += bool(problems)
        _say(
            f"  {kind} run: {run.run_s:.3f} s whole, {run.setup_s:.4f} s "
            f"setup, {run.moves} moves, {run.moves / run.run_s / 1e6:.4f} M moves/s"
            + (f", host at {scale:.3f}x reference speed" if scale else "")
            + "".join(f"\n    FAIL {p}" for p in problems)
        )

    # Start another run only if one more, at the mean pace so far, still
    # fits in ``seconds``: a run takes 5-15 s, so overrunning would make
    # the process's total time depend on the workload.
    start = perf_counter()
    while not runs or (perf_counter() - start) * (len(runs) + 1) / len(runs) <= seconds:
        gc.collect()
        # Peak memory of the first run only, as a fresh process pays it:
        # later runs start on heap the allocator kept from earlier ones.
        if not runs:
            _reset_peak_rss()
        runs.append(workload.run(seed, untraced))
        if len(runs) == 1:
            peak_rss = _peak_rss_mb()
        if tracer is None:
            setups.append(_setup_sample(workload, seed, runs[-1].setup_s))
            calibrations.append(calibration_s())
            scales.append(REFERENCE_S / statistics.mean(calibrations[-2:]))
        checked("untraced", runs[-1], scale=scales[-1] if tracer is None else None)
        if tracer is not None:
            gc.collect()
            tracer.run_id = len(traced)
            traced.append(workload.run(seed, tracer))
            spans = tracer.run_spans(tracer.run_id)
            layers.append(layer_metrics(tracer, spans, traced[-1].counts))
            problems = trace_problems(tracer, spans)
            tracer.sims.clear()
            checked("traced", traced[-1], problems)

    attempted = len(runs) + len(traced)
    _say(f"  fingerprint (seed {seed}): {json.dumps(first, sort_keys=True)}")
    _say(f"  error_rate: {failures / attempted:.4f} ({failures}/{attempted} runs)")
    if tracer is None:
        metrics = {
            "moves_per_s": statistics.median(
                r.moves / (r.run_s * k) for r, k in zip(runs, scales)
            ),
            "setup_s": statistics.median(x * k for x, k in zip(setups, scales)),
            "peak_rss_mb": peak_rss,
        }
        _say(
            "  unscaled: moves_per_s "
            f"{statistics.median(r.moves / r.run_s for r in runs):.6g}, "
            f"setup_s {statistics.median(setups):.6g}"
        )
    else:
        order = sorted(range(len(layers)), key=lambda i: layers[i]["trace.wall_s"])
        metrics = layers[order[(len(order) - 1) // 2]]
        metrics["trace.overhead_frac"] = (
            statistics.median(r.run_s for r in traced)
            / statistics.median(r.run_s for r in runs)
            - 1
        )
        path = SPANS_DIR / f"spans-{name}-seed{seed}.npz"
        tracer.write(path)
        _say(f"  {len(tracer.start)} spans written to {path.relative_to(ROOT_DIR)}")
    return attempted, failures, metrics


def _result_line(spec: dict, metrics: dict, trace: bool) -> dict:
    """The metrics of BENCHMARK.json's trace-mode list, with their units.

    A layer the workload never reaches reports 0; a computed metric the
    spec does not list is an error, so the two cannot drift apart.
    """
    listed = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in listed}
    extra = sorted(set(metrics) - names)
    if extra:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {extra}")
    return {
        m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in listed
    }


def _run_all(spec: dict, args: argparse.Namespace) -> int:
    """Run every workload in its own process, one at a time; print a table."""
    status = 0
    rows = []
    for workload in spec["workloads"]:
        name = workload["name"]
        _say(f"== {name}")
        proc = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            status = 1
        if not lines:
            rows.append((name, "-", "no result", ""))
            continue
        result = json.loads(lines[-1])
        for metric, value in result["metrics"].items():
            rows.append((name, metric, f"{value['value']:.6g}", value["unit"]))
        rows.append(
            (name, "error_rate", f"{result['failed'] / result['attempted']:.4f}", "ratio")
        )
    width = max(len(r[1]) for r in rows)
    for name, metric, value, unit in rows:
        print(f"{name:20} {metric:{width}} {value:>14} {unit}")
    return status


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        _say(f"error: the program under test is missing ({SRC / 'repro'})")
        return 2
    # The benchmark is single-threaded; set before numpy is imported.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.workload == "all":
        return _run_all(spec, args)
    sys.path.insert(0, str(SRC))

    stored = json.loads(FINGERPRINTS.read_text()).get(args.workload, {})
    expected = stored.get(str(args.seed))
    _say(
        f"{args.workload} seed {args.seed}, {args.seconds:g} s, trace {args.trace}"
        f" ({'stored fingerprint' if expected else 'no stored fingerprint'})"
    )
    attempted, failed, metrics = _measure(
        args.workload, args.seed, args.seconds, bool(args.trace), expected
    )
    line = _result_line(spec, metrics, bool(args.trace))
    for name, value in line.items():
        _say(f"  {name:36} {value['value']:>16.6g} {value['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": line,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
