"""h2mpc benchmark: closed-loop day cost, steady-state days, log post-processing.

    python3 bench/run.py --workload compare-day --seed 20220101 --seconds 40 --trace 0

Run from the root of a source checkout; it imports the package from
``src/`` and builds nothing. Workloads (see ``BENCHMARK.json`` for why each
exists):

  compare-day  rollout.compare of hf-ms, hf-ss, lf-ms and co over the strip's
               second day, each log written with TrajectoryLog.to_csv
  hfms-days    hf-ms closed loop over two consecutive days
  log-analyze  write a 90-day synthetic hf-ms log that replays the days of
               a real one (``reference_hfms.csv``), then `h2mpc analyze`
               it for lcoh, kde and cumcost

The seed drives the price strips (``tools/make_sample_prices.py``) and the
synthetic log; the default seed reproduces ``data/`` byte for byte, which
the run checks. A run repeats whole units of its workload while another
unit still fits in ``--seconds`` (at least one) and reports medians. On
a 2-core x86 host a compare-day unit takes about 30 s, so at 40 s a
compare-day run measures one unit; an hfms-days unit takes about 18 s
(two per run) and a log-analyze unit about 6 s.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` the run does one untraced unit, then one traced unit,
and reports the per-layer metrics plus the tracing overhead (traced minus
untraced wall time). Outputs, spans and a report with provenance and
fingerprints go to ``.bench_out/``. A fingerprint (CSV sha256s, exact
iteration counts) that differs from an earlier run of the same source and
seed is reported as an error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
WORKLOAD_NAMES = ("compare-day", "hfms-days", "log-analyze")


def _setup_seconds(workload: str, seed: int, run_dir: Path) -> list[float]:
    """Time the set-up in fresh interpreters, so the package import counts."""
    times = []
    for i in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH / "inputs.py"), "--workload", workload,
             "--seed", str(seed), "--work", str(run_dir / f"probe{i}")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def _source_digest() -> str:
    """Digest of what the outputs depend on: the package, the price tool,
    the benchmark with its reference log, and the numpy and scipy versions."""
    import numpy
    import scipy

    h = hashlib.sha256(f"numpy {numpy.__version__} scipy {scipy.__version__}\0".encode())
    sources = [*(ROOT / "src").rglob("*.py"), ROOT / "tools" / "make_sample_prices.py",
               *BENCH.glob("*.py"), inputs.REFERENCE_LOG]
    for path in sorted(sources):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def _check_fingerprint(key: str, fingerprint: dict) -> list[str]:
    """Compare with earlier runs of the same source and seed, then record."""
    store = OUT / "fingerprints.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    earlier = known.get(key, {})
    errors = [f"fingerprint {name} differs from an earlier run: {earlier[name]!r} -> {value!r}"
              for name, value in fingerprint.items() if name in earlier and earlier[name] != value]
    known[key] = {**earlier, **fingerprint}
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(store)
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "h2mpc" / "__init__.py", ROOT / "tools" / "make_sample_prices.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a source checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    # the serial compare the workloads are defined on
    os.environ.pop("H2MPC_THREADS", None)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    setup_times = _setup_seconds(args.workload, args.seed, run_dir)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    unit = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer()
    tracing.install(tracer, full=bool(args.trace))
    inp = inputs.setup(args.workload, args.seed, run_dir / "inputs")
    errors: list[str] = []
    if inp.strips_match_data is False:
        errors.append("default-seed strips differ from data/houston_jan2022_*.csv")

    results = []
    if args.trace:
        # one untraced unit to measure the tracing overhead against
        tracer.restore()
        clock_only = tracing.Tracer()
        tracing.install(clock_only, full=False)
        (run_dir / "untraced").mkdir()
        results.append(unit(inp, clock_only, run_dir / "untraced"))
        clock_only.restore()
        tracing.install(tracer, full=True)
        (run_dir / "traced").mkdir()
        results.append(unit(inp, tracer, run_dir / "traced"))
    else:
        start = time.perf_counter()
        while True:
            unit_dir = run_dir / f"unit{len(results)}"
            unit_dir.mkdir()
            results.append(unit(inp, tracer, unit_dir))
            elapsed = time.perf_counter() - start
            if elapsed + results[-1].wall_s > args.seconds:
                break
    tracer.restore()

    # in a traced run the untraced unit alone gives the wall-clock details
    timed = results[:1] if args.trace else results
    for res in results:
        errors += res.errors
    if any(res.fingerprint != results[0].fingerprint for res in results[1:]):
        errors.append("units of one run wrote different outputs")
    fingerprint = dict(results[0].fingerprint)
    attempted = sum(res.attempted for res in results)
    failed = sum(res.failed for res in results)

    self_s = None
    if args.trace:
        metrics, self_s, nested_ok = tracing.layer_metrics(tracer.spans, tracer.counts)
        if not nested_ok:
            errors.append("a child span outlasts its parent")
        fingerprint["iterations_all"] = metrics["solver.iterations"]
        for name in ("splu_calls", "res_calls", "jac_calls"):
            layer = "solver" if name == "splu_calls" else "ocp"
            fingerprint[f"{layer}.{name}"] = metrics[f"{layer}.{name}"]
        metrics["trace.spans"] = len(tracer.spans)
        metrics["trace.overhead_s"] = results[1].wall_s - results[0].wall_s
        metric_units = {name: tracing.unit_of(name) for name in metrics}
        tracer.dump(run_dir / "spans.json")
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median([res.wall_s for res in results]),
            "ok_share": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metric_units = {"setup_s": "s", "wall_s": "s", "ok_share": "ratio", "peak_rss_mb": "MB"}

    key = f"{_source_digest()}|{args.workload}|{args.seed}"
    errors += _check_fingerprint(key, fingerprint)

    import numpy
    import scipy

    days, rows = workloads.SIZES[args.workload]
    detail_keys = sorted({k for res in timed for k in res.detail})
    report = {
        "provenance": {
            "commit": _commit(),
            "source_sha256": key.split("|")[0],
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "days_per_unit": days,
            "rows_per_unit": rows,
            "units": len(results),
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted,
            "strips_match_data": inp.strips_match_data,
        },
        "setup_probes_s": setup_times,
        "detail_median_s": {k: statistics.median([res.detail[k] for res in timed if k in res.detail])
                            for k in detail_keys},
        "self_s_by_span": self_s,
        "fingerprint": fingerprint,
        "errors": errors,
        "failures": [f for res in results for f in res.failures],
    }
    (run_dir / "report.json").write_text(json.dumps(report, indent=1))
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    for failure in sorted(set(report["failures"])):
        print(f"failed op: {failure}", file=sys.stderr)
    for name, value in report["detail_median_s"].items():
        print(f"{name:28s} {value:12.6f} s")
    print(f"{'failed_share':28s} {failed}/{attempted}")
    print(json.dumps(report["provenance"]))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": metric_units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
