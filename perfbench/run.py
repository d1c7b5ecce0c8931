"""jcsim benchmark: one workload, one seed, one closed-loop client.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 10 --trace 0

Runs the package from ``src/`` of the checkout the script sits in.  The
process caps BLAS threads at the number of usable cores, imports jcsim
and runs one untimed warm-up op, then issues the workload's ops through
``jcsim.cli.main(argv)``, the entry point of the ``jcsim`` script, each
one after the previous has returned.  It runs whole passes over the op
list, at least one and more while another pass fits in ``--seconds``,
and checks every op's output.  An op that raises, exits non-zero or
fails its check counts as failed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` first
measures untraced for ``--seconds``, then traced for ``--seconds``, and
prints the per-layer metrics (see ``spans.py``) and the tracing
overhead.  The last line of standard output is the result object; the
line before it is the run record (seed, environment, sample counts).
Run records and traced span dumps go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_blas_threads() -> int:
    """Cap BLAS threads at the core count; must run before numpy is imported."""
    cap = usable_cores()
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) < cap):
            os.environ[var] = str(cap)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def import_jcsim():
    """Import jcsim from this checkout's src/, never from an installed copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import jcsim.cli

    if not os.path.abspath(jcsim.cli.__file__).startswith(src + os.sep):
        raise ImportError(f"jcsim imported from {jcsim.cli.__file__}, not from {src}")
    return jcsim.cli


def environment(blas_threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": usable_cores(),
        "blas_threads": blas_threads,
        "machine": platform.machine(),
    }


class Client:
    """Issues ops one at a time through ``jcsim.cli.main`` and checks them."""

    def __init__(self, main, recorder=None):
        self.main = main
        self.recorder = recorder
        self.ops_started = 0

    def execute(self, op) -> tuple[float, str | None]:
        """Run one op; return (latency in s, failure reason or None)."""
        stdout, stderr = io.StringIO(), io.StringIO()
        rec = self.recorder
        self.ops_started += 1
        if rec is not None:
            rec.op = self.ops_started
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if rec is not None:
                    code = rec.call("cli", self.main, (op.argv,))
                else:
                    code = self.main(op.argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
        except Exception as exc:  # an op that raises counts as failed
            code = f"raised {type(exc).__name__}: {exc}"
        finally:
            latency = time.perf_counter() - start
            if rec is not None:
                rec.op = None
        if code != 0:
            return latency, f"{op.label}: exit {code} {stderr.getvalue().strip()[:200]}"
        if rec is not None and op.out is not None:
            rec.counts["cli.csv_bytes"] += os.path.getsize(op.out)
        try:
            op.check(stdout.getvalue())
        except Exception as exc:  # wrong, missing or unreadable output
            return latency, f"{op.label}: {type(exc).__name__}: {exc}"
        return latency, None

    def measure(self, ops, seconds: float) -> list[list[tuple[float, str | None]]]:
        """Whole passes over ``ops``: at least one, more while they fit in ``seconds``."""
        passes = []
        start = time.perf_counter()
        while not passes or (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
            passes.append([self.execute(op) for op in ops])
        return passes


def setup_times(warmup, count: int) -> list[float]:
    """Import-plus-warm-up time of fresh processes, as every CLI call pays it."""
    probe = os.path.join(HERE, "setup_probe.py")
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, probe, ROOT, *warmup.argv],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def summarize(passes, ops) -> dict:
    """Mean time per pass and the median over the op list of each op's mean latency.

    Means over a run's passes blend the fast and slow periods of a shared
    machine within the run, which keeps run-to-run spread down.
    """
    latencies = [latency for results in passes for latency, _ in results]
    failures = [reason for results in passes for _, reason in results if reason is not None]
    per_op = {op.label: [results[i][0] for results in passes] for i, op in enumerate(ops)}
    summary = {
        "passes": len(passes),
        "ops": len(latencies),
        "failed": len(failures),
        "fail_frac": len(failures) / len(latencies),
        "failures": failures[:5],
        "wall_s": sum(latencies) / len(passes),
        "latency_p50_s": statistics.median(statistics.fmean(v) for v in per_op.values()),
        "op_latency_s": per_op,
    }
    # Report p90 only where at least ten samples lie beyond it.
    p90 = _quantile(latencies, 0.9)
    if sum(latency > p90 for latency in latencies) >= 10:
        summary["latency_p90_s"] = p90
    return summary


def end_to_end(setup: list[float], summary: dict) -> dict:
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": summary["wall_s"], "unit": "s"},
        "latency_p50_s": {"value": summary["latency_p50_s"], "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,  # KiB on Linux
            "unit": "MB",
        },
    }


def run(args) -> dict:
    blas_threads = cap_blas_threads()
    cli = import_jcsim()
    import spans
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        client = Client(cli.main)
        warmup = workloads.warmup_op(args.seed, scratch)
        _, failure = client.execute(warmup)
        if failure is not None:
            raise RuntimeError(f"warm-up op failed: {failure}")
        ops = workloads.make_ops(args.workload, args.seed, scratch)
        # Set-up probes before and after the measurement, so that they sample the run's span.
        setup = [] if args.trace else setup_times(warmup, SETUP_PROBES // 2)
        untraced = summarize(client.measure(ops, args.seconds), ops)
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "ops_per_pass": len(ops), "closed_loop_clients": 1,
            "environment": environment(blas_threads), "untraced": untraced,
        }
        checked = untraced
        if args.trace:
            recorder = spans.Recorder()
            client = Client(cli.main, recorder)
            with spans.traced(recorder):
                traced = summarize(client.measure(ops, args.seconds), ops)
            layers = spans.layer_metrics(recorder, traced["passes"])
            layers["trace.overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1.0
            record["traced"] = traced
            record["span_dump"] = os.path.join(
                ".perfbench", f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
            spans.dump(recorder, os.path.join(ROOT, record["span_dump"]))
            metrics = {name: {"value": value, "unit": unit(name)} for name, value in layers.items()}
            checked = {key: untraced[key] + traced[key] for key in ("ops", "failed")}
        else:
            setup += setup_times(warmup, SETUP_PROBES - len(setup))
            record["setup_samples_s"] = setup
            metrics = end_to_end(setup, untraced)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record_path = os.path.join(
        OUT_DIR, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps(record))
    return {
        "correct": checked["failed"] == 0,
        "attempted": checked["ops"],
        "failed": checked["failed"],
        "metrics": metrics,
    }


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_bytes"):
        return "B"
    if metric.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("figures", "thermal", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except (ImportError, OSError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
