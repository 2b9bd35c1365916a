"""doclink's benchmark: one workload per run, closed loop, one process.

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --smoke --trace 1        # all workloads, tiny

A run sets up and runs a pass, back to back, each starting when the last
returned, for about ``--seconds`` and at least the workload's
``min_passes`` times; ``setup_s`` is the median set-up.
Each phase's calls in all passes are its samples, and the run reports
the fastest.  On a shared host the speed flips, second by second, between
a fast state and one up to 1.7 times slower: a run's median moved between
runs of the same code by more than the bounds allow, while its fastest
call, made in a fast moment, moved least.  The human-readable lines list
every sample and their median.
Every pass is checked; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then traced passes for ``--seconds``, and reports the
per-layer metrics; it prints the traced minus untraced end-to-end times
as the tracing overhead, checks that the training history is identical
with and without tracing, and writes the spans to
``.perfbench/trace-<workload>-seed<seed>.json``.

``--workload all`` runs the three in turn and prefixes each metric with
its workload; ``peak_rss_mb`` is then the process peak so far.
BENCHMARK.json declares train-small and pipeline; train-large runs only
by name or with ``all`` (see workloads.py).

doclink is imported from ``src/`` next to this directory, never from the
environment, so a checkout without the sources exits 2 with no result.
BLAS runs on one thread: the host is shared and noisy, and one thread
keeps runs steady and float results independent of the machine's width.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NAMES = ("train-small", "train-large", "pipeline")


def pin_blas() -> int:
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def import_doclink(root: Path):
    """doclink from ``root/src``, or None when the sources are not there."""
    src = root / "src"
    if not (src / "doclink" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import doclink

    if Path(doclink.__file__).resolve().parent != (src / "doclink").resolve():
        return None
    return doclink


def machine(threads: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": threads,
    }


def end_to_end(workload, passes, setup_seconds) -> dict:
    """{metric: (value, unit)} from untraced (or traced) passes.  A phase's
    time is its fastest call over all passes (see the module doc);
    ``pipeline_s`` is the sum of the four."""
    phase = {name: min(t for p in passes for t in p.seconds[name]) for name in passes[0].seconds}
    return {
        "setup_s": (median(setup_seconds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "train_docs_per_s": (workload.train_docs / phase["train"], "1/s"),
        "gen_s": (phase["gen"], "s"),
        "train_s": (phase["train"], "s"),
        "eval_s": (phase["eval"], "s"),
        "diagnose_s": (phase["diagnose"], "s"),
        "pipeline_s": (sum(phase.values()), "s"),
        "checkpoint_mb": (median([p.checkpoint_bytes for p in passes]) / 1e6, "MB"),
        "test_auc": (passes[0].test_auc, "ratio"),
    }


def declared_per_layer() -> list:
    try:
        with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
            return [m["name"] for m in json.load(fh)["per_layer"]]
    except (OSError, ValueError, KeyError):
        return []


class Run:
    """One workload's run: set-up, the closed loop of passes, checks."""

    def __init__(self, name, seed, seconds, trace, smoke, workdir, host):
        import tracing
        import workloads

        self.tracing = tracing
        self.workload = workloads.WORKLOADS[name](name, seed, smoke, workdir)
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.checks = {}
        self.setup_seconds = []
        self.untraced = []
        self.traced = []
        self.tracer = None
        self.host = host

    def _pass(self, tracer):
        w = self.workload
        if tracer is None:
            result, state = w.run_pass()
            w.check(result, state)
        else:
            with tracer.span(self.tracing.PASS):
                result, state = w.run_pass(tracer)
            with tracer.suspended():
                w.check(result, state)
        reference = (self.untraced or self.traced or [result])[0]
        result.checks["history_repeats"] = result.history == reference.history
        self.attempted += len(result.seconds) + len(result.checks)
        for check, passed in result.checks.items():
            self.checks[check] = self.checks.get(check, True) and passed
            self.failed += not passed
        return result

    def _setup(self) -> None:
        gc.collect()
        start = time.perf_counter()
        self.workload.setup()
        self.setup_seconds.append(time.perf_counter() - start)
        self.attempted += 1

    def _loop(self, into: list, tracer, min_passes: int) -> None:
        """Passes until at least ``min_passes`` are done and one more pass of
        the average length so far would end after ``--seconds``.  Untraced,
        each pass is preceded by a set-up."""
        start = time.perf_counter()
        while True:
            if tracer is None:
                self._setup()
            gc.collect()  # the last pass's garbage is not the next one's cost
            into.append(self._pass(tracer))
            elapsed = time.perf_counter() - start
            if len(into) >= min_passes and elapsed * (len(into) + 1) / len(into) > self.seconds:
                return

    def execute(self) -> None:
        if not self.trace:
            self._loop(self.untraced, None, self.workload.shape["min_passes"])
            return
        import doclink.tensor

        self._setup()
        self.untraced.append(self._pass(None))
        self.tracer = self.tracing.Tracer()
        self.tracer.install(doclink.tensor)
        try:
            self._loop(self.traced, self.tracer, 1)
        finally:
            self.tracer.uninstall()

    def report(self, out) -> dict:
        """Print the human-readable lines; return the metrics to emit."""
        e2e = end_to_end(self.workload, self.untraced, self.setup_seconds)
        print(f"[{self.name}] seed={self.seed} passes: untraced={len(self.untraced)} "
              f"traced={len(self.traced)}", file=out)
        if not self.trace:
            for name, (value, unit) in e2e.items():
                print(f"  {name} = {value:.6g} {unit}", file=out)
            for phase in self.untraced[0].seconds:
                samples = sorted(t for p in self.untraced for t in p.seconds[phase])
                print(f"  {phase} samples: n={len(samples)} median={median(samples):.4g} "
                      f"all: {' '.join(f'{t:.4g}' for t in samples)}", file=out)
            print(f"  setup samples: {' '.join(f'{t:.4g}' for t in self.setup_seconds)}",
                  file=out)
            return e2e
        traced = end_to_end(self.workload, self.traced, self.setup_seconds)
        print("  end-to-end, untraced -> traced (tracing overhead):", file=out)
        for name, (value, unit) in e2e.items():
            if unit == "s" and name != "setup_s":
                print(f"  {name} = {value:.6g} -> {traced[name][0]:.6g} {unit} "
                      f"({traced[name][0] - value:+.4g} {unit})", file=out)
        declared = declared_per_layer()
        ops = [m[len(self.tracing.NODE_PREFIX):] for m in declared
               if m.startswith(self.tracing.NODE_PREFIX)]
        metrics, samples = self.tracing.per_layer_metrics(self.tracer, ops)
        for name in sorted(metrics):
            value, unit = metrics[name]
            print(f"  {name} = {value:.6g} {unit}  (n={samples[name]})", file=out)
        absent = [m for m in declared if m not in metrics]
        print(f"  absent on this workload: {', '.join(absent) or 'none'}", file=out)
        extra = [m for m in metrics if declared and m not in declared]
        if extra:
            print(f"  measured but not declared: {', '.join(sorted(extra))}", file=out)
        if self.tracer.missing:
            print(f"  not wrapped (missing in doclink): {', '.join(self.tracer.missing)}",
                  file=out)
        self._breakdown(metrics, out)
        self._write_trace(metrics)
        return {m: v for m, v in metrics.items() if m in declared} if declared else metrics

    def _breakdown(self, metrics, out) -> None:
        step = metrics.get("trainer.step_ms_p50", (None,))[0]
        loss = metrics.get("objective.loss_ms", (None,))[0]
        backward = metrics.get("tensor.backward_ms", (None,))[0]
        if step and loss is not None and backward is not None:
            print(f"  breakdown: (objective.loss_ms + tensor.backward_ms) / step p50 = "
                  f"{(loss + backward) / step:.3f}; objective.loss_ms / step p50 = "
                  f"{loss / step:.3f}", file=out)
        share = self.tracing.objective_share(self.tracer.spans)
        if share is not None:
            print(f"  breakdown: objective spans / traced pass time = {share:.3f}", file=out)

    def _write_trace(self, metrics) -> None:
        spans = self.tracer.spans
        origin = spans[0][1] if spans else 0.0
        payload = {
            "workload": self.name,
            "seed": self.seed,
            "machine": self.host,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "graph_steps": [dict(g, ops=dict(g["ops"])) for g in self.tracer.steps],
            "spans": [
                [name, 1e3 * (start - origin), 1e3 * (end - origin), parent, meta]
                for name, start, end, parent, meta in spans
            ],
        }
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{self.name}-seed{self.seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; without --workload, runs all three")
    args = parser.parse_args(argv)
    if args.workload is None:
        if not args.smoke:
            parser.error("--workload is required unless --smoke is given")
        args.workload = "all"
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_blas()
    if import_doclink(ROOT) is None:
        print(f"error: no doclink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    host = machine(threads)
    print("machine: " + json.dumps(host), flush=True)

    names = NAMES if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        workdir = OUT / f"work-{name}-seed{args.seed}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=False)
        run = Run(name, args.seed, args.seconds, args.trace, args.smoke, str(workdir), host)
        try:
            run.execute()
            metrics = run.report(sys.stdout)
        except Exception:  # a failed operation is reported, not raised
            traceback.print_exc()
            run.failed += 1
            run.attempted += 1
            metrics = {}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        failed_checks = sorted(c for c, ok in run.checks.items() if not ok)
        print(f"[{name}] checks: {len(run.checks)} kinds, failed: "
              f"{', '.join(failed_checks) or 'none'}", flush=True)
        prefix = f"{name}/" if len(names) > 1 else ""
        result["metrics"].update(
            {prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
        result["attempted"] += run.attempted
        result["failed"] += run.failed
        result["correct"] = result["correct"] and run.failed == 0 and bool(metrics)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
