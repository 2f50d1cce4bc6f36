"""biaslab benchmark.

Run from the root of a checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

It imports biaslab from the checkout's ``src``, runs the workload's catalog
scenarios in a closed loop for S seconds, checks their outputs, and prints a
report line followed by the result line: a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the same units again with the
package's module boundaries timed and reports the per-layer metrics.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing.process
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

# One BLAS thread.  On a 2-vCPU shared machine OpenBLAS's second thread
# waits for the other vCPU, which swung catalog call latencies by up to 5x
# and made them slower on average.  Set before numpy is first imported;
# the cold-start probes and the pool workers inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

END_TO_END_UNITS = {
    "setup_s": "s", "reps_per_s": "1/s", "scenarios_per_s": "1/s",
    "scenario_ms_p50": "ms", "scenario_ms_p90": "ms", "peak_rss_mb": "MB",
}
SPAN_METRICS = {
    "rng.substream": "rng.substream_s",
    "rng.sample_indices": "rng.sample_indices_s",
    "data.select_rows": "data.select_rows_s",
    "mc.bind": "mc.bind_s",
    "scm.evaluate": "scm.evaluate_s",
    "regress.fit_ols": "regress.fit_ols_s",
    "regress.iterative": "regress.iterative_s",
    "causal.iv_wald": "causal.iv_wald_s",
    "measure.attenuation": "measure.attenuation_s",
    "mc.record": "mc.record_self_s",
    "mc.aggregate": "mc.aggregate_s",
    "mc.pool": "mc.pool_wall_s",
    "config.output_write": "config.output_write_s",
}
# counts worked out from inputs rather than counted at a boundary
COMPUTED_COUNTS = ("rng.normals_drawn", "regress.design_cells")
MEASURED_COUNTS = ("scm.rows_generated", "regress.fits", "regress.iterations",
                   "config.output_bytes", "mc.pickled_bytes")


# A fixed Python + numpy kernel that does not use biaslab.  The shared
# machines this runs on change speed by up to 1.8x over tens of seconds, for
# pure Python and numpy alike, so end-to-end times are scaled to a machine on
# which the kernel takes SPEED_REF_S, using the kernel's time just before and
# just after each measured unit.
SPEED_REF_S = 1.0e-3


def _speed_kernel() -> float:
    import numpy as np

    t0 = perf_counter()
    acc = 0
    for i in range(10000):
        acc += i * i
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(1000, 3))
    for _ in range(5):
        rng.normal(size=3000)
        np.linalg.qr(matrix)
    return perf_counter() - t0


def speed_probe() -> float:
    """Median of three kernel passes after one pass that warms the caches
    the preceding work evicted."""
    return statistics.median([_speed_kernel() for _ in range(4)][1:])


def speed_scale(before: float, after: float) -> float:
    return SPEED_REF_S / ((before + after) / 2)


def _pss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:  # the process has ended
        pass
    return 0


class TreeMemory:
    """Peak memory of this process and its pool workers.

    The peak is the larger of the process's own peak RSS and the largest sum
    of proportional set sizes (Pss) of the process and its live
    multiprocessing children, sampled every ``interval`` seconds on a
    thread.  Pss splits the pages that forked workers share with the parent,
    so a shared page counts once.
    """

    def __init__(self, interval: float = 0.01):
        self.sampled_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, args=(interval,), daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def _sample(self, interval: float) -> None:
        while not self._stop.wait(interval):
            pids = [os.getpid()] + [p.pid for p in list(multiprocessing.process._children)]
            self.sampled_kb = max(self.sampled_kb, sum(_pss_kb(pid) for pid in pids))

    def peak_mb(self) -> float:
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return max(own_kb, self.sampled_kb) / 1024.0


def metric_unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "ratio" if name in ("mc.parallel_efficiency", "trace.overhead") else "count"


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--reps", type=int, default=None,
                   help="replicates per MC scenario call (default: the workload's)")
    p.add_argument("--probes", type=int, default=7, help="cold starts measured for setup_s")
    return p.parse_args(argv)


def _import_package():
    if not (SRC / "biaslab" / "__init__.py").is_file():
        raise SystemExit(f"error: no biaslab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import biaslab

    if Path(biaslab.__file__).resolve().parent != SRC / "biaslab":
        raise SystemExit(f"error: imported biaslab from {biaslab.__file__}, not {SRC}")


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, args):
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise SystemExit(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
        self.args = args
        self.w = WORKLOADS[args.workload]
        self.reps = args.reps or self.w.reps
        self.fails: list[str] = []
        self.attempted = 0
        self.failed = 0
        OUT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{self.w.name}-", dir=OUT))

    # -- running units ----------------------------------------------------------

    def docs(self, j, reps=None):
        from workloads import unit_docs

        return unit_docs(self.w, self.args.seed, j, reps=(reps or self.reps) if self.w.is_mc else None)

    def run_unit(self, docs, out_dir: Path, workers=None, check=True) -> list[float]:
        """Run each scenario of a unit; returns the wall time of each call."""
        from biaslab.config import parse_config, run_scenario
        from workloads import attempted_failed, check_run

        walls = []
        for doc in docs:
            cfg = parse_config(doc)
            target = str(out_dir / cfg.id)
            t0 = perf_counter()
            run = run_scenario(cfg, out_dir=target, seed=cfg.seed, workers=workers or self.w.workers)
            walls.append(perf_counter() - t0)
            if check:
                self.fails += check_run(self.w, run)
                a, f = attempted_failed(self.w, run)
                self.attempted += a
                self.failed += f
        return walls

    def digests(self, docs, tag):
        from workloads import combined_digest, file_digests

        d = self.tmp / tag
        self.run_unit(docs, d, workers=1, check=False)
        out = combined_digest(file_digests(str(d)))
        shutil.rmtree(d)
        return out

    def seed_check(self) -> dict:
        """Same seed -> same output digest; another seed -> another digest."""
        small = min(self.reps, 20)
        a = self.digests(self.docs("seed-check", small), "seed-a")
        b = self.digests(self.docs("seed-check", small), "seed-b")
        c = self.digests(self.docs("seed-check-alt", small), "seed-c")
        if a != b:
            self.fails.append("seed check: the same seed gave different outputs")
        if a == c:
            self.fails.append("seed check: two seeds gave identical outputs")
        return {"same_seed_equal": a == b, "other_seed_differs": a != c}

    def serial_check(self, docs, pooled_dir: Path) -> bool:
        """Acceptance 10: the pooled call writes the same bytes as a serial call."""
        d = self.tmp / "serial"
        self.run_unit(docs, d, workers=1, check=False)
        fails = compare_outputs(pooled_dir, d, "serial call")
        shutil.rmtree(d)
        self.fails += fails
        return not fails

    def probe_setup(self) -> dict:
        """Cold starts: fresh interpreter -> biaslab.cli imported and configs parsed."""
        cfg_path = self.tmp / "probe-configs.json"
        cfg_path.write_text(json.dumps(self.docs(0)))
        walls, imports, parses = [], [], []
        speeds = [speed_probe()]
        for _ in range(self.args.probes):
            t0 = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "cold_start.py"), str(SRC), str(cfg_path)],
                stdout=subprocess.PIPE, text=True,
            )
            try:
                line = proc.stdout.readline()
                walls.append(perf_counter() - t0)
                proc.stdout.close()
                proc.wait(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            if proc.returncode != 0:
                raise SystemExit(f"error: cold-start probe exited with {proc.returncode}")
            speeds.append(speed_probe())
            rep = json.loads(line)
            imports.append(rep["import_s"])
            parses.append(rep["parse_s"])
        scales = [speed_scale(a, b) for a, b in zip(speeds, speeds[1:])]
        return {"setup_s": statistics.median(x * k for x, k in zip(walls, scales)),
                "raw_setup_s": statistics.median(walls),
                "cli.import_s": statistics.median(imports),
                "config.parse_s": statistics.median(parses)}

    # -- the two modes ------------------------------------------------------------

    def untraced(self) -> tuple[dict, dict]:
        import numpy as np
        from workloads import file_digests, output_bytes

        w = self.w
        docs0 = self.docs(0)
        unit0 = self.tmp / "unit-0"
        self.run_unit(docs0, unit0, check=False)  # warm-up; its outputs are the digests
        digests = file_digests(str(unit0))
        report = {"output_sha256": digests, "config.output_bytes": output_bytes(str(unit0))}

        # every timed unit writes over the previous unit's files, as repeated
        # runs into one --out directory do; creating and deleting thousands
        # of files per run made catalog latencies creep up run after run
        timed = self.tmp / "timed"
        raw_walls, scaled_walls, speeds = [], [], [speed_probe()]
        with TreeMemory() as memory:
            start = perf_counter()
            j = 1
            while j == 1 or perf_counter() - start < self.args.seconds:
                walls = self.run_unit(self.docs(j), timed)
                speeds.append(speed_probe())
                k = speed_scale(speeds[-2], speeds[-1])
                raw_walls.append(walls)
                scaled_walls.append([x * k for x in walls])
                j += 1

        report["seed_check"] = self.seed_check()
        if w.workers > 1:
            report["serial_equals_pool"] = self.serial_check(docs0, unit0)
        setup = self.probe_setup()
        work = self.reps if w.is_mc else sum(len(d.get("analyses", [])) for d in docs0)

        def timing(units, setup_s):
            per_unit = statistics.median(sum(u) for u in units)
            call_ms = [1e3 * x for u in units for x in u]
            return {
                "setup_s": setup_s,
                "reps_per_s": work / per_unit,
                "scenarios_per_s": len(docs0) / per_unit,
                "scenario_ms_p50": float(np.percentile(call_ms, 50)),
                "scenario_ms_p90": float(np.percentile(call_ms, 90)),
            }

        metrics = {**timing(scaled_walls, setup["setup_s"]), "peak_rss_mb": memory.peak_mb()}
        report["raw_metrics"] = timing(raw_walls, setup["raw_setup_s"])
        report["speed_probe_ms"] = 1e3 * statistics.median(speeds)
        report.update(units=len(raw_walls), scenario_calls=sum(len(u) for u in raw_walls),
                      cli_import_s=setup["cli.import_s"], config_parse_s=setup["config.parse_s"])
        return metrics, report

    def traced(self) -> tuple[dict, dict]:
        import tracing
        from workloads import file_digests, output_bytes

        w = self.w
        tracer = tracing.Tracer()
        layers = tracing.traced_layers()
        ratios, report = [], {}
        start = perf_counter()
        j = 0
        while j == 0 or perf_counter() - start < self.args.seconds:
            tracer.unit = j
            docs = self.docs(j)
            plain, traced = self.tmp / f"plain-{j}", self.tmp / f"traced-{j}"
            with tracing.interposed(tracer, ("mc.pool",)), tracing.pickled_bytes_counted(tracer):
                base_wall = sum(self.run_unit(docs, plain))
            if w.workers > 1:
                # pool workers cannot be traced from outside, so the traced
                # call runs serially; an untraced serial call is its base
                first = len(tracer.spans)
                serial = self.tmp / f"serial-{j}"
                with tracing.interposed(tracer, ("mc.pool",)):
                    base_wall = sum(self.run_unit(docs, serial, workers=1, check=False))
                for sp in tracer.spans[first:]:
                    sp[1] = "mc.serial"
                self.fails += compare_outputs(plain, serial, f"unit {j}: serial call")
                shutil.rmtree(serial)
            with tracing.interposed(tracer, layers):
                traced_wall = sum(self.run_unit(docs, traced, workers=1, check=False))
            ratios.append(traced_wall / base_wall)
            self.fails += compare_outputs(plain, traced, f"unit {j}: traced call")
            if j == 0:
                report["output_sha256"] = file_digests(str(plain))
                tracer.count("config.output_bytes", output_bytes(str(plain)))
            shutil.rmtree(plain)
            shutil.rmtree(traced)
            j += 1

        counts = tracer.counts[0]
        recorded = {sp[1] for sp in tracer.spans if sp[0] == 0}
        missing = [x for x in w.layers if x not in recorded] + [x for x in w.counts if not counts.get(x)]
        if missing:
            self.fails.append(f"unit 0 recorded nothing for {missing}: a traced boundary was not reached")
        by_unit = tracer.layer_seconds(self_time=tracing.SELF_TIME)
        units = [by_unit[u] for u in range(j)]
        metrics = {}
        for span, metric in SPAN_METRICS.items():
            metrics[metric] = statistics.median(x.get(span, 0.0) for x in units)
        effs = [x["mc.serial"] / (w.workers * x["mc.pool"]) for x in units if x.get("mc.pool")]
        metrics["mc.parallel_efficiency"] = statistics.median(effs) if effs else 0.0
        for name in COMPUTED_COUNTS + MEASURED_COUNTS:
            metrics[name] = counts.get(name, 0)
        setup = self.probe_setup()
        metrics["config.parse_s"] = setup["config.parse_s"]
        metrics["cli.import_s"] = setup["cli.import_s"]
        metrics["trace.overhead"] = statistics.median(ratios)
        spans_path = OUT / f"trace-{w.name}-seed{self.args.seed}.jsonl"
        tracer.write(str(spans_path))
        report.update(units=j, spans=len(tracer.spans), spans_file=str(spans_path.relative_to(ROOT)),
                      counts_computed=list(COMPUTED_COUNTS), counts_measured=list(MEASURED_COUNTS),
                      per_layer_unit="one scenario call" if w.is_mc else "one catalog pass")
        return metrics, report

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


def compare_outputs(base: Path, other: Path, what: str) -> list[str]:
    """Failures for every file that ``other`` wrote differently from ``base``."""
    from workloads import file_digests

    a, b = file_digests(str(base)), file_digests(str(other))
    differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    return [f"{what} wrote different bytes for {differ}"] if differ else []


def _environment(bench: Bench) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": bench.args.seed,
        "workers": bench.w.workers,
        "reps_per_call": bench.reps if bench.w.is_mc else None,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_package()
    bench = Bench(args)
    try:
        metrics, report = bench.traced() if args.trace else bench.untraced()
    finally:
        bench.close()
    report = {"workload": bench.w.name, "trace": args.trace, "environment": _environment(bench),
              **report, "error_share": bench.failed / max(bench.attempted, 1),
              "checks_failed": bench.fails}
    print(json.dumps({"report": report}))
    for msg in bench.fails:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not bench.fails,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": metric_unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
