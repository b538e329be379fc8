#!/usr/bin/env python3
"""The dagtest benchmark: one command that measures, checks and reports.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md for why each exists):

* ``batch_wide``: ``dagtest batch`` subprocesses on a 200 x 5000 expression
  CSV with 100 pathways, BLAS threads left to the environment.
* ``simulate_grid``: ``dagtest simulate`` subprocesses on a 3-delta grid,
  ``OPENBLAS_NUM_THREADS=1``.
* ``highdim_library``: in-process library analyses at n1 = n2 = 20,
  p = 300 in a fresh interpreter, ``OPENBLAS_NUM_THREADS=1``.

With ``--trace 0`` the end-to-end metrics of the named workload are measured
with tracing off. With ``--trace 1`` a separate run replays all three
workloads in-process with a span around each library call, once with BLAS
threads unset and once pinned to one, and reports per-layer metrics.

Inputs are generated from ``--seed`` under ``.bench_work/`` in the checkout
and removed afterwards. Outputs are checked against dense numpy references.
End-to-end timings are in reference seconds (see calibrate.py).
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Exit status is 0 when
every check passed, 1 when a check failed, 2 when the source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PY = sys.executable
BASE_ENV = dict(os.environ)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS", "MKL_NUM_THREADS")

# The benchmark's own numpy runs single-threaded so that it leaves no BLAS
# threads spinning beside the program; BLAS reads this at import.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path[:0] = [str(BENCH), str(SRC)]

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
from oracle import METHODS  # noqa: E402
from replay import SETUP_MARK  # noqa: E402

# The `dagtest` console script's entry, without needing an install, wrapped
# by `calibrate.run_cli`: it marks the end of set-up on the monotonic clock,
# which parent and child share, and times the reference kernel around main().
CLI_MAIN = (
    f"import sys; sys.path.insert(0, {str(BENCH)!r}); "
    f"import calibrate; calibrate.run_cli({SETUP_MARK!r})"
)
CHILD_TIMEOUT_S = 150

WORKLOADS = {
    # name: (BLAS pinned to one thread, minimum operations per run)
    "batch_wide": (False, 3),
    "simulate_grid": (True, 3),
    "highdim_library": (True, 200),
}
# Every workload spreads its measurements over several fresh processes, as
# their speeds differ: `highdim_library` splits its loop across this many.
HIGHDIM_PROCESSES = 8

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_wall_s": "s",
    "op_cpu_s": "s",
    "units_per_s": "1/s",
}
UNITS_OF_WORK = {"batch_wide": "pathways", "simulate_grid": "replicates", "highdim_library": "analyses"}

# Per-layer timings: (metric, span name, unit, workloads whose spans count).
# A metric measured on several workloads gets one name per workload.
LAYER_TIMINGS = [
    ("data_io.load_expression_s", "data_io.load_expression", "s", ("batch",)),
    ("data_io.align_pathway_us", "data_io.align_pathway", "us", ("batch",)),
    ("data_io.dump_json_ms", "data_io.dump_json", "ms", ("batch",)),
    ("pathway.parse_edge_document_us", "pathway.parse_edge_document", "us", ("batch",)),
    ("pathway.acyclic_reduction_us", "pathway.acyclic_reduction", "us", ("batch",)),
    ("pathway.from_edges_us", "pathway.from_edges", "us", ("highdim",)),
    ("sem.grouped_sample_us", "sem.grouped_sample", "us", ("batch", "highdim")),
    ("sem.fit_sem_ms", "sem.fit_sem", "ms", ("batch", "sim", "highdim")),
    ("sem.fit_node_us", "sem.fit_node", "us", ("batch", "sim", "highdim")),
    ("mean_tests.t2dag_quadform_us", "mean_tests.t2dag", "us", ("batch", "sim", "highdim")),
    ("mean_tests.hotelling_ms", "mean_tests.hotelling", "ms", ("batch", "sim")),
    ("mean_tests.bai_saranadasa_ms", "mean_tests.bai_saranadasa", "ms", ("batch", "sim", "highdim")),
    ("mean_tests.chen_qin_ms", "mean_tests.chen_qin", "ms", ("batch", "sim", "highdim")),
    ("mean_tests.reference_p_value_us", "mean_tests.reference_p_value", "us", ("p_value",)),
    ("simulate.gen_adjacency_ms", "simulate.gen_adjacency", "ms", ("sim",)),
    ("simulate.gen_coefficients_ms", "simulate.gen_coefficients", "ms", ("sim",)),
    ("simulate.gen_errors_ms", "simulate.gen_errors", "ms", ("sim",)),
    ("simulate.gen_dataset_ms", "simulate.gen_dataset", "ms", ("sim",)),
    ("divergence.population_model_ms", "divergence.population_model", "ms", ("sim",)),
]
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}
LAYERS = ("cli", "data_io", "pathway", "sem", "mean_tests", "simulate", "divergence")
# Traced runs: the BLAS setting of each replay and its metric-name suffix.
BLAS_SETTINGS = (("", False), (".blas1", True))
TRACE_SIZES = {"fit_node_items": 10, "sim_replicates": 30, "highdim_pairs": 100}
CLI_TEST_REPS = 2


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in reporting order."""
    units = {}
    for suffix, _ in BLAS_SETTINGS:
        for metric, _span, unit, workloads in LAYER_TIMINGS:
            for wl in workloads:
                name = metric if len(workloads) == 1 else f"{metric}.{wl}"
                units[name + suffix] = unit
        units["data_io.load_expression_mb_per_s" + suffix] = "MB/s"
        units["cli.test_s" + suffix] = "s"
        units["trace.coverage" + suffix] = "ratio"
        units["trace.overhead_frac" + suffix] = "ratio"
    for name in ("pathway.cycle_edges_removed", "sem.nodes_fit", "sem.fit_failures", "simulate.replicates"):
        units[name] = "count"
    for method in METHODS:
        units[f"mean_tests.method_failures.{method}"] = "count"
    return units


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Child:
    code: int
    wall_s: float  # without the calibration phases
    cpu_s: float  # user + system time of the child and its threads, likewise
    rss_mb: float  # peak resident set size
    setup_s: float | None  # start until the child marked its set-up done
    kernel_s: float | None  # median reference-kernel time in the child

    @property
    def speed(self) -> float:
        """Factor from raw to reference seconds (see calibrate.py)."""
        return calibrate.NOMINAL_KERNEL_S / self.kernel_s


def child_env(blas1: bool) -> dict:
    """The caller's environment with BLAS threads unset or pinned to one."""
    env = {k: v for k, v in BASE_ENV.items() if k not in BLAS_VARS}
    if blas1:
        env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], env: dict, log: Path) -> Child:
    """Run one child to completion; a watchdog kills it after the timeout."""
    with open(log, "wb") as out:
        t0 = now()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = now() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    child = Child(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        setup_s=None,
        kernel_s=None,
    )
    for line in log.read_text(errors="replace").splitlines():
        fields = line.split()
        if fields and fields[0] == SETUP_MARK and child.setup_s is None:
            child.setup_s = float(fields[1]) - t0
        elif fields and fields[0] == calibrate.CALIBRATION_MARK:
            before, after, phase_wall, phase_cpu = map(float, fields[1:5])
            child.kernel_s = (before + after) / 2.0
            child.wall_s -= phase_wall
            child.cpu_s -= phase_cpu
    return child


def log_tail(log: Path) -> str:
    return log.read_text(errors="replace")[-2000:]


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def put(self, name: str, values, unit: str, scale: float = 1.0) -> None:
        """Record a metric as the median of its samples, with quartiles."""
        values = [float(v) * scale for v in values]
        entry = {"value": statistics.median(values), "unit": unit, "n": len(values)}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry["q1"], entry["q3"] = q1, q3
        if len(values) >= 200:
            entry["p95"] = statistics.quantiles(values, n=20)[-1]
        self.metrics[name] = entry

    def fail(self, message: str) -> None:
        self.correct = False
        self.notes.append(message)


def warm_up(out: Outcome, env: dict, work: Path) -> None:
    """One unmeasured import, so every measured process finds the bytecode
    cache filled."""
    log = work / "warm-up.log"
    child = run_child([PY, "-c", "import dagtest"], env, log)
    if child.code != 0:
        out.fail(f"import dagtest exited {child.code}: {log_tail(log)}")


def loop_children(argv, env, seconds: float, min_ops: int, work: Path, check) -> list[Child]:
    """Closed loop of program runs: the next starts when the last has ended.
    ``check(child, log)`` validates each run's output."""
    ops = []
    start = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - start < seconds:
        log = work / f"op-{len(ops)}.log"
        child = run_child(argv, env, log)
        check(child, log)
        ops.append(child)
    return ops


def put_child_metrics(out: Outcome, ops: list[Child], units_per_op: int) -> None:
    """Per-process timings in reference seconds; raw medians go to details."""
    ops = [c for c in ops if c.code == 0]
    if any(c.setup_s is None or c.kernel_s is None for c in ops):
        out.fail("a program process printed no set-up or calibration line")
        return
    if not ops:
        return
    out.put("setup_s", [c.setup_s * c.speed for c in ops], "s")
    out.put("op_wall_s", [c.wall_s * c.speed for c in ops], "s")
    out.put("op_cpu_s", [c.cpu_s * c.speed for c in ops], "s")
    out.put("peak_rss_mb", [c.rss_mb for c in ops], "MB")
    total = sum(c.wall_s * c.speed for c in ops)
    out.metrics["units_per_s"] = {"value": units_per_op * len(ops) / total, "unit": "1/s", "n": len(ops)}
    out.details["raw_s"] = {
        "setup_s": statistics.median(c.setup_s for c in ops),
        "op_wall_s": statistics.median(c.wall_s for c in ops),
        "op_cpu_s": statistics.median(c.cpu_s for c in ops),
        "kernel_s": statistics.median(c.kernel_s for c in ops),
    }


# ---------------------------------------------------------------------------
# batch_wide
# ---------------------------------------------------------------------------

def run_batch(out: Outcome, seed: int, seconds: float, work: Path, tiny: bool) -> None:
    blas1, min_ops = WORKLOADS["batch_wide"]
    inp = inputs.make_batch(seed, work / "batch", inputs.TINY["batch"] if tiny else inputs.BATCH_SIZES)
    out.details["input_bytes"] = inp.bytes
    refs = oracle.batch_references(inp)
    env = child_env(blas1)
    warm_up(out, env, work)
    report_path = work / "batch.json"
    argv = [
        PY, "-c", CLI_MAIN, "batch", "--expression", str(inp.expression_csv),
        "--pathway-dir", str(inp.pathway_dir), "--methods", "all", "--threads", "1",
        "--out", str(report_path),
    ]
    per_op = len(inp.pathways) * len(METHODS)

    def check(child: Child, log: Path) -> None:
        out.attempted += per_op
        if child.code != 0:
            out.failed += per_op
            out.fail(f"dagtest batch exited {child.code}: {log_tail(log)}")
            return
        errors, failed = oracle.check_batch_report(json.loads(report_path.read_text()), inp, refs)
        report_path.unlink()
        if errors:
            out.failed += per_op
            for line in errors:
                out.fail(line)
        else:
            out.failed += failed

    ops = loop_children(argv, env, seconds, min_ops, work, check)
    put_child_metrics(out, ops, len(inp.pathways))


# ---------------------------------------------------------------------------
# simulate_grid
# ---------------------------------------------------------------------------

def run_sim(out: Outcome, seed: int, seconds: float, work: Path, tiny: bool) -> None:
    blas1, min_ops = WORKLOADS["simulate_grid"]
    config_path = work / "sim.json"
    out.details["input_bytes"] = inputs.make_sim_config(
        seed, config_path, inputs.TINY["sim"] if tiny else inputs.SIM_SIZES
    )
    config = json.loads(config_path.read_text())
    for line in oracle.sim_generator_errors(config, config["delta_grid"][-1]):
        out.fail(line)
    env = child_env(blas1)
    warm_up(out, env, work)
    out_dir = work / "sim-out"
    argv = [
        PY, "-c", CLI_MAIN, "simulate", "--config", str(config_path), "--methods", "all",
        "--threads", "1", "--out", str(out_dir),
    ]
    per_op = config["replicates"] * len(config["delta_grid"]) * len(METHODS)
    first = {}

    def check(child: Child, log: Path) -> None:
        out.attempted += per_op
        if child.code != 0:
            out.failed += per_op
            out.fail(f"dagtest simulate exited {child.code}: {log_tail(log)}")
            return
        text = (out_dir / "experiment.json").read_text()
        shutil.rmtree(out_dir)
        errors, failed = oracle.check_sim_table(json.loads(text), config)
        if first.setdefault("text", text) != text:
            errors.append("experiment.json differs between identical runs")
        if errors:
            out.failed += per_op
            for line in errors:
                out.fail(line)
        else:
            out.failed += failed

    ops = loop_children(argv, env, seconds, min_ops, work, check)
    put_child_metrics(out, ops, config["replicates"] * len(config["delta_grid"]))


# ---------------------------------------------------------------------------
# highdim_library
# ---------------------------------------------------------------------------

def run_highdim(out: Outcome, seed: int, seconds: float, work: Path, tiny: bool) -> None:
    blas1, min_ops = WORKLOADS["highdim_library"]
    npz = work / "highdim.npz"
    out.details["input_bytes"] = inputs.make_highdim(
        seed, npz, inputs.TINY["highdim"] if tiny else inputs.HIGHDIM_SIZES
    )
    env = child_env(blas1)
    warm_up(out, env, work)
    result_path = work / "highdim.json"
    children, walls, cpus, raw_walls = [], [], [], []
    for proc in range(HIGHDIM_PROCESSES):
        log = work / f"highdim-{proc}.log"
        child = run_child(
            [PY, str(BENCH / "replay.py"), "highdim", str(npz), str(seconds / HIGHDIM_PROCESSES),
             str(-(-min_ops // HIGHDIM_PROCESSES)), str(result_path)],
            env, log,
        )
        if child.code != 0:
            out.attempted += 1
            out.failed += 1
            out.fail(f"highdim loop exited {child.code}: {log_tail(log)}")
            return
        res = json.loads(result_path.read_text())
        out.attempted += res["attempted"]
        errors = oracle.highdim_errors(res["stats"], npz, str) if proc == 0 else []
        for line in errors:
            out.fail(line)
        out.failed += res["attempted"] if errors else res["failed"]
        child.kernel_s = statistics.median(res["kernels"])
        children.append(child)
        walls += [w * child.speed for w in res["walls"]]
        cpus += [c * child.speed for c in res["cpus"]]
        raw_walls += res["walls"]
    out.put("setup_s", [c.setup_s * c.speed for c in children], "s")
    out.put("op_wall_s", walls, "s")
    out.put("op_cpu_s", cpus, "s")
    out.put("peak_rss_mb", [c.rss_mb for c in children], "MB")
    out.metrics["units_per_s"] = {"value": len(walls) / sum(walls), "unit": "1/s", "n": len(walls)}
    out.details["raw_s"] = {
        "setup_s": statistics.median(c.setup_s for c in children),
        "op_wall_s": statistics.median(raw_walls),
        "kernel_s": statistics.median(c.kernel_s for c in children),
    }


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def span_metrics(trace: dict, suffix: str, csv_bytes: int) -> dict[str, tuple[list, str, float]]:
    """Per-layer samples from one replay: name -> (samples, unit, scale)."""
    spans = trace["spans"]
    durations: dict[tuple[str, str], list[float]] = {}
    child_time = [0.0] * len(spans)
    for name, item, start, end, parent in spans:
        durations.setdefault((name, item.split(":")[0]), []).append(end - start)
        if parent >= 0:
            child_time[parent] += end - start
    layer_self = sum(
        (end - start) - child_time[i]
        for i, (name, _item, start, end, _parent) in enumerate(spans)
        if name.split(".")[0] in LAYERS
    )
    samples = {}
    for metric, span, unit, workloads in LAYER_TIMINGS:
        for wl in workloads:
            name = metric if len(workloads) == 1 else f"{metric}.{wl}"
            samples[name + suffix] = (durations.get((span, wl), []), unit, SCALE[unit])
    load = durations.get(("data_io.load_expression", "batch"), [])
    samples["data_io.load_expression_mb_per_s" + suffix] = (
        [csv_bytes / 1e6 / t for t in load], "MB/s", 1.0
    )
    samples["trace.coverage" + suffix] = ([layer_self / sum(trace["walls"].values())], "ratio", 1.0)
    over = trace["overhead"]
    samples["trace.overhead_frac" + suffix] = (
        [(over["traced_s"] - over["untraced_s"]) / over["untraced_s"]], "ratio", 1.0
    )
    return samples


def run_trace(out: Outcome, seed: int, work: Path, tiny: bool) -> None:
    inp = inputs.make_batch(seed, work / "batch", inputs.TINY["batch"] if tiny else inputs.BATCH_SIZES)
    npz = work / "highdim.npz"
    sim_config = work / "sim.json"
    sizes = dict(inp.bytes)
    sizes.update(inputs.make_highdim(seed, npz, inputs.TINY["highdim"] if tiny else inputs.HIGHDIM_SIZES))
    sizes.update(inputs.make_sim_config(seed, sim_config, inputs.TINY["sim"] if tiny else inputs.SIM_SIZES))
    out.details["input_bytes"] = sizes
    refs = oracle.batch_references(inp)
    trace_sizes = dict(TRACE_SIZES, sim_replicates=4, highdim_pairs=20) if tiny else TRACE_SIZES
    test_pathway = inp.pathway_dir / f"{inp.pathways[1].name}.tsv"
    for suffix, blas1 in BLAS_SETTINGS:
        env = child_env(blas1)
        result_path = work / f"trace{suffix}.json"
        log = work / f"trace{suffix}.log"
        child = run_child(
            [PY, str(BENCH / "replay.py"), "trace", str(inp.pathway_dir.parent), str(npz),
             str(sim_config), json.dumps(trace_sizes), str(result_path)],
            env, log,
        )
        if child.code != 0:
            out.attempted += 1
            out.failed += 1
            out.fail(f"traced replay{suffix} exited {child.code}: {log_tail(log)}")
            continue
        trace = json.loads(result_path.read_text())
        counts = trace["counts"]
        out.attempted += counts["attempted"]
        out.failed += sum(counts["method_failures"].values())
        for name, (values, unit, scale) in span_metrics(trace, suffix, inp.bytes["expression_csv"]).items():
            if values:
                out.put(name, values, unit, scale)
        errors = oracle.highdim_errors(trace["stats"], npz, lambda k: f"highdim:{k}")
        for name, want in refs.items():
            errors += oracle.mismatches(f"traced {name}", trace["stats"].get(f"batch:{name}", {}), want)
        for line in errors:
            out.fail(line)
        if not suffix:
            named = {
                "pathway.cycle_edges_removed": counts["cycle_edges_removed"],
                "sem.nodes_fit": counts["nodes_fit"],
                "sem.fit_failures": counts["fit_failures"],
                "simulate.replicates": counts["replicates"],
            }
            for method, n in counts["method_failures"].items():
                named[f"mean_tests.method_failures.{method}"] = n
            for name, n in named.items():
                out.metrics[name] = {"value": n, "unit": "count"}
        walls = []
        for rep in range(CLI_TEST_REPS):
            report = work / "test.json"
            log = work / f"test{suffix}-{rep}.log"
            child = run_child(
                [PY, "-c", CLI_MAIN, "test", "--expression", str(inp.expression_csv),
                 "--pathway", str(test_pathway), "--methods", "all", "--out", str(report)],
                env, log,
            )
            out.attempted += len(METHODS)
            if child.code != 0:
                out.failed += len(METHODS)
                out.fail(f"dagtest test exited {child.code}: {log_tail(log)}")
                continue
            got = {r["method"]: r["statistic"] for r in json.loads(report.read_text())["results"]}
            for line in oracle.mismatches("dagtest test", got, refs[inp.pathways[1].name]):
                out.fail(line)
            walls.append(child.wall_s)
        if walls:
            out.put("cli.test_s" + suffix, walls, "s")


# ---------------------------------------------------------------------------
# Machine block and entry point
# ---------------------------------------------------------------------------

def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def machine_block() -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next(
        (line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")),
        platform.processor() or None,
    )
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    commit = None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(BASE_ENV, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "caller_blas_env": {k: BASE_ENV.get(k) for k in BLAS_VARS},
        "workload_OPENBLAS_NUM_THREADS": {
            name: ("1" if blas1 else None) for name, (blas1, _) in WORKLOADS.items()
        },
        "git_commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="shrink every input (for the benchmark's own tests)"
    )
    args = parser.parse_args(argv)
    if not (SRC / "dagtest" / "__init__.py").is_file():
        print(f"error: no dagtest sources under {SRC}", file=sys.stderr)
        return 2
    machine = machine_block()
    machine["loadavg_before"] = (_read("/proc/loadavg") or "").strip() or None
    work = WORK / f"{args.workload}-{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    out = Outcome()
    started = time.perf_counter()
    try:
        if args.trace:
            run_trace(out, args.seed, work, args.tiny)
        else:
            runner = {"batch_wide": run_batch, "simulate_grid": run_sim, "highdim_library": run_highdim}
            runner[args.workload](out, args.seed, args.seconds, work, args.tiny)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    machine["loadavg_after"] = (_read("/proc/loadavg") or "").strip() or None
    if not out.attempted:
        out.fail("nothing was attempted")
        out.attempted = 1

    expected = layer_metric_units() if args.trace else END_TO_END
    for name in expected:
        if name not in out.metrics:
            out.fail(f"metric {name} was not measured")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "units_of_work": UNITS_OF_WORK[args.workload],
        "run_s": time.perf_counter() - started,
        "machine": machine,
        **out.details,
        "notes": out.notes,
        "metrics": out.metrics,
    }
    WORK.mkdir(exist_ok=True)
    (WORK / f"last-{args.workload}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    for line in out.notes[:20]:
        print(f"check failed: {line}")
    print(json.dumps({k: report[k] for k in ("machine", "input_bytes", "raw_s") if k in report}))
    for name in (n for n in expected if n in out.metrics):
        m = out.metrics[name]
        spread = f"  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}]" if "q1" in m else ""
        p95 = f"  p95 {m['p95']:.6g}" if "p95" in m else ""
        print(f"{name:<48} {m['value']:>14.6g} {m['unit']:<6} n={m.get('n', 1)}{spread}{p95}")
    final = {
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": out.metrics[name]["value"], "unit": unit}
            for name, unit in expected.items()
            if name in out.metrics
        },
    }
    print(json.dumps(final))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
