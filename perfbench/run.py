"""The repo's benchmark: OptInter search→retrain, and ``repro serve`` over TCP.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

* ``train-criteo`` — ``search_optinter`` then ``retrain`` on criteo-like
  data at ``--scale paper``, repeated; its latencies are training steps.
* ``serve-b32-closed`` — ``repro serve --mode socket --batch-size 32``; two
  connections each keep 32 requests in flight (closed loop).

Every workload runs the seeded search→retrain at least four times,
reporting medians; the serving workload serves the weights it produces.
So every workload reports every end-to-end metric.  ``--seed`` picks the
test rows sent to the server and their order; the training data and the
model are fixed by the paper configuration, so ``test_auc`` repeats
exactly.  ``--trace 1`` prints the per-layer metrics instead, from runs
timed through wrappers (see README.md).

The last line of stdout is the result JSON; the ``#`` lines before it are
the report: fingerprint, checks with their numbers, sample counts.
"""

from __future__ import annotations

import os

#: BLAS threads, pinned before numpy loads (here and in every server).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import gc
import json
import platform
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, List

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GATES = json.loads((HERE / "gates.json").read_text())

DATASET = "criteo"
SCALE = "paper"
TRAIN_SETUP_REPEATS = 5
MIN_TRAIN_PASSES = 4
SERVE_SETUP_REPEATS = 3
#: The serving load comes in this many windows of ``--seconds / 8``
#: each, with a search→retrain pass before each.
SERVE_WINDOWS = 3
WARMUP_S = 2.0
REWARM_S = 0.5

#: Closed loops: ``connections`` callers, each keeping ``depth`` requests
#: in flight.
SERVE = {
    "serve-b32-closed": {"batch_size": 32, "connections": 2, "depth": 32},
}
WORKLOADS = ("train-criteo",) + tuple(SERVE)
#: Flags every server gets besides the model and the batch size.
SERVER_FLAGS = ["--mode", "socket", "--port", "0", "--dataset", DATASET,
                "--scale", SCALE, "--queue-depth", "1024"]

SERVING_LAYERS = ("serving.parse", "serving.service", "serving.validate",
                  "data.cross", "core.score", "obs.metrics")
REQUEST_COUNTS = ("sent", "ok", "degraded", "invalid", "shed", "missing")

clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def emit(label: str, payload) -> None:
    print(f"# {label}: {json.dumps(payload, sort_keys=True)}", flush=True)


# ----------------------------------------------------------------------
# Environment fingerprint
# ----------------------------------------------------------------------
def _openblas_runtime() -> Dict[str, object]:
    """Kernel and thread count OpenBLAS picked at load time, if visible."""
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"),
                               ("openblas_", "")):
            try:
                corename = getattr(lib, f"{prefix}get_corename{suffix}")
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
            except AttributeError:
                continue
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            threads.argtypes, threads.restype = [], ctypes.c_int
            return {"kernel": corename().decode(), "threads": threads()}
    return {"kernel": "unknown", "threads": None}


def fingerprint(server_flags: List[str]) -> Dict[str, object]:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 prints only
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name", "unknown"),
                 "version": blas.get("version", "unknown"),
                 **_openblas_runtime()},
        "blas_threads_pinned": int(BLAS_THREADS),
        "nproc": nproc,
        "python": platform.python_version(),
        "server_flags": server_flags,
    }


# ----------------------------------------------------------------------
# Training (every workload runs it)
# ----------------------------------------------------------------------
def check_passes(results, checks: Dict[str, object]) -> None:
    """The AUC gate, and bitwise agreement of every search→retrain pass:
    the workflow is deterministic at a fixed seed."""
    first = results[0]
    emit("searched architecture [memorize, factorize, naive]", first.counts)
    checks["test_auc"] = first.test_auc
    checks["test_auc_floor"] = GATES["test_auc_floor"]
    checks["test_auc_ok"] = first.test_auc >= GATES["test_auc_floor"]
    checks["passes_identical"] = all(
        r.test_auc == first.test_auc and r.counts == first.counts
        for r in results)


def pipeline_metrics(results) -> Dict[str, float]:
    return {
        "search_samples_per_s":
            stats.median([r.search.samples_per_s for r in results]),
        "retrain_samples_per_s":
            stats.median([r.retrain.samples_per_s for r in results]),
        "pipeline_s": stats.median([r.pipeline_s for r in results]),
        "test_auc": results[0].test_auc,
    }


def stage_layers(result, checks: Dict[str, object]) -> Dict[str, float]:
    """Per-layer metrics of a traced pipeline, with the add-up check."""
    import pipeline

    out: Dict[str, float] = {}
    for name, stage in (("search", result.search),
                        ("retrain", result.retrain)):
        layers = {layer: stage.layers.get(layer, 0.0)
                  for layer in pipeline.STAGE_LAYERS}
        if name == "retrain":
            layers.pop("core.fwd.combination")
        addup = stats.addup(stage.wall_s, layers,
                            GATES["max_unattributed_share"])
        checks[f"addup_{name}"] = addup
        out[f"{name}.wall_s"] = stage.wall_s
        for layer, value in layers.items():
            out[f"{name}.{layer}_s"] = value
        out[f"{name}.unattributed_s"] = addup["unattributed_s"]
        out[f"{name}.steps"] = stage.steps
        out[f"{name}.samples"] = stage.samples
        out[f"{name}.epochs"] = stage.epochs
        out[f"{name}.cross_grad_rows_per_step"] = (
            stage.cross_grad_rows_per_step)
    return out


def train_workload(args, checks, report):
    import pipeline
    from spans import SpanRecorder

    setup = []
    for _ in range(TRAIN_SETUP_REPEATS):
        started = clock()
        bundle = pipeline.prepare()
        setup.append(clock() - started)
    report["setup_s_quartiles"] = stats.quartiles(setup)

    if args.trace:
        plain = pipeline.run(bundle)
        traced = pipeline.run(bundle, SpanRecorder())
        # A traced pass must compute exactly what an untraced one does.
        check_passes([traced, plain], checks)
        layers = stage_layers(traced, checks)
        layers["data.prepare_s"] = stats.median(setup)
        layers["trace.overhead_ratio"] = traced.pipeline_s / plain.pipeline_s
        layers.update(unserved_layers())
        steps = traced.search.steps + traced.retrain.steps
        return layers, steps, 0

    # Passes until --seconds have gone, and at least MIN_TRAIN_PASSES:
    # enough steps for a p99 with ten steps beyond it.
    results, step_times = [], []
    started = clock()
    while (len(results) < MIN_TRAIN_PASSES
           or clock() - started < args.seconds):
        results.append(pipeline.run(bundle, step_times=step_times))
    check_passes(results, checks)
    require_percentile(len(step_times), checks)
    metrics = {
        "setup_s": stats.median(setup),
        "success_rate": 1.0,
        **pipeline_metrics(results),
        "rps": len(step_times) / sum(r.pipeline_s for r in results),
        "p50_ms": stats.percentile(step_times, 50) * 1e3,
        "p99_ms": stats.percentile(step_times, 99) * 1e3,
    }
    return metrics, len(step_times), 0


def unserved_layers() -> Dict[str, float]:
    """Serving layers on a workload that never starts a server: zero."""
    out = {f"{layer}_s": 0.0 for layer in SERVING_LAYERS}
    out.update({"serving.busy_s": 0.0, "serving.respond_s": 0.0,
                "serving.unattributed_s": 0.0,
                "serving.queue_wait_p50_ms": 0.0,
                "serving.queue_wait_p99_ms": 0.0,
                "serving.batch_size_mean": 0.0,
                "serving.server_cpu_ms_per_request": 0.0,
                "obs.metrics_calls_per_request": 0.0})
    out.update({f"requests.{name}": 0 for name in REQUEST_COUNTS})
    return out


def require_percentile(samples: int, checks: Dict[str, object]) -> None:
    """p99 is reported only with at least ten samples beyond it (in each
    window it is taken over)."""
    highest = stats.highest_reportable(samples)
    checks["latency_samples"] = samples
    checks["highest_reportable_percentile"] = highest
    checks["p99_reportable"] = highest >= 99.0


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
def serve_once(command, spec, requests, window_s: float, work: Path,
               launches: int, stats_path=None, between=None):
    """Launch ``launches`` servers (set-up samples); load the last one.

    The load comes in one window of ``window_s`` right after the warm-up,
    or with ``between`` in :data:`SERVE_WINDOWS` windows, each after
    ``between()`` has run while the server idles and a short warm-up
    again, so that every window starts alike.  With ``stats_path`` the
    server is the traced launcher and the window is marked for it.
    Returns ``(outcome, ready_times)``.
    """
    import serve

    env = serve.server_env(ROOT)
    ready = []
    for k in range(launches - 1):
        server = serve.launch(command, work / f"server-setup-{k}.log", env)
        ready.append(server.ready_s)
        server.kill()
    server = serve.launch(command, work / "server.log", env)
    ready.append(server.ready_s)
    conns = []
    try:
        conns = [serve.Connection(server.port)
                 for _ in range(spec["connections"])]
        depth = spec["depth"]
        serve.closed_loop(conns, requests, "w", depth, WARMUP_S)
        if stats_path is not None:
            conns[0].ask({"op": "health", "perfbench": "start"})
        windows = []
        for k in range(1 if between is None else SERVE_WINDOWS):
            if between is not None:
                between()
                serve.closed_loop(conns, requests, f"v{k}.", depth, REWARM_S)
            windows.append(serve.closed_loop(conns, requests, f"m{k}.",
                                             depth, window_s))
        if stats_path is not None:
            conns[0].ask({"op": "health", "perfbench": "stop"})
    finally:
        for conn in conns:
            conn.close()
        server.terminate()
    return serve.account(windows), ready


def serving_layers(outcome, server_stats, checks) -> Dict[str, float]:
    """Per-layer metrics of the traced server, with its add-up check."""
    layers = server_stats["layers"]
    requests = sum(server_stats["batch_sizes"])
    parts = {f"{layer}_s": layers.get(layer, 0.0)
             for layer in SERVING_LAYERS}
    parts["serving.respond_s"] = server_stats["respond_s"]
    addup = stats.addup(server_stats["busy_s"], parts,
                        GATES["max_unattributed_share"])
    checks["addup_server"] = addup
    waits = server_stats["queue_waits_s"] or [0.0]
    out = dict(parts)
    out.update({
        "serving.busy_s": server_stats["busy_s"],
        "serving.unattributed_s": addup["unattributed_s"],
        "serving.queue_wait_p50_ms": stats.percentile(waits, 50) * 1e3,
        "serving.queue_wait_p99_ms": stats.percentile(waits, 99) * 1e3,
        "serving.batch_size_mean": requests / len(server_stats["batch_sizes"]),
        "serving.server_cpu_ms_per_request":
            server_stats["cpu_s"] * 1e3 / requests,
        "obs.metrics_calls_per_request":
            server_stats["calls"].get("obs.metrics", 0) / requests,
        "data.prepare_s": stats.median(server_stats["prepare_s"]),
    })
    counts = {"sent": outcome.sent, "missing": outcome.missing}
    for status in ("ok", "degraded", "invalid", "shed"):
        counts[status] = outcome.statuses.get(status, 0)
    out.update({f"requests.{name}": counts[name] for name in REQUEST_COUNTS})
    return out


def serve_workload(args, work: Path, checks, report):
    import numpy as np

    import pipeline
    import serve
    from repro.io import save_architecture, save_checkpoint
    from repro.serving.server import build_serving_stack
    from spans import SpanRecorder

    spec = SERVE[args.workload]
    bundle = pipeline.prepare()
    results = [pipeline.run(bundle, SpanRecorder() if args.trace else None)]
    result = results[0]
    arch_path = work / "arch.json"
    weights_path = work / "weights.npz"
    save_architecture(result.architecture, arch_path)
    save_checkpoint(result.model, weights_path)
    flags = SERVER_FLAGS + ["--batch-size", str(spec["batch_size"]),
                            "--arch", str(arch_path),
                            "--weights", str(weights_path)]
    report["server_flags"] = flags[:-4] + ["--arch", "<seeded search>",
                                           "--weights", "<seeded retrain>"]

    order = np.random.default_rng(args.seed).permutation(len(bundle.test))
    requests = serve.Requests(bundle.test, bundle.full.schema.field_names,
                              order)
    plain_cmd = [sys.executable, "-m", "repro", "serve"] + flags

    def quiet_collector():
        # Keep the load generator's own collector pauses out of the window.
        gc.collect()
        gc.freeze()

    def next_pass():
        results.append(pipeline.run(bundle))
        quiet_collector()

    quiet_collector()
    if args.trace:
        # An untraced and a traced server, each loaded for half the run.
        plain, _ = serve_once(plain_cmd, spec, requests, args.seconds / 2,
                              work, 1)
        stats_path = work / "server-stats.json"
        traced_cmd = ([sys.executable, str(HERE / "launcher.py"),
                       str(stats_path), "serve"] + flags)
        traced, _ = serve_once(traced_cmd, spec, requests, args.seconds / 2,
                               work, 1, stats_path=stats_path)
        outcomes = [plain, traced]
        server_stats = json.loads(stats_path.read_text())
        layers = stage_layers(result, checks)
        layers.update(serving_layers(traced, server_stats, checks))
        layers["trace.overhead_ratio"] = plain.rps() / traced.rps()
        measured = traced
    else:
        # Search→retrain passes alternate with the load windows — one
        # before the server starts, then one before each window — so that
        # one run samples the host at several times for both.
        measured, ready = serve_once(plain_cmd, spec, requests,
                                     args.seconds / 8, work,
                                     SERVE_SETUP_REPEATS, between=next_pass)
        outcomes = [measured]
        report["setup_s_quartiles"] = stats.quartiles(ready)

    check_passes(results, checks)
    stack = build_serving_stack("LR", DATASET, SCALE,
                                arch_path=str(arch_path),
                                weights=str(weights_path))
    rng = np.random.default_rng(args.seed)
    for k, outcome in enumerate(outcomes):
        checks[f"exactly_once_{k}"] = {
            "sent": outcome.sent, "missing": outcome.missing,
            "duplicates": outcome.duplicates, "unknown": outcome.unknown,
            "ok": outcome.exactly_once}
        checks[f"bitwise_{k}"] = serve.bitwise_check(
            outcome, requests, stack.service, rng, GATES["bitwise_sample"])
    report["statuses"] = measured.statuses
    report["latency_samples_total"] = len(measured.latencies_s)
    report["window_p50_p99_ms"] = [
        [stats.percentile(window, q) * 1e3 for q in (50, 99)]
        for window in measured.window_latencies_s()]
    require_percentile(min(map(len, measured.window_latencies_s())), checks)
    attempted = sum(o.sent for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    if args.trace:
        return layers, attempted, failed
    metrics = {
        "setup_s": stats.median(ready),
        "success_rate": measured.ok / measured.sent,
        **pipeline_metrics(results),
        "rps": measured.rps(),
        "p50_ms": measured.latency_ms(50),
        "p99_ms": measured.latency_ms(99),
    }
    return metrics, attempted, failed


# ----------------------------------------------------------------------
def passed(checks: Dict[str, object]) -> bool:
    """Every boolean check, ``ok`` field and bitwise comparison holds."""
    ok = True
    for value in checks.values():
        if isinstance(value, dict):
            if "ok" in value:
                ok = ok and bool(value["ok"])
            if "mismatches" in value:
                ok = ok and value["mismatches"] == 0 and value["checked"] > 0
        elif isinstance(value, bool):
            ok = ok and value
    return ok


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    # repro, and the modules here that import it, load only from now on.
    sys.path.insert(0, str(ROOT / "src"))

    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}", flush=True)
    checks: Dict[str, object] = {}
    report: Dict[str, object] = {}
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.workload == "train-criteo":
            metrics, attempted, failed = train_workload(args, checks, report)
            flags: List[str] = []
        else:
            metrics, attempted, failed = serve_workload(args, work, checks,
                                                        report)
            flags = report.pop("server_flags")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} differ from "
            f"BENCHMARK.json")
    emit("fingerprint", fingerprint(flags))
    emit("checks", checks)
    emit("report", report)
    result = {
        "correct": passed(checks),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]),
                           "unit": units[name]} for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
