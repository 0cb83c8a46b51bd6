#!/usr/bin/env python3
"""Seeded benchmark of convexreg: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload csv_pipeline --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs traced and untraced passes alternately and reports the per-layer
metrics.  ``--smoke`` runs the same workloads and checks at tiny sizes and
``--held-out`` replaces the seed by one never used while the benchmark was
tuned.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the full record (environment, every stage by name, checks, spans written).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference"

HELD_OUT_SEED = 7_919_003  # never used while the benchmark was tuned
SETUP_SAMPLES = 5
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
CHILD_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Every workload reports the same end-to-end names; each workload's own
# stage times are printed and recorded by name beside them (see README.md).
# Pass time is declared as a ratio to the frozen reference's pass time,
# measured interleaved, because the raw time drifts with the host.
END_TO_END = {"setup_s": "s", "pass_time_ratio": "ratio", "peak_rss_mb": "MB"}

PER_LAYER = {
    "cli.synth_self_s": "s",
    "cli.fit_self_s": "s",
    "cli.predict_self_s": "s",
    "cli.verify_self_s": "s",
    "data.write_csv_s": "s",
    "data.write_csv_mb_per_s": "MB/s",
    "data.load_csv_s": "s",
    "data.load_csv_mb_per_s": "MB/s",
    "data.load_feature_csv_s": "s",
    "data.generate_synthetic_s": "s",
    "data.bytes_read": "bytes",
    "data.bytes_written": "bytes",
    "data.synth_targets_out_of_bound": "count",
    "loss.total_loss_ms": "ms",
    "loss.total_gradient_ms": "ms",
    "loss.gradient_gb_per_s_computed": "GB/s",
    "loss.total_loss_ms_1t": "ms",
    "loss.total_gradient_ms_1t": "ms",
    "loss.total_loss_us_small": "us",
    "loss.loss_z_ns_per_elem": "ns",
    "loss.dloss_dz_ns_per_elem": "ns",
    "transforms.evaluate_ns_per_elem": "ns",
    "transforms.derivative_ns_per_elem": "ns",
    "solver.gd_fit_s": "s",
    "solver.iterations": "count",
    "solver.ms_per_iter": "ms",
    "solver.iter_cost_in_loss_evals": "loss_evals",
    "solver.restart_iterations": "count",
    "solver.converged_frac": "fraction",
    "solver.restart_spread_convex_sqrt": "ratio",
    "solver.restart_spread_tanh": "ratio",
    "convexity.battery_s": "s",
    "convexity.midpoint_check_ms": "ms",
    "convexity.monotonicity_check_ms": "ms",
    "convexity.witness_search_ms": "ms",
    "convexity.fd_hessian_s": "s",
    "convexity.fd_hessian_loss_evals": "count",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["csv_pipeline", "solve_large", "certify"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, same workloads and checks")
    parser.add_argument("--held-out", action="store_true", help=f"use the held-out seed {HELD_OUT_SEED}")
    parser.add_argument("--child", choices=["setup", "rss", "blas1"], help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def blas_threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> dict:
    values = list(values)
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"n": len(values), "median": q2, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def per_call(function, min_seconds: float = 0.2, min_calls: int = 5) -> float:
    """Median seconds per call of ``function()`` over at least ``min_calls`` calls."""
    function()  # warm-up
    samples = []
    started = time.perf_counter()
    while len(samples) < min_calls or time.perf_counter() - started < min_seconds:
        t0 = time.perf_counter()
        function()
        samples.append(time.perf_counter() - t0)
    return median(samples)


def peak_rss_mb() -> float:
    """This process's peak resident set (VmHWM).

    Unlike ``ru_maxrss``, VmHWM starts afresh at exec, so it does not
    inherit the parent's resident set.
    """
    for line in Path("/proc/self/status").read_text(encoding="utf-8").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def workdir_for(pid: int) -> Path:
    path = OUT / f"work-{pid}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def build(args, span=None, package="convexreg"):
    """Import ``package`` and build the workload's inputs with it; returns the workload.

    ``convexreg`` is the program under test, from ``src/``; ``convexreg_ref``
    is the frozen reference copy in ``reference/``.
    """
    import importlib

    import workloads

    pkg = importlib.import_module(package)
    importlib.import_module(f"{package}.cli")  # sets pkg.cli
    home = SRC if package == "convexreg" else REFERENCE
    if not Path(pkg.__file__).resolve().is_relative_to(home.resolve()):
        raise SystemExit(f"error: {package} imported from {pkg.__file__}, not from {home}")
    workdir = workdir_for(os.getpid()) / package
    workdir.mkdir(exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES["smoke" if args.smoke else "full"]
    return cls(pkg, args.seed, size, workdir, span or workloads.no_span)


# ---------------------------------------------------------------- children


def child_argv(args, mode: str) -> list[str]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--child", mode]
    return argv + (["--smoke"] if args.smoke else [])


def run_child(args, mode: str) -> dict:
    env = dict(os.environ)
    if mode == "blas1":
        env.update({var: "1" for var in BLAS_THREAD_VARS})
    proc = subprocess.run(child_argv(args, mode), capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"error: {mode} child failed with exit {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def child_main(args) -> dict:
    started = time.perf_counter()
    workload = build(args)
    setup_s = time.perf_counter() - started
    try:
        if args.child == "setup":
            return {"setup_s": setup_s}
        if args.child == "rss":
            from workloads import run_pass

            checks = [check.__dict__ for check in run_pass(workload).checks]
            return {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb(), "checks": checks}
        from convexreg import total_gradient, total_loss

        dataset, model = workload.probe_model()
        return {
            "total_loss_s": per_call(lambda: total_loss(model, dataset)),
            "total_gradient_s": per_call(lambda: total_gradient(model, dataset)),
        }
    finally:
        shutil.rmtree(workdir_for(os.getpid()), ignore_errors=True)


# ------------------------------------------------------------ environment


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() if proc.returncode == 0 else commit
    cpu_model = "unknown"
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    llc = {"level": None, "size": "unknown"}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, size = _read(f"{base}/level"), _read(f"{base}/size")
        if level is not None and size is not None and int(level) >= (llc["level"] or 0):
            llc = {"level": int(level), "size": size}
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "llc": llc,
        "note": ("bandwidth figures are computed from array sizes, not measured traffic; "
                 "no roofline fraction is reported because the last-level cache can hold "
                 "the largest matrix"),
    }


# ------------------------------------------------------------------ passes


def measure_pairs(workload, reference, seconds: float):
    """Warm-up, then paired passes until ``seconds`` have gone (at least a few).

    A paired pass runs each stage twice back to back, by the program and by
    the frozen reference on the same inputs, alternating from stage to
    stage which goes first, so that both see the same machine.  Returns
    ((program pass, reference stage times) pairs, every check of the
    program's outputs as a dict).
    """
    from workloads import PassResult, run_pass, time_stages

    checks = [c.__dict__ for c in run_pass(workload).checks]
    time_stages(reference)
    pairs = []
    reference_first = False
    started = time.perf_counter()
    while len(pairs) < MIN_PASSES or time.perf_counter() - started < seconds:
        gc.collect()
        times, reference_times, outputs = {}, {}, {}
        for (stage, _, call), (_, _, reference_call) in zip(workload.stages(), reference.stages()):
            for is_reference in (True, False) if reference_first else (False, True):
                start = time.perf_counter()
                if is_reference:
                    reference_call()
                    reference_times[stage] = time.perf_counter() - start
                else:
                    outputs[stage] = call()
                    times[stage] = time.perf_counter() - start
            reference_first = not reference_first
        program = PassResult(times, *workload.check(outputs))
        pairs.append((program, reference_times))
        checks += [c.__dict__ for c in program.checks]
    return pairs, checks


def measure_traced(workload, seconds: float):
    """Warm-up, then untraced and traced passes alternately until ``seconds`` have gone.

    Returns (untraced passes, (traced pass, tracer) pairs, every check as a
    dict, cli names that could not be wrapped).
    """
    from convexreg import cli
    from tracing import Tracer, wrapped_module_names
    from workloads import CLI_IMPORTS, run_pass

    checks = [c.__dict__ for c in run_pass(workload).checks]
    plain, traced_passes, missing_names = [], [], []
    started = time.perf_counter()
    while (min(len(plain), len(traced_passes)) < MIN_TRACED_PASSES
           or time.perf_counter() - started < seconds):
        gc.collect()
        if len(plain) <= len(traced_passes):
            plain.append(run_pass(workload))
            checks += [c.__dict__ for c in plain[-1].checks]
            continue
        tracer = Tracer()
        with wrapped_module_names(tracer, cli, CLI_IMPORTS) as missing_names:
            result = run_pass(workload, tracer.span)
        traced_passes.append((result, tracer))
        checks += [c.__dict__ for c in result.checks]
    return plain, traced_passes, checks, missing_names


def end_to_end(args, pairs) -> tuple[dict, dict]:
    rss = run_child(args, "rss")
    setups = [rss["setup_s"]] + [run_child(args, "setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    plain = [program for program, _ in pairs]
    stages = list(plain[0].times)
    metrics = {
        "setup_s": median(setups),
        "pass_time_ratio": median(p.wall / sum(r.values()) for p, r in pairs),
        "peak_rss_mb": rss["peak_rss_mb"],
    }
    detail = {
        "stages": {stage: quartiles(p.times[stage] for p in plain) for stage in stages},
        "wall_s": quartiles(p.wall for p in plain),
        "reference_wall_s": quartiles(sum(r.values()) for _, r in pairs),
        "stage_time_ratios": {stage: median(p.times[stage] / r[stage] for p, r in pairs) for stage in stages},
        "setup_s_samples": setups,
        "peak_rss_note": "one fresh process: set-up plus one pass",
    }
    return metrics, {"detail": detail, "rss_checks": rss["checks"]}


# --------------------------------------------------------------- per layer


def layer_probes(args, workload) -> dict:
    """Per-call times of public layer functions, measured from outside."""
    import numpy as np
    from convexreg import (
        ConvexSqrtTransform, TanhTransform, derivative_monotonicity_check, dloss_dz,
        find_nonconvex_witness, graded_grid, loss_z, midpoint_convexity_check,
        total_gradient, total_loss,
    )

    dataset, model = workload.probe_model()
    rng = np.random.default_rng(args.seed)
    n_elems = 10_000 if args.smoke else 1_000_000
    z = rng.uniform(-10.0, 10.0, n_elems)
    y = rng.uniform(-1.0, 1.0, n_elems)
    transform = ConvexSqrtTransform(1.0, 1.0)
    probes = {
        "total_loss_s": per_call(lambda: total_loss(model, dataset)),
        "total_gradient_s": per_call(lambda: total_gradient(model, dataset)),
        "features_bytes": dataset.features.nbytes,
        "n_elems": n_elems,
        "loss_z_s": per_call(lambda: loss_z(transform, z, y)),
        "dloss_dz_s": per_call(lambda: dloss_dz(transform, z, y)),
        "evaluate_s": per_call(lambda: transform.evaluate(z)),
        "derivative_s": per_call(lambda: transform.derivative(z)),
    }
    if args.workload == "certify":
        # The calls verification_battery makes, one of each.
        samples = workload.samples
        probes["midpoint_s"] = per_call(lambda: midpoint_convexity_check(
            transform, 1.0, (-100.0, 100.0), samples, seed=args.seed), min_calls=3)
        grid = graded_grid(50.0, 2001)
        probes["monotonicity_s"] = per_call(lambda: derivative_monotonicity_check(transform, 1.0, grid))
        z_grid, y_grid = np.linspace(-3.0, 3.0, 61), np.linspace(-1.0, 1.0, 21)
        probes["witness_s"] = per_call(lambda: find_nonconvex_witness(TanhTransform(1.0), z_grid, y_grid))
    return probes


def per_layer(args, workload, plain, traced_passes, setup_tracer, missing_names) -> tuple[dict, dict]:
    probes = layer_probes(args, workload)
    one_thread = run_child(args, "blas1")
    results = [r for r, _ in traced_passes]
    totals = [t.totals() for _, t in traced_passes]
    selfs = [t.self_totals() for _, t in traced_passes]
    facts = [r.facts for r in results + plain]

    def span_total(name):
        return median(t.get(name, 0.0) for t in totals)

    def fact(key):
        return median(f[key] for f in facts)

    metrics: dict[str, float] = {}
    missing: dict[str, str] = {}
    notes: dict[str, str] = {}
    workload_name = args.workload

    def not_here(names, reason=None):
        for name in names:
            metrics[name] = 0.0
            missing[name] = reason or f"not exercised by workload {workload_name}"

    metrics["data.synth_targets_out_of_bound"] = workload.out_of_bound
    metrics["loss.total_loss_ms"] = probes["total_loss_s"] * 1e3
    metrics["loss.total_gradient_ms"] = probes["total_gradient_s"] * 1e3
    metrics["loss.gradient_gb_per_s_computed"] = probes["features_bytes"] / probes["total_gradient_s"] / 1e9
    metrics["loss.total_loss_ms_1t"] = one_thread["total_loss_s"] * 1e3
    metrics["loss.total_gradient_ms_1t"] = one_thread["total_gradient_s"] * 1e3
    for metric, key in (("loss.loss_z_ns_per_elem", "loss_z_s"), ("loss.dloss_dz_ns_per_elem", "dloss_dz_s"),
                        ("transforms.evaluate_ns_per_elem", "evaluate_s"),
                        ("transforms.derivative_ns_per_elem", "derivative_s")):
        metrics[metric] = probes[key] / probes["n_elems"] * 1e9
    metrics["trace.overhead_s"] = median(r.wall for r in results) - median(p.wall for p in plain)

    cli_spans = {"synth": "cli.synth", "fit": "cli.fit", "predict": "cli.predict", "verify": "cli.verify"}
    for command, span in cli_spans.items():
        if any(span in t for t in totals):
            metrics[f"cli.{command}_self_s"] = median(s.get(span, 0.0) for s in selfs)
        else:
            not_here([f"cli.{command}_self_s"])

    if workload_name == "csv_pipeline":
        metrics["data.generate_synthetic_s"] = span_total("data.generate_synthetic")
        for name, span in (("data.write_csv_s", "data.write_csv"), ("data.load_csv_s", "data.load_csv"),
                           ("data.load_feature_csv_s", "data.load_feature_csv")):
            metrics[name] = span_total(span)
        csv_mb = fact("data_csv_bytes") / 1e6
        metrics["data.write_csv_mb_per_s"] = csv_mb / metrics["data.write_csv_s"] if metrics["data.write_csv_s"] else 0.0
        metrics["data.load_csv_mb_per_s"] = csv_mb / metrics["data.load_csv_s"] if metrics["data.load_csv_s"] else 0.0
        metrics["data.bytes_read"] = fact("bytes_read")
        metrics["data.bytes_written"] = fact("bytes_written")
    else:
        metrics["data.generate_synthetic_s"] = setup_tracer.totals().get("data.generate_synthetic", 0.0)
        notes["data.generate_synthetic_s"] = "called in set-up only; value is the set-up calls' total"
        not_here(["data.write_csv_s", "data.write_csv_mb_per_s", "data.load_csv_s", "data.load_csv_mb_per_s",
                  "data.load_feature_csv_s", "data.bytes_read", "data.bytes_written"])

    if workload_name == "certify":
        metrics["loss.total_loss_us_small"] = probes["total_loss_s"] * 1e6
        metrics["convexity.battery_s"] = span_total("convexity.verification_battery")
        metrics["convexity.midpoint_check_ms"] = probes["midpoint_s"] * 1e3
        metrics["convexity.monotonicity_check_ms"] = probes["monotonicity_s"] * 1e3
        metrics["convexity.witness_search_ms"] = probes["witness_s"] * 1e3
        metrics["convexity.fd_hessian_s"] = span_total("convexity.fd_hessian_psd_check")
        d = workload.dataset.n_features
        metrics["convexity.fd_hessian_loss_evals"] = 1 + 2 * d + 2 * d * (d - 1)
        not_here(["solver.gd_fit_s", "solver.iterations", "solver.ms_per_iter", "solver.iter_cost_in_loss_evals",
                  "solver.restart_iterations", "solver.converged_frac", "solver.restart_spread_convex_sqrt",
                  "solver.restart_spread_tanh"])
    else:
        not_here(["loss.total_loss_us_small"], "measured on the certify workload's Hessian dataset only")
        not_here(["convexity.battery_s", "convexity.midpoint_check_ms", "convexity.monotonicity_check_ms",
                  "convexity.witness_search_ms", "convexity.fd_hessian_s", "convexity.fd_hessian_loss_evals"])
        metrics["solver.gd_fit_s"] = span_total("solver.gd_fit")
        metrics["solver.iterations"] = fact("iterations")
        metrics["solver.ms_per_iter"] = metrics["solver.gd_fit_s"] * 1e3 / max(metrics["solver.iterations"], 1)
        metrics["solver.iter_cost_in_loss_evals"] = (
            (metrics["solver.ms_per_iter"] - metrics["loss.total_gradient_ms"]) / metrics["loss.total_loss_ms"])
        notes["solver.iter_cost_in_loss_evals"] = (
            "estimate, not a count: (ms_per_iter - total_gradient_ms) / total_loss_ms")
        terminations = [t for f in facts for t in f["terminations"]]
        metrics["solver.converged_frac"] = terminations.count("converged") / len(terminations)
        if workload_name == "solve_large":
            metrics["solver.restart_iterations"] = fact("restart_iterations")
            metrics["solver.restart_spread_convex_sqrt"] = fact("restart_spread_convex_sqrt")
            metrics["solver.restart_spread_tanh"] = fact("restart_spread_tanh")
        else:
            not_here(["solver.restart_iterations", "solver.restart_spread_convex_sqrt",
                      "solver.restart_spread_tanh"])

    for attr in missing_names:
        missing[f"span:{attr}"] = f"convexreg.cli does not import {attr}; its span was not recorded"
    detail = {"probes": probes, "blas1_child": one_thread, "traced_passes": len(results),
              "untraced_passes": len(plain)}
    return metrics, {"missing": missing, "notes": notes, "detail": detail}


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "convexreg" / "__init__.py").is_file():
        print(f"error: the convexreg sources are missing from {SRC}", file=sys.stderr)
        return 2
    if args.held_out:
        args.seed = HELD_OUT_SEED
    threads = "1" if args.child == "blas1" else str(blas_threads())
    for var in BLAS_THREAD_VARS:
        os.environ[var] = threads
    sys.path[:0] = [str(SRC), str(HERE), str(REFERENCE)]
    if args.child:
        print(json.dumps(child_main(args)))
        return 0

    from tracing import Tracer

    setup_tracer = Tracer()
    workload = build(args, setup_tracer.span if args.trace else None)
    try:
        if args.trace:
            plain, traced_passes, checks, missing_names = measure_traced(workload, args.seconds)
            metrics, extra = per_layer(args, workload, plain, traced_passes, setup_tracer, missing_names)
            units = PER_LAYER
            OUT.mkdir(parents=True, exist_ok=True)
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps({
                "setup": setup_tracer.to_json(),
                "passes": [tracer.to_json() for _, tracer in traced_passes],
            }) + "\n", encoding="utf-8")
            extra["trace_file"] = str(trace_file.relative_to(ROOT))
        else:
            pairs, checks = measure_pairs(workload, build(args, package="convexreg_ref"), args.seconds)
            metrics, extra = end_to_end(args, pairs)
            units = END_TO_END
            checks += extra.pop("rss_checks")
    finally:
        shutil.rmtree(workdir_for(os.getpid()), ignore_errors=True)

    failed = [c for c in checks if not c["ok"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out": args.held_out,
        "smoke": args.smoke,
        "trace": args.trace,
        "environment": environment(),
        "ops_failed_frac": len(failed) / len(checks),
        "failed_checks": failed,
        **extra,
    }
    table = {name: (metrics[name], unit) for name, unit in units.items()}
    if not args.trace:
        table["wall_s"] = (extra["detail"]["wall_s"]["median"], "s")
        for stage, q in extra["detail"]["stages"].items():
            table[stage] = (q["median"], "s")
    for name, (value, unit) in table.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
