"""fractalheat benchmark: ``report-cold``, ``report-warm`` and ``density``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload report-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each workload runs in this one process (its set-ups run in child processes)
and repeats one operation through the public API until ``--seconds`` have
passed.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced operations and reports the
per-layer metrics of the traced ones.  The last line of standard output is
one JSON object.  NOTES.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from statistics import median

from env import CheckoutError, describe, pin_blas, use_checkout_source

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
WORKLOADS = ("report-cold", "report-warm", "density")
SETUP_REPEATS = 3
SETUP_TIMEOUT = 150

# The report workloads run configs/default-run.ini at depth 4 instead of the
# shipped 5: one cold report at depth 5 takes about 50 s on 2 cores, more than
# a whole benchmark run may.  Every stage, claim and eigendecomposition of the
# shipped run is still there, each graph a third of the size.
REPORT_CONFIG = "configs/default-run.ini"
REPORT_DEPTH = 4
REFERENCE_SEED = 20240801  # the seed default-run.ini ships

DENSITY_SPECS = ("stable:0.3", "stable:0.7", "relativistic:0.7,1")
DENSITY_TIMES = (0.5, 1.0, 2.0)
# every 6th point of logspace(-3, 3, 13), i.e. 1e-3, 1 and 1e3: the full grid
# takes 30 s per pass, this one about a quarter of that
DENSITY_LAMBDA_STRIDE = 6
CROSSCHECK_SPEC = "stable:0.7"
CROSSCHECK_GRAPH = (1, 3)  # M, depth: 123 vertices
CROSSCHECK_TIMES = (0.5, 1.0, 2.0)
CROSSCHECK_SAMPLES = 8


class SetupError(RuntimeError):
    pass


def write_run_ini(root: Path, base: str, depth: int | None, seed: int, path: Path) -> None:
    """The run INI the workload executes: ``base`` with the seed (and depth)
    replaced and the fractal config named by absolute path."""
    parser = configparser.ConfigParser()
    parser.read(root / base)
    run = parser["run"]
    run["fractal"] = str((root / base).parent.resolve() / run["fractal"])
    run["seed"] = str(seed)
    if depth is not None:
        run["n"] = str(depth)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        parser.write(fh)


def _short(x: float) -> float | int:
    return int(x) if float(x).is_integer() and abs(x) < 2**53 else float(f"{x:.12g}")


class Workload:
    """Set-up, one operation and its checks for one workload and seed."""

    def __init__(self, root: Path, name: str, seed: int, quick: bool):
        import numpy as np
        from fractalheat.config import load_run_config, parse_subordinator

        self.root = root
        self.name = name
        self.seed = seed
        self.work = root / ".bench_work" / f"{name}-seed{seed}-pid{os.getpid()}"
        self.ini = self.work / "run.ini"
        base = "configs/quick-run.ini" if quick else REPORT_CONFIG
        write_run_ini(root, base, None if quick else REPORT_DEPTH, seed, self.ini)
        self.cfg = load_run_config(self.ini)
        self.reference = None
        if name != "density" and not quick and seed == REFERENCE_SEED and REFERENCE.exists():
            self.reference = json.loads(REFERENCE.read_text())
        self.fill_inventory = None
        stride = 12 if quick else DENSITY_LAMBDA_STRIDE
        self.lambdas = tuple(float(x) for x in np.logspace(-3, 3, 13)[::stride])
        self.density_times = (1.0,) if quick else DENSITY_TIMES
        self.density_specs = [parse_subordinator(s) for s in DENSITY_SPECS]
        self.crosscheck_spec = parse_subordinator(CROSSCHECK_SPEC)
        self.crosscheck_samples = 2 if quick else CROSSCHECK_SAMPLES

    def setup_times(self) -> list[float]:
        """Wall time of SETUP_REPEATS fresh processes, each importing the
        package, loading the config and preparing the workload; for
        report-warm the last one's cold run is the cache the workload reads."""
        times = []
        for k in range(SETUP_REPEATS):
            fill = self.work / f"fill{k}"
            cmd = [sys.executable, str(HERE / "prepare.py"), "--workload", self.name,
                   "--ini", str(self.ini), "--out", str(fill)]
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True,
                                      timeout=SETUP_TIMEOUT)
            except subprocess.TimeoutExpired as exc:
                raise SetupError(f"set-up {k} took over {SETUP_TIMEOUT} s") from exc
            times.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                raise SetupError(f"set-up {k} exited {proc.returncode}: {proc.stderr[-2000:]}")
            if k < SETUP_REPEATS - 1:
                shutil.rmtree(fill, ignore_errors=True)
        if self.name == "report-warm":
            self.fill = fill
            self.fill_inventory = json.loads((fill / "manifest.json").read_text())["inventory"]
        return times

    # -- operations ------------------------------------------------------

    def run_op(self, index: int, tracer=None):
        """Run one operation; returns (seconds, problems, output-derived layer numbers)."""
        if self.name == "density":
            return self._density_op(tracer)
        return self._report_op(index, tracer)

    def _report_op(self, index: int, tracer):
        from fractalheat import pipeline
        from fractalheat.kernels import KernelCache
        from checks import check_reference, check_report, differing_files
        from layertrace import traced

        cold = self.name == "report-cold"
        out = self.work / f"op{index}"
        cfg = dataclasses.replace(self.cfg, out_dir=out)
        cache = KernelCache(directory=(out if cold else self.fill) / "cache")
        with traced(tracer) if tracer else nullcontext():
            t0 = time.perf_counter()
            manifest = pipeline.run_pipeline(cfg, cache=cache)
            seconds = time.perf_counter() - t0
        kernels = {
            f"M={level},n={depth},{bc}": cache.kernel(cfg.system, level, depth, bc)
            for depth in (cfg.n, cfg.n - 1)
            for level, bc in ((cfg.M, "neumann"), (cfg.window, "neumann"),
                              (cfg.window, "dirichlet"))
        }
        problems = check_report(out, manifest, cfg, kernels, len(kernels) if cold else None)
        if self.reference is not None:
            problems += check_reference(out, self.reference)
        bounds = json.loads((out / "reports/bounds.json").read_text())
        files = [p for p in out.rglob("*") if p.is_file() and "cache" not in p.relative_to(out).parts]
        extras = {
            "bounds.claims": len(bounds),
            "bounds.claims_failed": sum(1 for v in bounds.values() if not v["pass"]),
            "pipeline.output_files": len(files),
            "pipeline.output_bytes": sum(p.stat().st_size for p in files),
        }
        if tracer is not None:
            if cold:
                # a warm rerun on this run's cache, compared file by file
                warm = dataclasses.replace(self.cfg, out_dir=self.work / f"op{index}-warm")
                rerun = pipeline.run_pipeline(warm, cache=KernelCache(directory=out / "cache"))
                other = rerun.inventory
            else:
                other = self.fill_inventory
            extras["pipeline.cold_warm_differing_files"] = differing_files(
                other, manifest.inventory
            )
            shutil.rmtree(self.work / f"op{index}-warm", ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)
        return seconds, problems, extras

    def _density_op(self, tracer):
        from fractalheat import kernels, subordinate, subordinators
        from checks import check_density
        from layertrace import traced

        with traced(tracer) if tracer else nullcontext():
            t0 = time.perf_counter()
            verifications = [
                subordinators.verify_density(spec, t_values=self.density_times,
                                             lam_grid=self.lambdas)
                for spec in self.density_specs
            ]
            kern = kernels.KernelCache().kernel(self.cfg.system, *CROSSCHECK_GRAPH)
            crosscheck = subordinate.crosscheck_subordination(
                kern, self.crosscheck_spec, times=CROSSCHECK_TIMES,
                n_samples=self.crosscheck_samples, seed=self.seed,
            )
            seconds = time.perf_counter() - t0
        problems = check_density(verifications, crosscheck, self.crosscheck_samples)
        extras = {
            "bounds.claims": 0,
            "bounds.claims_failed": 0,
            "pipeline.output_files": 0,
            "pipeline.output_bytes": 0,
            "pipeline.cold_warm_differing_files": 0,
        }
        return seconds, problems, extras

    def write_reference(self) -> None:
        """Store every number of one report run at this seed as the reference."""
        from fractalheat import pipeline
        from checks import ATOL, RTOL, output_numbers

        out = self.work / "reference-run"
        pipeline.run_pipeline(dataclasses.replace(self.cfg, out_dir=out))
        header = {"config": REPORT_CONFIG, "depth": REPORT_DEPTH, "seed": self.seed,
                  "rtol": RTOL, "atol": ATOL}
        # 12 significant digits: far inside RTOL, and a third smaller on disk
        files = {
            name: {k: _short(v) for k, v in nums.items()} if isinstance(nums, dict)
            else [_short(v) for v in nums]
            for name, nums in output_numbers(out).items()
        }
        lines = [f" {json.dumps(k)}: {json.dumps(v)}," for k, v in header.items()]
        lines += [' "files": {']
        lines += [f"  {json.dumps(k)}: {json.dumps(v)}," for k, v in sorted(files.items())]
        lines[-1] = lines[-1].rstrip(",")
        REFERENCE.write_text("{\n" + "\n".join(lines) + "\n }\n}\n")


def measure(workload: Workload, seconds: float, trace: bool):
    """Repeat the operation until ``seconds`` have passed (at least once, and
    with tracing at least one untraced and one traced operation)."""
    from layertrace import Tracer

    untraced, traced_runs, failures = [], [], 0
    deadline = time.perf_counter() + seconds
    index = 0
    while index < (2 if trace else 1) or time.perf_counter() < deadline:
        tracer = Tracer() if trace and index % 2 == 1 else None
        t0 = time.perf_counter()
        try:
            op_seconds, problems, extras = workload.run_op(index, tracer)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            op_seconds, problems, extras = time.perf_counter() - t0, [f"{type(exc).__name__}: {exc}"], {}
        if problems:
            failures += 1
            print(f"operation {index} failed: {'; '.join(problems)}", file=sys.stderr)
        if tracer is None:
            untraced.append(op_seconds)
        else:
            layers = tracer.layer_metrics(op_seconds)
            layers.update(extras)
            traced_runs.append({"metrics": layers, "spans": tracer.spans_dump()})
        index += 1
    return untraced, traced_runs, failures, index


def run_workload(root: Path, args) -> int:
    workload = Workload(root, args.workload, args.seed, args.quick)
    try:
        if args.write_reference:
            if args.quick or args.workload == "density" or args.seed != REFERENCE_SEED:
                raise SetupError(f"the reference is a report run at seed {REFERENCE_SEED}")
            workload.write_reference()
            print(f"wrote {REFERENCE}")
            return 0
        setups = workload.setup_times()
        # lazy imports inside fractalheat, paid once per process
        import scipy.optimize  # noqa: F401
        import scipy.sparse.csgraph  # noqa: F401

        untraced, traced_runs, failures, attempted = measure(workload, args.seconds, args.trace)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workload.work, ignore_errors=True)

    env = describe()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    if args.trace:
        from layertrace import LAYER_METRICS

        names = [n for n in LAYER_METRICS if n != "trace.overhead_s"]
        # an operation that raised has no output-derived numbers; it already
        # made the run incorrect
        layers = {n: median([r["metrics"].get(n, 0.0) for r in traced_runs]) for n in names}
        layers["trace.overhead_s"] = median([r["metrics"]["trace.run_s"] for r in traced_runs]) - median(untraced)
        metrics = {n: {"value": layers[n], "unit": LAYER_METRICS[n]} for n in LAYER_METRICS}
        for n, m in metrics.items():
            print(f"  {n:40s} {m['value']:.6g} {m['unit']}  (median of {len(traced_runs)} traced ops)")
        trace_path = root / ".bench_work" / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps({"environment": env, "untraced_run_s": untraced,
                                          "operations": traced_runs}) + "\n")
        print(f"spans written to {trace_path.relative_to(root)}")
    else:
        metrics = {
            "run_s": {"value": median(untraced), "unit": "s"},
            "setup_s": {"value": median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print(f"  run_s        {median(untraced):.4f} s   median of {len(untraced)} ops: "
              + " ".join(f"{x:.4f}" for x in untraced))
        print(f"  setup_s      {median(setups):.4f} s   median of {len(setups)} set-ups: "
              + " ".join(f"{x:.4f}" for x in setups))
        print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB  ru_maxrss of this process")
    print(f"  failed_ratio {failures / attempted:.4g}     {failures} of {attempted} operations failed")
    print(json.dumps({"correct": failures == 0, "attempted": attempted,
                      "failed": failures, "metrics": metrics}))
    return 0


def run_all(root: Path, args) -> int:
    """Every workload in its own process, then one table."""
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    print(f"{'workload':12s} {'run_s [s]':>10s} {'setup_s [s]':>12s} {'peak_rss_mb [MB]':>17s} "
          f"{'failed_ratio':>13s} {'ops':>4s}")
    for name, res in rows:
        m = res["metrics"]
        print(f"{name:12s} {m['run_s']['value']:10.4f} {m['setup_s']['value']:12.4f} "
              f"{m['peak_rss_mb']['value']:17.1f} {res['failed'] / res['attempted']:13.4g} "
              f"{res['attempted']:4d}")
    return 0 if all(res["correct"] for _, res in rows) else 1


def main(argv=None) -> int:
    pin_blas()
    parser = argparse.ArgumentParser(description="fractalheat benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="configs/quick-run.ini and a density pass at t = 1, lambda = 1e-3, 1e3 "
                        "(self-test)")
    parser.add_argument("--write-reference", action="store_true",
                        help="store the numbers of one report run as perfbench/reference.json")
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        use_checkout_source(root)
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(root, args)
    try:
        return run_workload(root, args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
