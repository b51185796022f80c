"""Pipeline orchestration: staged runs, persistence, manifests.

A run executes geometry -> labeling -> spectral -> subordination ->
verification and writes tables (CSV), reports (JSON), plot data plus a
gnuplot script, and a manifest with per-stage timings and a checksummed file
inventory.  All numeric output is formatted with 17 significant digits and
written in deterministic order, so identical configs reproduce identical
bytes, whether the eigen cache was cold or warm and whatever the core count:
the verify stage runs its report jobs on threads, but each job computes the
same bytes on any thread.  The stages write into a staging directory, and
the files move into place only once the last stage has run, so a failed run
leaves the outputs of the last finished run as they were; a later run removes
the staging directory of a process that was killed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np
import scipy

from . import __version__, bounds
from .bounds import (
    BoundReport,
    ReflectionStudy,
    claim_entry,
    relativistic_comparison_reports,
    stable_comparison_reports,
)
from .config import ConfigError, RunConfig
from .geometry import validate_snf
from .kernels import KernelCache
from .labeling import build_good_labeling
from .subordinate import crosscheck_subordination
from .subordinators import CHECK_TIMES

STAGES = ("validate", "labeling", "spectral", "subordinate", "verify", "report")


class PipelineError(RuntimeError):
    pass


def fmt(x: float) -> str:
    return "%.17g" % float(x)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _config_hash(config: RunConfig) -> str:
    """sha256 over every input of a run: the run INI text, the fractal INI
    bytes, the claim constants of ``bounds``, and the fractalheat, numpy and
    scipy versions."""
    claims = (bounds.T_MIN, bounds.SPREAD_THRESHOLD, bounds.STABILITY_THRESHOLD,
              bounds.DOMINATION_TOL)
    parts = (
        config.raw_text.encode(),
        config.fractal_path.read_bytes(),
        repr(claims).encode(),
        f"fractalheat {__version__} numpy {np.__version__} scipy {scipy.__version__}".encode(),
    )
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


@dataclass
class RunManifest:
    config_hash: str
    artifact_version: str
    timings: dict[str, float]
    inventory: dict[str, str]
    claims_passed: bool

    def to_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "artifact_version": self.artifact_version,
            "timings": self.timings,
            "inventory": self.inventory,
            "claims_passed": self.claims_passed,
        }


@dataclass
class PipelineState:
    config: RunConfig
    cache: KernelCache
    staging: Path  # the outputs are written here, then moved under out_dir
    written: list[Path] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    # the bounds.json entry of each claim, by (subordinator label, report name)
    claims: dict[tuple[str, str], dict] = field(default_factory=dict)
    plot_rows: dict[str, list[tuple]] = field(default_factory=dict)
    claims_passed: bool = True
    # the (i, j) vertex pairs of the kernel tables, drawn in the spectral stage
    table_pairs_idx: np.ndarray | None = None

    def out(self, rel: str) -> Path:
        path = self.staging / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        self.written.append(path)
        return path


# ---------------------------------------------------------------------------
# Stages


def _stage_validate(state: PipelineState) -> None:
    cfg = state.config
    report = validate_snf(cfg.system)
    payload = {
        "fractal": cfg.system.name,
        "axioms": {
            r.name: {"pass": r.passed, "detail": r.detail} for r in report.results
        },
        "ok": report.ok,
    }
    _write_json(state.out("reports/validation.json"), payload)
    if not report.ok:
        raise PipelineError(f"fractal fails validation:\n{report.summary()}")


def _stage_labeling(state: PipelineState) -> None:
    cfg = state.config
    label_map = build_good_labeling(cfg.system, cfg.M, cfg.window)
    state.out("reports/labeling.txt").write_text(label_map.to_text())


def _write_table(state: PipelineState, rel: str, kernel, spec=None) -> None:
    """Kernel values at the seeded table pairs for each kernel time; a
    subordinate table carries the subordinator label in its last column."""
    cfg = state.config
    i, j = state.table_pairs_idx.T
    exponent, header, suffix = None, "", ""
    if spec is not None:
        exponent, header, suffix = spec.laplace_exponent, ",subordinator", f",{spec.label()}"
    with state.out(rel).open("w") as fh:
        fh.write(f"M,n,t,x_index,y_index,value{header}\n")
        for t in cfg.kernel_times:
            for a, b, v in zip(i, j, kernel.value(t, i, j, exponent)):
                fh.write(f"{cfg.M},{cfg.n},{fmt(t)},{a},{b},{fmt(v)}{suffix}\n")


def _stage_spectral(state: PipelineState) -> None:
    cfg = state.config
    folded = state.cache.kernel(cfg.system, cfg.M, cfg.n)
    window = state.cache.kernel(cfg.system, cfg.window, cfg.n)
    rng = np.random.default_rng(cfg.seed)
    n = folded.n
    state.table_pairs_idx = rng.integers(0, n, size=(min(cfg.table_pairs, n * n), 2))
    _write_table(state, f"tables/heat_M{cfg.M}_n{cfg.n}.csv", folded)
    metrics = {
        "conservativeness_residual": {
            fmt(t): fmt(folded.conservativeness_residual(t)) for t in cfg.kernel_times
        },
        "spectral_gap": fmt(folded.spectral_gap),
        "window_spectral_gap": fmt(window.spectral_gap),
        "n_vertices": folded.n,
        "window_vertices": window.n,
    }
    _write_json(state.out("reports/kernel_metrics.json"), metrics)


def _stage_subordinate(state: PipelineState) -> None:
    cfg = state.config
    folded = state.cache.kernel(cfg.system, cfg.M, cfg.n)
    payload = {}
    for spec in cfg.subordinators:
        _write_table(state, f"tables/subordinate_{_file_stem(spec.label())}.csv", folded, spec)
        check = crosscheck_subordination(
            folded, spec, times=CHECK_TIMES,
            n_samples=cfg.crosscheck_samples, seed=cfg.seed,
        )
        payload[spec.label()] = {
            "max_rel_error": fmt(check.max_rel_error),
            "n_samples": check.n_samples,
        }
    _write_json(state.out("reports/subordination.json"), payload)


def _collect_plot_rows(study: ReflectionStudy, report: BoundReport):
    """(t, r, kernel, form, ratio) plot rows from the report's own samples."""
    dist = study.geodesic_distances()
    return [(t, float(dist[i, j]), k, f, q) for t, i, j, k, f, q in report.samples]


def _bound_reports(study: ReflectionStudy, spec, cfg: RunConfig) -> dict[str, BoundReport]:
    """One subordinator's bound reports at one study's depth."""
    common = dict(n_times=cfg.n_times, flat_span=cfg.flat_span, seed=cfg.seed)
    if spec.kind == "stable":
        return stable_comparison_reports(
            study, spec.alpha, bracket_tol=cfg.bracket_tol, **common
        )
    return relativistic_comparison_reports(study, spec.alpha, spec.m, **common)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_jobs(jobs, longest_first) -> list:
    """The results of the zero-argument ``jobs``, in their order.

    The calling thread runs the first job of ``longest_first`` (an order of
    the job indices) and at most one worker thread per further usable CPU
    runs the rest, in that order; with one CPU the jobs run one after the
    other in the calling thread.  The first exception in job order is
    re-raised, with workers once every job has ended.  The GEMMs release the
    GIL, so the jobs overlap; BLAS stays at one thread per call, so a job
    computes the same bytes on any thread.
    """
    workers = min(_usable_cpus() - 1, len(jobs) - 1)
    if workers < 1:
        return [job() for job in jobs]
    head, *rest = longest_first
    with ThreadPoolExecutor(workers) as pool:
        futures = {k: pool.submit(jobs[k]) for k in rest}
        futures[head] = own = Future()
        try:
            own.set_result(jobs[head]())
        except Exception as exc:
            own.set_exception(exc)
    return [futures[k].result() for k in range(len(jobs))]


def _stage_verify(state: PipelineState) -> None:
    cfg = state.config
    fine, coarse = (
        ReflectionStudy.build(cfg.system, cfg.M, depth, cfg.window, state.cache)
        for depth in (cfg.n, cfg.n - 1)
    )
    tasks = [(spec, study) for spec in cfg.subordinators for study in (fine, coarse)]
    # the stable jobs read the killed kernels: built here, before the jobs,
    # a cold run's decompositions neither overlap a relativistic job nor
    # leave their transients in a worker thread's malloc arena
    if any(spec.kind == "stable" for spec in cfg.subordinators):
        for study in (fine, coarse):
            study.dirichlet()
    # the fine graph is the larger, and a relativistic job makes 4 passes
    # over it where a stable one makes 2
    longest_first = sorted(
        range(len(tasks)),
        key=lambda k: (tasks[k][1] is not fine, tasks[k][0].kind != "relativistic"),
    )
    reports = _run_jobs(
        [partial(_bound_reports, study, spec, cfg) for spec, study in tasks], longest_first
    )
    all_reports: dict[str, dict] = {}
    passed = True
    for k, spec in enumerate(cfg.subordinators):
        fine_reports, coarse_reports = reports[2 * k], reports[2 * k + 1]
        for name, rep in fine_reports.items():
            entry = claim_entry(coarse_reports[name], rep)
            all_reports[rep.claim] = entry
            state.claims[spec.label(), name] = entry
            passed &= entry["pass"]
            key = f"{spec.label()}:{name}"
            state.plot_rows[key] = _collect_plot_rows(fine, rep)
    _write_json(state.out("reports/bounds.json"), all_reports)
    state.claims_passed = passed


def _file_stem(label: str) -> str:
    """A subordinator label or plot key as a file-name part:
    ``stable(0.5)`` -> ``stable_0.5``, ``relativistic(0.5,1):flat`` ->
    ``relativistic_0.5_1-flat``."""
    return label.replace("(", "_").replace(")", "").replace(",", "_").replace(":", "-")


def emit_plot_data(plot_rows: dict[str, list[tuple]], outdir: Path) -> list[Path]:
    """Per-claim CSVs (t, r, kernel, form, ratio) plus a gnuplot script."""
    outdir = Path(outdir)
    if plot_rows:
        outdir.mkdir(parents=True, exist_ok=True)
    files: list[Path] = []
    for key in sorted(plot_rows):
        rows = plot_rows[key]
        path = outdir / f"claim_{_file_stem(key)}.csv"
        with path.open("w") as fh:
            fh.write("t,r,kernel,form,ratio\n")
            for t, r, kern, formval, ratio in rows:
                fh.write(f"{fmt(t)},{fmt(r)},{fmt(kern)},{fmt(formval)},{fmt(ratio)}\n")
        files.append(path)
    if plot_rows:
        script = outdir / "plots.gp"
        lines = [
            "set datafile separator ','",
            "set logscale xy",
            "set key outside",
            "set xlabel 't'",
            "set ylabel 'ratio kernel/form'",
        ]
        for path in files:
            lines.append(
                f"plot '{path.name}' every ::1 using 1:5 with points title '{path.stem}'"
            )
            lines.append("pause -1")
        script.write_text("\n".join(lines) + "\n")
        files.append(script)
    return files


def _stage_report(state: PipelineState) -> None:
    plot_files = emit_plot_data(state.plot_rows, state.staging / "plots")
    state.written.extend(plot_files)
    lines = [f"fractalheat run summary (version {__version__})"]
    for _, entry in sorted(state.claims.items()):
        status = "pass" if entry["pass"] else "FAIL"
        lines.append(
            f"{status}  {entry['claim']}: spread {entry['spread']:.4g}, "
            f"stability {entry['stability']:.3f}"
        )
    summary = state.out("reports/summary.txt")
    summary.write_text("\n".join(lines) + "\n")


def _remove_dead_staging(out_dir: Path) -> None:
    """Remove every ``.staging-<pid>-*`` directory of ``out_dir`` whose
    process is gone, as a run killed before its cleanup leaves one; one
    whose process is alive, or whose name carries no pid, stays."""
    for path in out_dir.glob(".staging-*-*"):
        try:
            os.kill(int(path.name.split("-")[1]), 0)
        except ProcessLookupError:
            shutil.rmtree(path, ignore_errors=True)
        except (ValueError, OverflowError, OSError):  # no pid, or alive as another user
            pass


def run_pipeline(
    config: RunConfig, last_stage: str = "report", cache: KernelCache | None = None
) -> RunManifest:
    """Execute stages through ``last_stage`` and move their outputs under
    ``out_dir``; on error the outputs already there stay as they were."""
    if last_stage not in STAGES:
        raise ConfigError(f"unknown stage {last_stage!r}; expected one of {STAGES}")
    config.validate()
    cache = cache or KernelCache(directory=config.out_dir / "cache")
    config.out_dir.mkdir(parents=True, exist_ok=True)
    _remove_dead_staging(config.out_dir)
    staging = Path(tempfile.mkdtemp(prefix=f".staging-{os.getpid()}-", dir=config.out_dir))
    state = PipelineState(config=config, cache=cache, staging=staging)
    stage_fns = {
        "validate": _stage_validate,
        "labeling": _stage_labeling,
        "spectral": _stage_spectral,
        "subordinate": _stage_subordinate,
        "verify": _stage_verify,
        "report": _stage_report,
    }
    last_index = STAGES.index(last_stage)
    try:
        for stage in STAGES[: last_index + 1]:
            t0 = time.perf_counter()
            stage_fns[stage](state)
            state.timings[stage] = time.perf_counter() - t0
        inventory = {
            str(p.relative_to(staging)): _sha256(p) for p in sorted(set(state.written))
        }
        manifest = RunManifest(
            config_hash=_config_hash(config),
            artifact_version=__version__,
            timings={k: round(v, 6) for k, v in state.timings.items()},
            inventory=inventory,
            claims_passed=state.claims_passed,
        )
        _write_json(staging / "manifest.json", manifest.to_dict())
        # the manifest goes last, so one left on disk always matches its files
        manifest_path = config.out_dir / "manifest.json"
        manifest_path.unlink(missing_ok=True)
        for rel in inventory:
            target = config.out_dir / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(staging / rel, target)
        os.replace(staging / "manifest.json", manifest_path)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return manifest
