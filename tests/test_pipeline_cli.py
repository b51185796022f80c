import dataclasses
import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import threading
import time
import zipfile
from pathlib import Path

import numpy as np
import pytest

import fractalheat
from fractalheat import bounds, kernels, pipeline
from fractalheat.bounds import PLOT_PAIRS, ReflectionStudy
from fractalheat.cli import _BLAS_VARS
from fractalheat.config import load_run_config
from fractalheat.kernels import KernelCache, KernelError
from fractalheat.pipeline import emit_plot_data, run_pipeline

CONFIGS = Path(__file__).parent.parent / "configs"
PERFBENCH = Path(__file__).parent.parent / "perfbench"


def _quick_config(tmp_path, out_name="out", **overrides):
    text = (CONFIGS / "quick-run.ini").read_text()
    text = text.replace(
        "fractal = gasket.ini", f"fractal = {CONFIGS / 'gasket.ini'}"
    ).replace("out = out-quick", f"out = {tmp_path / out_name}")
    for key, value in overrides.items():
        old = next(
            line for line in text.splitlines() if line.startswith(f"{key} = ")
        )
        text = text.replace(old, f"{key} = {value}")
    path = tmp_path / "run.ini"
    path.write_text(text)
    return path


def _tracked_files(outdir: Path):
    return {
        str(p.relative_to(outdir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.rglob("*"))
        if p.is_file() and p.suffix in (".csv", ".json", ".txt", ".gp")
        and p.name != "manifest.json"
    }


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    """One cold quick run; tests that change its files work on copies."""
    cfg = load_run_config(_quick_config(tmp_path_factory.mktemp("quick")))
    return cfg, run_pipeline(cfg)


class TestPipeline:
    def test_manifest_inventory_matches_disk(self, tmp_path):
        cfg = load_run_config(_quick_config(tmp_path))
        manifest = run_pipeline(cfg)
        assert manifest.claims_passed
        for rel, digest in manifest.inventory.items():
            path = cfg.out_dir / rel
            assert path.exists()
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_summary_gives_the_verdict_of_bounds_json(self, tmp_path, monkeypatch):
        # a tight stability threshold fails claims whose spread passes
        monkeypatch.setattr(bounds, "STABILITY_THRESHOLD", 0.02)
        cfg = load_run_config(_quick_config(tmp_path))
        assert not run_pipeline(cfg).claims_passed
        entries = json.loads((cfg.out_dir / "reports/bounds.json").read_text())
        assert any(e["spread"] <= bounds.SPREAD_THRESHOLD and not e["stability_pass"]
                   for e in entries.values())
        lines = (cfg.out_dir / "reports/summary.txt").read_text().splitlines()[1:]
        status = {line.split("  ")[1].split(": ")[0]: line.split("  ")[0] for line in lines}
        assert status == {c: "pass" if e["pass"] else "FAIL" for c, e in entries.items()}

    def test_identical_runs_reproduce_bytes(self, tmp_path):
        path = _quick_config(tmp_path)
        cfg_a = load_run_config(path, out_override=tmp_path / "a")
        cfg_b = load_run_config(path, out_override=tmp_path / "b")
        man_a = run_pipeline(cfg_a)
        man_b = run_pipeline(cfg_b)
        assert man_a.inventory == man_b.inventory
        assert man_a.config_hash == man_b.config_hash
        assert _tracked_files(cfg_a.out_dir) == _tracked_files(cfg_b.out_dir)

    def test_failure_removes_partial_outputs(self, tmp_path):
        # an impossible truncation bracket aborts the verify stage; both
        # stable jobs fail, and the error is the fine one's, the first in
        # serial job order, whichever thread ran it
        cfg = load_run_config(_quick_config(tmp_path, bracket_tol="1e-6"))
        threads = threading.active_count()
        with pytest.raises(KernelError) as err:
            run_pipeline(cfg)
        assert str(err.value) == (
            "free-kernel truncation bracket 0.754 exceeds 1e-06; "
            "increase the window level beyond 1"
        )
        assert threading.active_count() == threads
        leftovers = [
            p for p in cfg.out_dir.rglob("*")
            if p.is_file() and "cache" not in p.parts
        ]
        assert leftovers == []

    def test_stage_prefix_runs(self, tmp_path):
        cfg = load_run_config(_quick_config(tmp_path))
        manifest = run_pipeline(cfg, last_stage="spectral")
        names = set(manifest.inventory)
        assert any(n.startswith("tables/heat") for n in names)
        assert not any(n.startswith("reports/bounds") for n in names)

    def test_cold_and_warm_cache_reproduce_bytes(self, tmp_path):
        path = _quick_config(tmp_path)
        cold = load_run_config(path, out_override=tmp_path / "cold")
        warm = load_run_config(path, out_override=tmp_path / "warm")
        man_cold = run_pipeline(cold)
        man_warm = run_pipeline(warm, cache=KernelCache(directory=cold.out_dir / "cache"))
        assert man_cold.inventory == man_warm.inventory

    def test_plot_csv_ratios_within_report_range(self, tmp_path):
        cfg = load_run_config(_quick_config(tmp_path))
        run_pipeline(cfg)
        bounds = json.loads((cfg.out_dir / "reports/bounds.json").read_text())
        plots = sorted((cfg.out_dir / "plots").glob("claim_*.csv"))
        assert len(plots) == len(bounds)
        for rep in bounds.values():
            spec = "stable_0.5" if rep["claim"].startswith("stable") else "relativistic_0.5_1"
            csv_path = cfg.out_dir / "plots" / f"claim_{spec}-{rep['regime']}.csv"
            rows = [
                [float(x) for x in line.split(",")]
                for line in csv_path.read_text().splitlines()[1:]
            ]
            for _, _, kern, form, ratio in rows:
                if rep["regime"] == "domination":
                    assert form - kern <= rep["max_violation"]
                else:
                    assert rep["min_ratio"] <= ratio <= rep["max_ratio"]

    def test_plot_csv_rows_fill_each_regime(self, quick_run):
        cfg, _ = quick_run
        cache = KernelCache(directory=cfg.out_dir / "cache")
        study = ReflectionStudy.build(cfg.system, cfg.M, cfg.n, cfg.window, cache)
        n = len(study.sub_indices)
        dist = study.geodesic_distances()
        in_mask = {"regime2": int((dist >= 1.0).sum()), "regime3": int((dist < 1.0).sum())}
        plots = sorted((cfg.out_dir / "plots").glob("claim_*.csv"))
        assert plots
        for path in plots:
            regime = path.stem.rsplit("-", 1)[1]
            pairs = min(PLOT_PAIRS, n, in_mask.get(regime, n * n))
            rows = path.read_text().splitlines()[1:]
            assert len(rows) == cfg.n_times * pairs, path.name

    def test_table_rows_match_kernel_matrix(self, quick_run):
        cfg, _ = quick_run
        kern = KernelCache(directory=cfg.out_dir / "cache").kernel(cfg.system, cfg.M, cfg.n)
        exponents = {None: None}
        exponents.update((spec.label(), spec.laplace_exponent) for spec in cfg.subordinators)
        checked = 0
        for path in sorted((cfg.out_dir / "tables").glob("*.csv")):
            for line in path.read_text().splitlines()[1:]:
                fields = line.split(",", 6)
                t, i, j, value = float(fields[2]), int(fields[3]), int(fields[4]), float(fields[5])
                exponent = exponents[fields[6] if len(fields) > 6 else None]
                expected = kern.matrix(t, exponent=exponent)[i, j]
                assert value == pytest.approx(expected, rel=1e-12), (path.name, line)
                checked += 1
        assert checked == (1 + len(cfg.subordinators)) * len(cfg.kernel_times) * cfg.table_pairs

    def test_failed_rerun_keeps_the_last_good_outputs(self, tmp_path):
        # the rerun fails in the verify stage, after it has written its
        # tables and reports; the last good run's files and manifest stay
        cfg = load_run_config(_quick_config(tmp_path))
        first = run_pipeline(cfg)
        manifest = (cfg.out_dir / "manifest.json").read_bytes()
        rerun = load_run_config(_quick_config(tmp_path, bracket_tol="1e-6"))
        with pytest.raises(KernelError, match="truncation bracket"):
            run_pipeline(rerun)
        for rel, digest in first.inventory.items():
            assert hashlib.sha256((cfg.out_dir / rel).read_bytes()).hexdigest() == digest
        assert (cfg.out_dir / "manifest.json").read_bytes() == manifest
        # nothing of the failed run is left, staging directory included
        assert sorted(p.name for p in cfg.out_dir.iterdir()) == [
            "cache", "manifest.json", "plots", "reports", "tables"
        ]

    def test_staging_of_a_killed_run_is_removed(self, tmp_path):
        # staging directories left by runs killed before their cleanup:
        # one whose process has exited goes; one whose process is alive, and
        # one whose name carries no pid, stay
        cfg = load_run_config(_quick_config(tmp_path))
        exited = subprocess.Popen([sys.executable, "-c", "pass"])
        exited.wait(timeout=60)
        alive = subprocess.Popen([sys.executable, "-c", "input()"], stdin=subprocess.PIPE)
        try:
            dead = cfg.out_dir / f".staging-{exited.pid}-abc"
            live = cfg.out_dir / f".staging-{alive.pid}-def"
            unnamed = cfg.out_dir / ".staging-ghi"
            for path in (dead, live, unnamed):
                (path / "reports").mkdir(parents=True)
                (path / "reports/bounds.json").write_text("{}")
            run_pipeline(cfg, last_stage="validate")
            assert alive.poll() is None
        finally:
            alive.kill()
            alive.wait(timeout=60)
        assert not dead.exists()
        assert live.is_dir() and unnamed.is_dir()
        assert not list(cfg.out_dir.glob(f".staging-{os.getpid()}-*"))

    def test_config_hash_covers_fractal_config(self, tmp_path):
        fractal = tmp_path / "gasket.ini"
        fractal.write_text((CONFIGS / "gasket.ini").read_text())
        run_ini = tmp_path / "run.ini"
        quick = (CONFIGS / "quick-run.ini").read_text()
        run_ini.write_text(quick.replace("out = out-quick", f"out = {tmp_path / 'out'}"))
        before = run_pipeline(load_run_config(run_ini), last_stage="validate")
        fractal.write_text(fractal.read_text() + "# an edited comment\n")
        after = run_pipeline(load_run_config(run_ini), last_stage="validate")
        assert before.inventory == after.inventory
        assert before.config_hash != after.config_hash

    @pytest.mark.parametrize(
        "name", ["T_MIN", "SPREAD_THRESHOLD", "STABILITY_THRESHOLD", "DOMINATION_TOL"]
    )
    def test_config_hash_covers_claim_constants(self, tmp_path, monkeypatch, name):
        cfg = load_run_config(_quick_config(tmp_path))
        before = pipeline._config_hash(cfg)
        monkeypatch.setattr(bounds, name, getattr(bounds, name) * 1.5)
        assert pipeline._config_hash(cfg) != before


def _entries(cache_dir: Path) -> list[Path]:
    return sorted(cache_dir.glob("eig-*.npz"))


def _warm_rerun(cache_dir: Path, out: Path):
    warm = load_run_config(_quick_config(out.parent, out.name))
    return run_pipeline(warm, cache=KernelCache(directory=cache_dir))


def _load_entry(cache_dir: Path, key: str, cfg):
    """The entry ``key`` of a quick run's cache, loaded against its graph."""
    cache = KernelCache(directory=cache_dir)
    graph = next(
        cache.graph(cfg.system, M, depth)
        for M in (cfg.M, cfg.window)
        for depth in (cfg.n, cfg.n - 1)
        for bc in ("neumann", "dirichlet")
        if cache._key(cfg.system, M, depth, bc) == key
    )
    return cache._load(key, graph)


class TestEigenCache:
    def test_cold_run_leaves_only_stored_entries(self, quick_run):
        cfg, _ = quick_run
        cache_dir = cfg.out_dir / "cache"
        assert sorted(cache_dir.iterdir()) == _entries(cache_dir)
        for path in _entries(cache_dir):
            with zipfile.ZipFile(path) as zf:
                assert {m.compress_type for m in zf.infolist()} == {zipfile.ZIP_STORED}

    def test_truncated_entry_is_rebuilt(self, quick_run, tmp_path):
        cfg, cold = quick_run
        cache_dir = tmp_path / "cache"
        shutil.copytree(cfg.out_dir / "cache", cache_dir)
        victim = _entries(cache_dir)[0]
        key = victim.stem.removeprefix("eig-")
        data = victim.read_bytes()
        victim.write_bytes(data[: len(data) // 2])
        assert _load_entry(cache_dir, key, cfg) is None
        warm = _warm_rerun(cache_dir, tmp_path / "warm")
        assert warm.inventory == cold.inventory
        assert _load_entry(cache_dir, key, cfg) is not None

    def test_entry_for_another_key_is_a_miss(self, quick_run, tmp_path):
        cfg, cold = quick_run
        cache_dir = tmp_path / "cache"
        shutil.copytree(cfg.out_dir / "cache", cache_dir)
        source, target = _entries(cache_dir)[:2]
        key = target.stem.removeprefix("eig-")
        target.write_bytes(source.read_bytes())
        assert _load_entry(cache_dir, key, cfg) is None
        warm = _warm_rerun(cache_dir, tmp_path / "warm")
        assert warm.inventory == cold.inventory
        assert _load_entry(cache_dir, key, cfg) is not None

    @staticmethod
    def _count_decompositions(monkeypatch):
        decomposed = []
        for name in ("spectral_decompose", "_dirichlet_kernel"):
            fn = getattr(kernels, name)
            monkeypatch.setattr(
                kernels, name, lambda arg, fn=fn: decomposed.append(arg) or fn(arg)
            )
        return decomposed

    @pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
    @pytest.mark.parametrize("version", ["v1", "v2"])
    def test_entry_under_the_previous_key_version_is_a_miss(
        self, gasket, tmp_path, monkeypatch, version, bc
    ):
        # a v1 entry holds another basis of each degenerate eigenspace, and a
        # v2 killed entry has no rows for the corners, so neither may load
        kern = KernelCache().kernel(gasket, 0, 2, bc)
        text = f"{gasket.fingerprint()}|M=0|n=2|bc={bc}|{version}"
        KernelCache(directory=tmp_path)._store(hashlib.sha256(text.encode()).hexdigest(), kern)
        decomposed = self._count_decompositions(monkeypatch)
        KernelCache(directory=tmp_path).kernel(gasket, 0, 2, bc)
        assert len(decomposed) == 1
        KernelCache(directory=tmp_path).kernel(gasket, 0, 2, bc)  # the entry it stored
        assert len(decomposed) == 1

    def test_entry_with_another_row_count_is_a_miss(self, gasket, tmp_path, monkeypatch):
        # a killed entry over the non-corner vertices only, as v2 stored it
        cache = KernelCache(directory=tmp_path)
        kern = KernelCache().kernel(gasket, 0, 2, "dirichlet")
        keep = np.setdiff1d(np.arange(kern.n), kern.graph.corner_indices())
        short = dataclasses.replace(kern, psi=kern.psi[keep])
        cache._store(cache._key(gasket, 0, 2, "dirichlet"), short)
        decomposed = self._count_decompositions(monkeypatch)
        rebuilt = KernelCache(directory=tmp_path).kernel(gasket, 0, 2, "dirichlet")
        assert len(decomposed) == 1
        assert rebuilt.psi.shape == kern.psi.shape
        KernelCache(directory=tmp_path).kernel(gasket, 0, 2, "dirichlet")
        assert len(decomposed) == 1

    @pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
    def test_entry_with_a_stored_measure_and_flag_loads(
        self, gasket, tmp_path, monkeypatch, bc
    ):
        # entries of key version v3 once also held the measure and the
        # conservative flag; a load ignores both
        kern = KernelCache().kernel(gasket, 0, 2, bc)
        cache = KernelCache(directory=tmp_path)
        key = cache._key(gasket, 0, 2, bc)
        np.savez(
            tmp_path / f"eig-{key}.npz",
            key=np.str_(key),
            eigenvalues=kern.eigenvalues,
            psi=kern.psi,
            mu=kern.mu,
            conservative=np.bool_(kern.conservative),
        )
        decomposed = self._count_decompositions(monkeypatch)
        loaded = cache.kernel(gasket, 0, 2, bc)
        assert decomposed == []
        assert np.array_equal(loaded.eigenvalues, kern.eigenvalues)
        assert np.array_equal(loaded.psi, kern.psi)
        assert loaded.conservative == (bc == "neumann")

    def test_two_threads_get_one_decomposition(self, gasket, tmp_path, monkeypatch):
        # both threads ask for one key of an empty directory cache at once
        decomposed = self._count_decompositions(monkeypatch)
        decompose = kernels.spectral_decompose
        # a slow decomposition, so the second thread asks while it runs
        monkeypatch.setattr(
            kernels, "spectral_decompose", lambda graph: time.sleep(0.2) or decompose(graph)
        )
        cache = KernelCache(directory=tmp_path)
        start = threading.Barrier(2)
        got = []

        def ask():
            start.wait()
            got.append(cache.kernel(gasket, 1, 2))

        threads = [threading.Thread(target=ask) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(decomposed) == 1
        assert len(got) == 2 and got[0] is got[1]
        key = cache._key(gasket, 1, 2, "neumann")
        assert sorted(tmp_path.iterdir()) == [tmp_path / f"eig-{key}.npz"]
        stored = KernelCache(directory=tmp_path)._load(key, cache.graph(gasket, 1, 2))
        assert np.array_equal(stored.psi, got[0].psi)
        assert np.array_equal(stored.eigenvalues, got[0].eigenvalues)


class TestRunJobs:
    def test_results_in_job_order(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 3)
        jobs = [lambda k=k: (k, threading.get_ident()) for k in range(5)]
        results = pipeline._run_jobs(jobs, [3, 0, 4, 1, 2])
        assert [k for k, _ in results] == list(range(5))
        assert results[3][1] == threading.get_ident()  # the longest in this thread

    def test_first_failure_in_job_order_is_raised(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
        threads = threading.active_count()

        def fail(message, delay):
            time.sleep(delay)
            raise KernelError(message)

        # job 1 fails first in time, job 0 first in job order
        jobs = [lambda: fail("first", 0.2), lambda: fail("second", 0.0), lambda: 2]
        with pytest.raises(KernelError, match="^first$"):
            pipeline._run_jobs(jobs, [1, 0, 2])
        assert threading.active_count() == threads

    def test_one_cpu_runs_serially_in_this_thread(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
        ran = []
        jobs = [lambda k=k: ran.append(k) or threading.get_ident() for k in range(3)]
        assert pipeline._run_jobs(jobs, [2, 1, 0]) == [threading.get_ident()] * 3
        assert ran == [0, 1, 2]


def _perfbench(monkeypatch, name: str):
    """The benchmark module perfbench/``name``.py, read only: no bytecode is
    written next to it."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkTracer:
    """The benchmark's layer tracer patches names of the package by string;
    a renamed or bypassed name would silently read zero."""

    def test_every_probe_records_a_cold_quick_run(self, tmp_path, monkeypatch):
        layertrace = _perfbench(monkeypatch, "layertrace")
        cfg = load_run_config(_quick_config(tmp_path))
        tracer = layertrace.Tracer()
        with layertrace.traced(tracer):
            assert run_pipeline(cfg).claims_passed
        # self times read wrong under the threaded verify stage (one span
        # stack for all threads), so only calls and names are checked
        calls = tracer.calls
        claims = json.loads((cfg.out_dir / "reports/bounds.json").read_text())
        assert all(calls[f"pipeline._stage_{stage}"] == 1 for stage in pipeline.STAGES)
        assert calls["bounds.stable_comparison_reports"] == 2
        assert calls["bounds.relativistic_comparison_reports"] == 2
        assert calls["bounds.ReflectionStudy.truncation_bracket"] == 2
        assert calls["pipeline._collect_plot_rows"] == len(claims)
        assert calls["kernels.SpectralKernel.matrix"] > 0
        assert calls["kernels.SpectralKernel.value"] > 0
        assert calls["numpy.linalg.eigh"] > 0
        # three kernels at each of two depths, each decomposed once
        assert calls["decompose"] == 6
        assert tracer.layer_metrics(1.0)["kernels.cache_misses"] == 6
        assert {
            "geometry.validate_snf", "geometry.build_vertex_graph",
            "labeling.build_good_labeling", "kernels.spectral_decompose",
            "kernels._dirichlet_kernel", "subordinate.crosscheck_subordination",
            "bounds.ReflectionStudy.build",
        } <= {span.name for span in tracer.spans}
        assert pipeline.stable_comparison_reports is bounds.stable_comparison_reports


class TestBenchmarkChecks:
    """The checks behind the benchmark's failed count read the eigen-cache
    files and the kernels' eigenvectors, so a change to either would count
    every benchmark operation as failed."""

    def test_a_cold_and_a_warm_quick_run_pass(self, quick_run, tmp_path, monkeypatch):
        checks = _perfbench(monkeypatch, "checks")
        cold_cfg, cold = quick_run
        cache_dir = cold_cfg.out_dir / "cache"
        warm_cfg = load_run_config(_quick_config(tmp_path, "warm"))
        warm = run_pipeline(warm_cfg, cache=KernelCache(directory=cache_dir))
        for cfg, manifest, cache_files in ((cold_cfg, cold, 6), (warm_cfg, warm, None)):
            cache = KernelCache(directory=cache_dir)
            kerns = {
                f"M={M},n={depth},{bc}": cache.kernel(cfg.system, M, depth, bc)
                for depth in (cfg.n, cfg.n - 1)
                for M, bc in ((cfg.M, "neumann"), (cfg.window, "neumann"),
                              (cfg.window, "dirichlet"))
            }
            assert checks.check_report(cfg.out_dir, manifest, cfg, kerns, cache_files) == []


class TestEmitPlotData:
    def test_empty_reports_empty_list(self, tmp_path):
        assert emit_plot_data({}, tmp_path / "plots") == []
        assert not (tmp_path / "plots").exists()

    def test_row_count_contract(self, tmp_path):
        rows = [(0.1 * (i + 1), 0.5, 1.0, 2.0, 0.5) for i in range(12) for _ in range(50)]
        files = emit_plot_data({"demo-claim": rows}, tmp_path / "plots")
        csv_files = [f for f in files if f.suffix == ".csv"]
        assert len(csv_files) == 1
        lines = csv_files[0].read_text().splitlines()
        assert len(lines) == 601  # header + 600 data rows
        script = [f for f in files if f.suffix == ".gp"]
        assert script and "plot" in script[0].read_text()


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "fractalheat", *args],
            capture_output=True,
            text=True,
        )

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
    def test_blas_pinned_to_one_thread(self):
        script = (
            "from fractalheat import cli\n"
            f"cli.main(['validate-fractal', '--config', {str(CONFIGS / 'gasket.ini')!r}])\n"
            "import numpy as np\n"
            "a = np.ones((600, 600))\n"
            "a @ a\n"
            "status = open('/proc/self/status').read().splitlines()\n"
            "print(next(line.split()[1] for line in status if line.startswith('Threads:')))\n"
        )
        env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "1"

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity"
    )
    def test_report_bytes_do_not_depend_on_the_core_count(self, tmp_path):
        # one report in a child pinned to one CPU (serial verify jobs), one
        # on every CPU this process may use
        script = (
            "import os, sys\n"
            "if sys.argv[1] == 'one':\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from fractalheat import cli\n"
            "sys.exit(cli.main(sys.argv[2:]))\n"
        )
        config = _quick_config(tmp_path)
        inventories = {}
        for cpus in ("one", "all"):
            out = tmp_path / cpus
            proc = subprocess.run(
                [sys.executable, "-c", script, cpus, "report", "--config", str(config),
                 "--out", str(out)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            inventories[cpus] = json.loads((out / "manifest.json").read_text())["inventory"]
        assert inventories["one"] == inventories["all"]

    def test_runs_do_not_import_unused_scipy_subpackages(self, tmp_path):
        # neither the imports nor a cold report load scipy.integrate,
        # scipy.spatial, scipy.sparse or scipy.special (each costs a run
        # 0.1-0.4 s of start-up): the package runs on numpy and reads only
        # scipy's version
        script = (
            "import sys\n"
            "import fractalheat.cli, fractalheat.pipeline, fractalheat.subordinate\n"
            "heavy = ('scipy.integrate', 'scipy.spatial', 'scipy.sparse', 'scipy.special')\n"
            "print(*[m for m in heavy if m in sys.modules])\n"
            "from fractalheat.config import load_run_config\n"
            f"cfg = load_run_config({str(_quick_config(tmp_path))!r})\n"
            "assert fractalheat.pipeline.run_pipeline(cfg).claims_passed\n"
            "print(*[m for m in heavy if m in sys.modules])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["", ""]
        assert list((tmp_path / "out").glob("**/eig-*.npz"))  # the run was cold

    def test_every_public_name_resolves(self):
        # a name left in the lazy export table after its definition is gone
        # fails only when it is read, so read them all
        for name in fractalheat.__all__:
            getattr(fractalheat, name)

    def test_validate_fractal_ok(self):
        proc = self._run("validate-fractal", "--config", str(CONFIGS / "gasket.ini"))
        assert proc.returncode == 0
        assert "nesting: pass" in proc.stdout

    def test_validate_fractal_accepts_run_config(self, tmp_path):
        cfg = _quick_config(tmp_path)
        proc = self._run("validate-fractal", "--config", str(cfg))
        assert proc.returncode == 0
        assert "connectivity: pass" in proc.stdout

    @pytest.mark.parametrize(
        "old, new", [("dj = dw", "dj = dw\ndw = 2"), ("osc_attested", "osc_atested")]
    )
    def test_validate_fractal_refuses_a_bad_fractal_config(self, tmp_path, old, new):
        # a repeated key fails the probe that tells the two kinds apart
        bad = tmp_path / "bad.ini"
        bad.write_text((CONFIGS / "gasket.ini").read_text().replace(old, new))
        proc = self._run("validate-fractal", "--config", str(bad))
        assert proc.returncode == 2
        assert proc.stderr.startswith("configuration error:") and str(bad) in proc.stderr

    def test_stage_flag_limits_outputs(self, tmp_path):
        # the subcommand chooses the last stage; there is no --stage flag
        cfg = _quick_config(tmp_path)
        proc = self._run(
            "report", "--config", str(cfg), "--out", str(tmp_path / "x"),
            "--stage", "spectral",
        )
        assert proc.returncode == 2
        assert not (tmp_path / "x").exists()
        proc = self._run("build-kernel", "--config", str(cfg), "--out", str(tmp_path / "s"))
        assert proc.returncode == 0, proc.stderr
        names = {p.name for p in (tmp_path / "s").rglob("*") if p.is_file()}
        assert any(n.startswith("heat_") for n in names)
        assert "bounds.json" not in names

    def test_full_report_run(self, tmp_path):
        cfg = _quick_config(tmp_path)
        proc = self._run("report", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "o" / "manifest.json").exists()

    def test_bad_depth_rejected_before_compute(self, tmp_path):
        cfg = _quick_config(tmp_path, n="9")
        proc = self._run("report", "--config", str(cfg))
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr

    def test_claim_failure_exit_code(self, tmp_path):
        # regime 3 of relativistic(0.5,3) spreads 13.65 at quick settings
        cfg = _quick_config(tmp_path, specs="relativistic:0.5,3")
        proc = self._run(
            "verify-bounds", "--config", str(cfg), "--out", str(tmp_path / "f")
        )
        assert proc.returncode == 1
        assert "FAILED" in proc.stderr or "FAIL" in proc.stderr
