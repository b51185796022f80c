import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from fractalheat import kernels, pipeline
from fractalheat.bounds import PLOT_PAIRS, ReflectionStudy
from fractalheat.cli import _BLAS_VARS
from fractalheat.config import load_run_config
from fractalheat.kernels import KernelCache
from fractalheat.pipeline import emit_plot_data, run_pipeline

CONFIGS = Path(__file__).parent.parent / "configs"


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
        # an impossible truncation bracket aborts the verify stage
        cfg = load_run_config(_quick_config(tmp_path, bracket_tol="1e-6"))
        with pytest.raises(Exception):
            run_pipeline(cfg)
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
        dist = study.metric(cfg.metric)
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

    def test_failed_run_leaves_no_manifest(self, tmp_path, monkeypatch):
        cfg = load_run_config(_quick_config(tmp_path))
        run_pipeline(cfg)
        assert (cfg.out_dir / "manifest.json").exists()

        def boom(state):
            raise RuntimeError("injected stage failure")

        monkeypatch.setattr(pipeline, "_stage_subordinate", boom)
        with pytest.raises(RuntimeError, match="injected"):
            run_pipeline(cfg)
        assert not (cfg.out_dir / "manifest.json").exists()

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


def _entries(cache_dir: Path) -> list[Path]:
    return sorted(cache_dir.glob("eig-*.npz"))


def _warm_rerun(cache_dir: Path, out: Path):
    warm = load_run_config(_quick_config(out.parent, out.name))
    return run_pipeline(warm, cache=KernelCache(directory=cache_dir))


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
        assert KernelCache(directory=cache_dir)._load(key) is None
        warm = _warm_rerun(cache_dir, tmp_path / "warm")
        assert warm.inventory == cold.inventory
        assert KernelCache(directory=cache_dir)._load(key) is not None

    def test_entry_for_another_key_is_a_miss(self, quick_run, tmp_path):
        cfg, cold = quick_run
        cache_dir = tmp_path / "cache"
        shutil.copytree(cfg.out_dir / "cache", cache_dir)
        source, target = _entries(cache_dir)[:2]
        key = target.stem.removeprefix("eig-")
        target.write_bytes(source.read_bytes())
        assert KernelCache(directory=cache_dir)._load(key) is None
        warm = _warm_rerun(cache_dir, tmp_path / "warm")
        assert warm.inventory == cold.inventory
        assert KernelCache(directory=cache_dir)._load(key) is not None

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
        short = dataclasses.replace(kern, psi=kern.psi[keep], mu=kern.mu[keep])
        cache._store(cache._key(gasket, 0, 2, "dirichlet"), short)
        decomposed = self._count_decompositions(monkeypatch)
        rebuilt = KernelCache(directory=tmp_path).kernel(gasket, 0, 2, "dirichlet")
        assert len(decomposed) == 1
        assert rebuilt.psi.shape == kern.psi.shape
        KernelCache(directory=tmp_path).kernel(gasket, 0, 2, "dirichlet")
        assert len(decomposed) == 1


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

    def test_runs_do_not_import_unused_scipy_subpackages(self, tmp_path):
        # neither the imports nor a cold report load scipy.integrate or
        # scipy.spatial (each costs a run 0.1-0.4 s of start-up)
        script = (
            "import sys\n"
            "import fractalheat.cli, fractalheat.pipeline, fractalheat.subordinate\n"
            "heavy = ('scipy.integrate', 'scipy.spatial')\n"
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

    def test_validate_fractal_ok(self):
        proc = self._run("validate-fractal", "--config", str(CONFIGS / "gasket.ini"))
        assert proc.returncode == 0
        assert "nesting: pass" in proc.stdout

    def test_validate_fractal_accepts_run_config(self, tmp_path):
        cfg = _quick_config(tmp_path)
        proc = self._run("validate-fractal", "--config", str(cfg))
        assert proc.returncode == 0
        assert "connectivity: pass" in proc.stdout

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
        cfg = _quick_config(tmp_path, spread="1.01")
        proc = self._run(
            "verify-bounds", "--config", str(cfg), "--out", str(tmp_path / "f")
        )
        assert proc.returncode == 1
        assert "FAILED" in proc.stderr or "FAIL" in proc.stderr
