import math
from fractions import Fraction
from pathlib import Path

import pytest

from fractalheat.config import (
    ConfigError,
    load_fractal_config,
    load_run_config,
    parse_dimension,
    parse_subordinator,
    parse_translations,
)
from fractalheat.exact import Q3, Vec2
from fractalheat.subordinators import SubordinatorSpec

CONFIGS = Path(__file__).parent.parent / "configs"


class TestFractalConfig:
    def test_shipped_gasket_matches_programmatic(self, gasket):
        system = load_fractal_config(CONFIGS / "gasket.ini")
        assert system.maps == gasket.maps
        assert system.essential_vertices == gasket.essential_vertices
        assert system.walk_dim == pytest.approx(math.log(5) / math.log(2), abs=1e-15)
        assert system.chemical_exp == system.walk_dim
        assert system.osc_attested

    def test_shipped_interval_loads(self, interval):
        system = load_fractal_config(CONFIGS / "interval.ini")
        assert system.maps == interval.maps
        assert system.walk_dim == 2.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_fractal_config(tmp_path / "nope.ini")

    def test_missing_keys_reported(self, tmp_path):
        bad = tmp_path / "partial.ini"
        bad.write_text("[fractal]\nN = 2\nL = 2\n")
        with pytest.raises(ConfigError, match="missing"):
            load_fractal_config(bad)

    def test_translation_count_checked(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(
            "[fractal]\nN = 3\nL = 2\ntranslations = 0,0 ; 1/2,0\ndw = 2\n"
        )
        with pytest.raises(ConfigError, match="translations"):
            load_fractal_config(bad)

    def test_estimated_walk_dimension(self, tmp_path):
        cfg = tmp_path / "interval.ini"
        cfg.write_text(
            "[fractal]\nname = interval\nN = 2\nL = 2\n"
            "translations = 0,0 ; 1/2,0\ndw = estimate\nosc_attested = true\n"
        )
        system = load_fractal_config(cfg)
        assert system.walk_dim == pytest.approx(2.0, abs=0.05)
        assert system.chemical_exp == pytest.approx(system.walk_dim)


class TestParsers:
    def test_dimension_forms(self):
        assert parse_dimension("log(5)/log(2)") == pytest.approx(
            math.log(5) / math.log(2)
        )
        assert parse_dimension("2.5") == 2.5
        assert parse_dimension("estimate") == "estimate"
        assert parse_dimension("dw", 2.32) == 2.32
        with pytest.raises(ConfigError):
            parse_dimension("log(x)/log(2)")

    def test_translations(self):
        pts = parse_translations("0,0 ; 1/2,0 ; 1/4,1/4*sqrt3")
        assert pts[2] == Vec2(Q3.of(Fraction(1, 4)), Q3.of(0, Fraction(1, 4)))
        with pytest.raises(ConfigError):
            parse_translations("1,2,3")

    def test_subordinators(self):
        spec = parse_subordinator("stable:0.5")
        assert spec.kind == "stable" and spec.alpha == 0.5
        spec = parse_subordinator(" relativistic:0.7, 2.0 ")
        assert spec.m == 2.0
        with pytest.raises(ConfigError):
            parse_subordinator("gamma:1")
        with pytest.raises(ConfigError):
            parse_subordinator("relativistic:0.5")


class TestRunConfig:
    def test_default_run_loads(self):
        cfg = load_run_config(CONFIGS / "default-run.ini")
        assert cfg.M == 1 and cfg.n == 5 and cfg.window == 2
        assert len(cfg.subordinators) == 2
        assert cfg.spread_threshold == 10.0

    def test_overrides(self, tmp_path):
        cfg = load_run_config(CONFIGS / "quick-run.ini", out_override=tmp_path / "o")
        assert cfg.out_dir == tmp_path / "o"

    @pytest.mark.parametrize(
        "patch",
        [
            "n = 9",
            "n = 0",
            "window = 0",
            "metric = manhattan",  # an unknown key since the metric is fixed
            "n_times = 0",
            "flat_span = 1",
            "t_min = 0.95",
            "kernel_times = 0.5,0,2",
            "kernel_times = 0.5,x",
            "table_pairs = 0",
            "table_pairs = -1",
            "crosscheck_samples = 0",
            "crosscheck_samples = -2",
            "seed = -1",
            "bracket_tol = nan",
            "bracket_tol = inf",
            "spread = nan",
            "domination_tol = -inf",
            "kernel_times = 0.5,nan",
            "[grids] n_time = 99",
            "[grid] n_times = 99",
            "[run] n = 4",  # a repeated key
        ],
    )
    def test_validation_rejects(self, tmp_path, patch):
        # "key = value" replaces the line setting key, or goes into [run]
        # if no line sets it; "[section] key = value" goes into that
        # section, which is added at the end if the file lacks it
        section, _, setting = patch.rpartition("] ")
        section = section.lstrip("[") or "run"
        key = setting.split(" =")[0]
        base = (CONFIGS / "quick-run.ini").read_text()
        lines = [
            setting if line.startswith(f"{key} =") and patch == setting else line
            for line in base.splitlines()
        ]
        if setting not in lines:
            if f"[{section}]" in lines:
                lines.insert(lines.index(f"[{section}]") + 1, setting)
            else:
                lines += [f"[{section}]", setting]
        bad = tmp_path / "bad.ini"
        bad.write_text("\n".join(lines).replace("fractal = gasket.ini",
                       f"fractal = {CONFIGS / 'gasket.ini'}"))
        with pytest.raises(ConfigError) as excinfo:
            load_run_config(bad)
        assert key in str(excinfo.value) or f"[{section}]" in str(excinfo.value)

    def test_budget_guard(self, tmp_path):
        base = (CONFIGS / "quick-run.ini").read_text()
        text = base.replace("n = 3", "n = 7").replace(
            "fractal = gasket.ini", f"fractal = {CONFIGS / 'gasket.ini'}"
        )
        bad = tmp_path / "big.ini"
        bad.write_text(text)
        with pytest.raises(ConfigError, match="budget"):
            load_run_config(bad)

    def test_subordinators_default_without_the_section(self, tmp_path):
        run = tmp_path / "run.ini"
        run.write_text(f"[run]\nfractal = {CONFIGS / 'gasket.ini'}\n")
        assert load_run_config(run).subordinators == [SubordinatorSpec("stable", 0.5)]

    def test_empty_specs_rejected(self, tmp_path):
        run = tmp_path / "run.ini"
        run.write_text(f"[run]\nfractal = {CONFIGS / 'gasket.ini'}\n[subordinators]\nspecs =\n")
        with pytest.raises(ConfigError, match="subordinator"):
            load_run_config(run)

    def test_threshold_validation(self, tmp_path):
        base = (CONFIGS / "quick-run.ini").read_text()
        text = base.replace("spread = 10", "spread = 0.5").replace(
            "fractal = gasket.ini", f"fractal = {CONFIGS / 'gasket.ini'}"
        )
        bad = tmp_path / "th.ini"
        bad.write_text(text)
        with pytest.raises(ConfigError, match="threshold"):
            load_run_config(bad)
