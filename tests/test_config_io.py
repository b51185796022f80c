import math
import re
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

# the shipped gasket config with an estimated walk dimension, so a reader
# that computed before refusing would build graphs
GASKET_ESTIMATE = (CONFIGS / "gasket.ini").read_text().replace(
    "dw = log(5)/log(2)", "dw = estimate"
)


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

    def test_osc_attested_defaults_to_false(self, tmp_path):
        cfg = tmp_path / "interval.ini"
        cfg.write_text("[fractal]\nN = 2\nL = 2\ntranslations = 0,0 ; 1/2,0\ndw = 2\n")
        system = load_fractal_config(cfg)
        assert not system.osc_attested
        assert system.name == "interval" and system.chemical_exp == 2.0

    def test_rational_log_dimension(self, tmp_path):
        cfg = tmp_path / "gasket.ini"
        cfg.write_text(GASKET_ESTIMATE.replace("dw = estimate", "dw = log(90/7)/log(3)"))
        assert load_fractal_config(cfg).walk_dim == math.log(90 / 7) / math.log(3)

    @pytest.mark.parametrize(
        "old, new, problem",
        [
            ("osc_attested", "osc_atested", "unknown key osc_atested"),
            ("dj = dw", "dj = dw\n[fractals]\nN = 3", "unknown section [fractals]"),
            ("dj = dw", "dj = dw\ndw = 2", "option 'dw'"),
            ("dw = estimate", "dw = nan", "bad value for dw"),
            ("dw = estimate", "dw = log(2)/log(1)", "bad value for dw"),
            ("dj = dw", "dj = -3", "bad value for dj"),
            ("[fractal]", "[DEFAULT]\ndj = dw\n[fractal]", "unknown section [DEFAULT]"),
            ("N = 3", "N = three", "bad value for n"),
            ("L = 2", "L = 1/0", "bad value for l"),
            ("osc_attested = true", "osc_attested = maybe", "bad value for osc_attested"),
            ("N = 3\n", "", "is missing n"),
            # values the file parses but the fractal system refuses
            ("L = 2", "L = 1", "scaling factor L must exceed 1, got 1"),
            ("dw = estimate\ndj = dw", "dw = 2\ndj = 1", "chemical exponent must exceed 1"),
            # refused by the placeholder system of the walk-dimension estimate
            ("dj = dw", "dj = 1", "chemical exponent must exceed 1"),
            ("translations = 0,0", "translations = 1/8,0", "first translation must be the origin"),
        ],
    )
    def test_strict_reader_refuses_before_any_graph(
        self, tmp_path, monkeypatch, old, new, problem
    ):
        def no_graphs(*args):
            raise AssertionError("a graph was built")

        monkeypatch.setattr("fractalheat.kernels.build_vertex_graph", no_graphs)
        text = GASKET_ESTIMATE.replace(old, new)
        assert text != GASKET_ESTIMATE
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        with pytest.raises(ConfigError) as excinfo:
            load_fractal_config(bad)
        assert str(bad) in str(excinfo.value) and problem in str(excinfo.value)

    def test_readme_ini_blocks_load(self, tmp_path):
        # the documented formats stay loadable; a run block finds the
        # shipped fractal configs next to it
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        blocks = re.findall(r"^```ini\n(.*?)^```", readme, re.M | re.S)
        assert blocks
        for name in ("gasket.ini", "interval.ini"):
            (tmp_path / name).write_text((CONFIGS / name).read_text())
        for k, block in enumerate(blocks):
            path = tmp_path / f"block{k}.ini"
            path.write_text(block)
            if "[fractal]" in block:
                load_fractal_config(path)
            else:
                load_run_config(path)


class TestParsers:
    def test_dimension_forms(self):
        assert parse_dimension("log(5)/log(2)") == pytest.approx(
            math.log(5) / math.log(2)
        )
        assert parse_dimension("2.5") == 2.5
        assert parse_dimension("estimate") == "estimate"
        assert parse_dimension("log(90/7)/log(3)") == math.log(90 / 7) / math.log(3)
        assert parse_dimension(" LOG(5) / LOG(2) ") == math.log(5) / math.log(2)

    @pytest.mark.parametrize(
        "text",
        ["log(x)/log(2)", "log(2)/log(1)", "log(0)/log(2)", "log(-2)/log(3)",
         "log(1/2)/log(2)", "log(1/0)/log(2)", "log(2)/log(1e999)", "nan", "inf",
         "-inf", "-3", "0", "1e999", "dw", ""],
    )
    def test_dimension_refusals(self, text):
        with pytest.raises(ConfigError, match="dimension value"):
            parse_dimension(text)

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

    @pytest.mark.parametrize("m", ["nan", "inf", "-inf", "0", "-1"])
    def test_relativistic_mass_must_be_positive_and_finite(self, m):
        with pytest.raises(ConfigError, match="finite m > 0"):
            parse_subordinator(f"relativistic:0.5,{m}")


class TestRunConfig:
    def test_default_run_loads(self):
        cfg = load_run_config(CONFIGS / "default-run.ini")
        assert cfg.M == 1 and cfg.n == 5 and cfg.window == 2
        assert len(cfg.subordinators) == 2
        assert cfg.bracket_tol == 0.8

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

    def test_run_errors_come_before_the_fractal_config(self, tmp_path):
        run = tmp_path / "run.ini"
        run.write_text("[run]\nfractal = missing.ini\nn = 9\n")
        with pytest.raises(ConfigError, match="depth n"):
            load_run_config(run)

    def test_fractal_errors_name_the_fractal_file(self, tmp_path):
        fractal = tmp_path / "f.ini"
        fractal.write_text(GASKET_ESTIMATE.replace("osc_attested", "osc_atested"))
        run = tmp_path / "run.ini"
        run.write_text("[run]\nfractal = f.ini\n")
        with pytest.raises(ConfigError, match=r"f\.ini: unknown key osc_atested"):
            load_run_config(run)

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

    @pytest.mark.parametrize(
        "section, key",
        [("grids", "t_min"), ("thresholds", "spread"), ("thresholds", "stability"),
         ("thresholds", "domination_tol")],
    )
    def test_claim_constants_are_not_settings(self, tmp_path, section, key):
        # T_MIN and the claim thresholds are constants of fractalheat.bounds
        base = (CONFIGS / "quick-run.ini").read_text()
        text = base.replace(f"[{section}]", f"[{section}]\n{key} = 0.5").replace(
            "fractal = gasket.ini", f"fractal = {CONFIGS / 'gasket.ini'}"
        )
        bad = tmp_path / "th.ini"
        bad.write_text(text)
        with pytest.raises(ConfigError, match=f"unknown key {key} in \\[{section}\\]"):
            load_run_config(bad)

    @pytest.mark.parametrize(
        "specs", ["stable:0.5 ; stable:0.5", "stable:0.5 ; stable:0.5000001 ; relativistic:0.5,1"]
    )
    def test_repeated_subordinator_label_rejected(self, tmp_path, specs):
        # labels format alpha with :g, so 0.5000001 reads stable(0.5) too;
        # two such specs would write one table and one set of claims.  The
        # fractal config is missing: the refusal comes before it is read
        run = tmp_path / "run.ini"
        run.write_text(f"[run]\nfractal = missing.ini\n[subordinators]\nspecs = {specs}\n")
        with pytest.raises(ConfigError, match=r"share the label stable\(0\.5\)"):
            load_run_config(run)
