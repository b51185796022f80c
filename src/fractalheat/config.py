"""Config parsing: fractal descriptions and pipeline run settings.

Both files are INI-style (key = value under sections).  Coordinates are
exact: each component is a rational, optionally plus a rational multiple of
sqrt3, e.g. ``1/4,1/4*sqrt3``.  Dimension entries accept a float literal,
``log(p)/log(q)``, ``dw`` (for d_J), or ``estimate``.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .bounds import SUB_UNIT_END
from .exact import Vec2, parse_q3
from .geometry import FractalSystem, build_system
from .subordinators import SubordinatorSpec

N_MAX = 7  # deeper graphs exceed the dense-eigendecomposition budget


class ConfigError(ValueError):
    pass


_LOG_RE = re.compile(r"^log\((\d+)\)\s*/\s*log\((\d+)\)$")


def parse_dimension(text: str, dw_value: float | None = None) -> float | str:
    s = text.strip().lower()
    if s == "estimate":
        return "estimate"
    if s == "dw":
        if dw_value is None:
            raise ConfigError("dj = dw requires dw to be resolved first")
        return dw_value
    m = _LOG_RE.match(s)
    if m:
        p, q = int(m.group(1)), int(m.group(2))
        return math.log(p) / math.log(q)
    try:
        return float(s)
    except ValueError as exc:
        raise ConfigError(f"cannot parse dimension value {text!r}") from exc


def parse_translations(text: str) -> list[Vec2]:
    out = []
    for chunk in text.split(";"):
        coords = chunk.split(",")
        if len(coords) != 2:
            raise ConfigError(f"translation needs two coordinates: {chunk!r}")
        out.append(Vec2(parse_q3(coords[0]), parse_q3(coords[1])))
    return out


def load_fractal_config(path: str | Path) -> FractalSystem:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"fractal config not found: {path}")
    parser = configparser.ConfigParser()
    parser.read(path)
    if "fractal" not in parser:
        raise ConfigError(f"{path}: missing [fractal] section")
    sec = parser["fractal"]
    for required in ("N", "L", "translations", "dw"):
        if sec.get(required) is None:
            raise ConfigError(f"{path}: [fractal] is missing {required!r}")
    try:
        name = sec.get("name", path.stem)
        n_declared = sec.getint("N")
        L = Fraction(sec.get("L"))
        translations = parse_translations(sec.get("translations"))
        dw = parse_dimension(sec.get("dw"))
        dj_text = sec.get("dj", "dw")
        osc = sec.getboolean("osc_attested", fallback=False)
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if len(translations) != n_declared:
        raise ConfigError(
            f"{path}: N = {n_declared} but {len(translations)} translations given"
        )
    if dw == "estimate":
        # resolved by a walk-dimension estimate on a placeholder system
        from .kernels import estimate_walk_dimension

        probe = build_system(name, L, translations, walk_dim=2.0,
                             chemical_exp=2.0, osc_attested=osc)
        dw = estimate_walk_dimension(probe, 5).estimate
    dj = parse_dimension(dj_text, float(dw))
    if dj == "estimate":
        dj = float(dw)
    return build_system(
        name, L, translations, walk_dim=float(dw), chemical_exp=float(dj),
        osc_attested=osc,
    )


def parse_subordinator(text: str) -> SubordinatorSpec:
    s = text.strip()
    kind, _, rest = s.partition(":")
    kind = kind.strip()
    params = [p.strip() for p in rest.split(",") if p.strip()]
    try:
        if kind == "stable":
            (alpha,) = params
            return SubordinatorSpec("stable", float(alpha))
        if kind == "relativistic":
            alpha, m = params
            return SubordinatorSpec("relativistic", float(alpha), float(m))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad subordinator spec {text!r}: {exc}") from exc
    raise ConfigError(f"unknown subordinator kind in {text!r}")


@dataclass
class RunConfig:
    """Everything one reproducible pipeline run needs."""

    fractal_path: Path
    system: FractalSystem
    M: int = 1
    n: int = 5
    window: int = 2
    seed: int = 20240801
    out_dir: Path = Path("out")
    subordinators: list[SubordinatorSpec] = field(
        default_factory=lambda: [SubordinatorSpec("stable", 0.5)]
    )
    n_times: int = 12
    t_min: float = 0.1
    flat_span: float = 10.0
    kernel_times: tuple[float, ...] = (0.5, 1.0, 2.0, 5.0)
    table_pairs: int = 300
    crosscheck_samples: int = 8
    spread_threshold: float = 10.0
    stability_threshold: float = 0.5
    domination_tol: float = 1e-8
    bracket_tol: float = 0.8
    raw_text: str = ""

    def validate(self) -> None:
        if not (0 <= self.M < self.window):
            raise ConfigError(f"need 0 <= M < window, got M={self.M} window={self.window}")
        if not (1 <= self.n <= N_MAX):
            raise ConfigError(f"depth n must be in [1, {N_MAX}], got {self.n}")
        if self.window + self.n > N_MAX:
            raise ConfigError(
                f"window {self.window} at depth {self.n} exceeds the "
                f"eigendecomposition budget (window + n <= {N_MAX})"
            )
        if self.spread_threshold <= 1 or self.stability_threshold <= 0:
            raise ConfigError("thresholds must exceed 1 (spread) and 0 (stability)")
        if not self.subordinators:
            raise ConfigError("at least one subordinator spec required")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not (0 < self.t_min < SUB_UNIT_END):
            raise ConfigError(f"t_min must be in (0, {SUB_UNIT_END}), got {self.t_min}")
        for name in ("n_times", "table_pairs", "crosscheck_samples"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.flat_span <= 1:
            raise ConfigError(f"flat_span must exceed 1, got {self.flat_span}")
        if any(t <= 0 for t in self.kernel_times):
            raise ConfigError(f"kernel_times must be positive, got {self.kernel_times}")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not finite")
    return value


def _finites(text: str) -> tuple[float, ...]:
    return tuple(_finite(x) for x in text.split(","))


# (section, key, field, cast) for every key a run config may set besides
# [run] fractal and out and [subordinators] specs; a key left out keeps the
# RunConfig default
_RUN_KEYS = (
    ("run", "m", "M", int),
    ("run", "n", "n", int),
    ("run", "window", "window", int),
    ("run", "seed", "seed", int),
    ("grids", "n_times", "n_times", int),
    ("grids", "t_min", "t_min", _finite),
    ("grids", "flat_span", "flat_span", _finite),
    ("grids", "kernel_times", "kernel_times", _finites),
    ("grids", "table_pairs", "table_pairs", int),
    ("grids", "crosscheck_samples", "crosscheck_samples", int),
    ("thresholds", "spread", "spread_threshold", _finite),
    ("thresholds", "stability", "stability_threshold", _finite),
    ("thresholds", "domination_tol", "domination_tol", _finite),
    ("thresholds", "bracket_tol", "bracket_tol", _finite),
)


def load_run_config(path: str | Path, out_override=None) -> RunConfig:
    """Parse and validate a run config; malformed INI, an unknown section or
    key, a value that does not parse and a non-finite float all raise
    ConfigError before the fractal config is read."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"run config not found: {path}")
    text = path.read_text()
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:  # a repeated key or section, a line outside one
        raise ConfigError(f"{path}: {exc}") from exc
    if "run" not in parser:
        raise ConfigError(f"{path}: missing [run] section")
    known = {"run": {"fractal", "out"}, "subordinators": {"specs"}, "grids": set(),
             "thresholds": set()}
    for section, key, _, _ in _RUN_KEYS:
        known[section].add(key)
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"{path}: unknown section [{section}]")
        unknown = sorted(set(parser[section]) - known[section])
        if unknown:
            raise ConfigError(f"{path}: unknown key {', '.join(unknown)} in [{section}]")
    run = parser["run"]
    fractal_rel = run.get("fractal")
    if fractal_rel is None:
        raise ConfigError(f"{path}: [run] must name a fractal config")
    fractal_path = (path.parent / fractal_rel).resolve()

    settings = {}
    if "subordinators" in parser:
        specs = parser["subordinators"].get("specs", "").split(";")
        settings["subordinators"] = [parse_subordinator(s) for s in specs if s.strip()]
    for section, key, name, cast in _RUN_KEYS:
        if section in parser and key in parser[section]:
            try:
                settings[name] = cast(parser[section][key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{path}: bad value for {key}: {exc}") from exc
    out = out_override or run.get("out")
    if out is not None:
        settings["out_dir"] = Path(out)
    cfg = RunConfig(
        fractal_path=fractal_path,
        system=load_fractal_config(fractal_path),
        raw_text=text,
        **settings,
    )
    cfg.validate()
    return cfg
