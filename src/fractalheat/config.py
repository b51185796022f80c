"""Config parsing: fractal descriptions and pipeline run settings.

Both files are INI-style (key = value under sections), read by one strict
reader.  Coordinates are exact: each component is a rational, optionally
plus a rational multiple of sqrt3, e.g. ``1/4,1/4*sqrt3``.  Dimension
entries accept a float literal, ``log(p)/log(q)``, ``dw`` (for d_J), or
``estimate``.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .exact import Vec2, parse_q3
from .geometry import FractalError, FractalSystem, build_system
from .subordinators import SubordinatorSpec

N_MAX = 7  # deeper graphs exceed the dense-eigendecomposition budget


class ConfigError(ValueError):
    pass


_LOG_RE = re.compile(r"^log\(([^()]+)\)\s*/\s*log\(([^()]+)\)$")


def parse_dimension(text: str) -> float | str:
    """``estimate``, or a positive finite float literal or ``log(p)/log(q)``
    with rational p, q > 0 and q != 1 (as ``log(90/7)/log(3)``)."""
    s = text.strip().lower()
    if s == "estimate":
        return "estimate"
    m = _LOG_RE.match(s)
    try:
        if m:
            p, q = Fraction(m.group(1)), Fraction(m.group(2))
            if p <= 0 or q <= 0 or q == 1:
                raise ValueError("log(p)/log(q) needs p > 0, q > 0 and q != 1")
            value = math.log(p) / math.log(q)
        else:
            value = float(s)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"cannot parse dimension value {text!r}: {exc}") from exc
    if not 0 < value < math.inf:
        raise ConfigError(f"dimension value {text!r} must be positive and finite")
    return value


def _boolean(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"{text!r} is not a boolean") from None


def parse_translations(text: str) -> list[Vec2]:
    out = []
    for chunk in text.split(";"):
        coords = chunk.split(",")
        if len(coords) != 2:
            raise ConfigError(f"translation needs two coordinates: {chunk!r}")
        out.append(Vec2(parse_q3(coords[0]), parse_q3(coords[1])))
    return out


def _parse_ini(path: Path) -> tuple[str, configparser.ConfigParser]:
    """The text and sections of an INI file, values verbatim; a missing file,
    malformed INI or a [DEFAULT] section raises ConfigError."""
    if not path.is_file():
        raise ConfigError(f"config not found: {path}")
    text = path.read_text()
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if parser.defaults():
        raise ConfigError(f"{path}: unknown section [{parser.default_section}]")
    return text, parser


def _read_ini(path: Path, table, required) -> tuple[str, dict]:
    """The text of an INI file and its settings, ``field: cast(value)`` for
    each (section, key, field, cast) of ``table`` it sets.  An unknown
    section or key, a ``required`` field left out and a value that does not
    parse or is not finite raise ConfigError naming the file and the key."""
    text, parser = _parse_ini(path)
    known = {(section, key) for section, key, _, _ in table}
    for section in parser.sections():
        if section not in {s for s, _ in known}:
            raise ConfigError(f"{path}: unknown section [{section}]")
        unknown = sorted(key for key in parser[section] if (section, key) not in known)
        if unknown:
            raise ConfigError(f"{path}: unknown key {', '.join(unknown)} in [{section}]")
    settings = {}
    for section, key, name, cast in table:
        if section in parser and key in parser[section]:
            try:
                settings[name] = cast(parser[section][key])
            except (TypeError, ValueError, ArithmeticError) as exc:
                raise ConfigError(f"{path}: bad value for {key}: {exc}") from exc
        elif name in required:
            raise ConfigError(f"{path}: [{section}] is missing {key}")
    return text, settings


# (section, key, field, cast) for every key a fractal config may set;
# configparser lowercases the keys N and L
_FRACTAL_KEYS = (
    ("fractal", "name", "name", str),
    ("fractal", "n", "n_maps", int),
    ("fractal", "l", "L", Fraction),
    ("fractal", "translations", "translations", parse_translations),
    ("fractal", "dw", "dw", parse_dimension),
    ("fractal", "dj", "dj", lambda text: "dw" if text.lower() == "dw" else parse_dimension(text)),
    ("fractal", "osc_attested", "osc_attested", _boolean),
)


def load_fractal_config(path: str | Path) -> FractalSystem:
    path = Path(path)
    _, s = _read_ini(path, _FRACTAL_KEYS, required=("n_maps", "L", "translations", "dw"))
    name, L, translations = s.get("name", path.stem), s["L"], s["translations"]
    if len(translations) != s["n_maps"]:
        raise ConfigError(
            f"{path}: N = {s['n_maps']} but {len(translations)} translations given"
        )
    osc = s.get("osc_attested", False)
    dw, dj = s["dw"], s.get("dj", "dw")
    try:
        if dw == "estimate":
            # resolved by a walk-dimension estimate on a placeholder system,
            # which carries a numeric dj so that a bad one is refused first
            from .kernels import estimate_walk_dimension

            probe = build_system(
                name, L, translations, walk_dim=2.0,
                chemical_exp=2.0 if isinstance(dj, str) else dj, osc_attested=osc,
            )
            dw = estimate_walk_dimension(probe, 5).estimate
        if dj in ("dw", "estimate"):
            dj = dw
        return build_system(
            name, L, translations, walk_dim=float(dw), chemical_exp=float(dj),
            osc_attested=osc,
        )
    except FractalError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_subordinator(text: str) -> SubordinatorSpec:
    """``kind:p1,p2``; SubordinatorSpec checks the kind and its parameters."""
    kind, _, params = text.partition(":")
    try:
        return SubordinatorSpec(kind.strip(), *(float(x) for x in params.split(",")))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad subordinator spec {text!r}: {exc}") from exc


@dataclass
class RunConfig:
    """Everything one reproducible pipeline run needs.  The claim thresholds
    and the first time of the grids are constants of ``bounds``."""

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
    flat_span: float = 10.0
    kernel_times: tuple[float, ...] = (0.5, 1.0, 2.0, 5.0)
    table_pairs: int = 300
    crosscheck_samples: int = 8
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
        if not self.subordinators:
            raise ConfigError("at least one subordinator spec required")
        labels = [spec.label() for spec in self.subordinators]
        repeated = sorted({label for label in labels if labels.count(label) > 1})
        if repeated:
            raise ConfigError(
                f"subordinator specs share the label {', '.join(repeated)}; "
                "their tables and claims would overwrite each other"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
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


def _specs(text: str) -> list[SubordinatorSpec]:
    return [parse_subordinator(s) for s in text.split(";") if s.strip()]


# (section, key, field, cast) for every key a run config may set; a key left
# out keeps the RunConfig default
_RUN_KEYS = (
    ("run", "fractal", "fractal_path", Path),
    ("run", "out", "out_dir", Path),
    ("run", "m", "M", int),
    ("run", "n", "n", int),
    ("run", "window", "window", int),
    ("run", "seed", "seed", int),
    ("subordinators", "specs", "subordinators", _specs),
    ("grids", "n_times", "n_times", int),
    ("grids", "flat_span", "flat_span", _finite),
    ("grids", "kernel_times", "kernel_times", _finites),
    ("grids", "table_pairs", "table_pairs", int),
    ("grids", "crosscheck_samples", "crosscheck_samples", int),
    ("thresholds", "bracket_tol", "bracket_tol", _finite),
)


def load_run_config(path: str | Path, out_override=None) -> RunConfig:
    """Parse and validate a run config, then load the fractal config it
    names (relative to its directory), so every error of the run config is
    raised before the fractal config is read."""
    path = Path(path)
    text, settings = _read_ini(path, _RUN_KEYS, required=("fractal_path",))
    settings["fractal_path"] = (path.parent / settings["fractal_path"]).resolve()
    if out_override:
        settings["out_dir"] = Path(out_override)
    cfg = RunConfig(system=None, raw_text=text, **settings)
    cfg.validate()
    cfg.system = load_fractal_config(cfg.fractal_path)
    return cfg
