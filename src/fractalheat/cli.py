"""Command-line interface.

Subcommands: validate-fractal, build-kernel, subordinate, verify-bounds,
report.  Exit codes: 0 all claims pass, 1 a claim failed, 2 configuration or
runtime error.

BLAS thread pools are pinned to one thread before numpy loads.  The verify
stage runs its bound-report jobs on up to one thread per CPU the process may
run on; every job computes the same bytes on any thread, so runs are
bit-identical whatever the core count.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

_BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

_SUBCOMMAND_STAGE = {
    "build-kernel": "spectral",
    "subordinate": "subordinate",
    "verify-bounds": "verify",
    "report": "report",
}


def _pin_blas() -> None:
    for var in _BLAS_VARS:
        os.environ.setdefault(var, "1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fractalheat",
        description="Heat kernels and subordinate stable kernels on nested fractals",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("validate-fractal", "check the nested-fractal axioms of a configuration"),
        ("build-kernel", "build graphs and spectral kernels, export tables"),
        ("subordinate", "additionally export subordinate kernel tables"),
        ("verify-bounds", "additionally run the two-sided bound reports"),
        ("report", "full pipeline: reports, plot data, manifest"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="run config (INI)")
        p.add_argument("--out", default=None, help="output directory override")
    return parser


def main(argv=None) -> int:
    _pin_blas()
    args = build_parser().parse_args(argv)

    from .config import ConfigError, _parse_ini, load_fractal_config, load_run_config

    try:
        if args.command == "validate-fractal":
            # accept either a fractal config or a run config pointing at one
            if "fractal" in _parse_ini(Path(args.config))[1]:
                system = load_fractal_config(args.config)
            else:
                system = load_run_config(args.config).system
            from .geometry import validate_snf

            report = validate_snf(system)
            print(report.summary())
            return 0 if report.ok else 1

        config = load_run_config(args.config, out_override=args.out)
        stage = _SUBCOMMAND_STAGE[args.command]
        from .pipeline import run_pipeline

        manifest = run_pipeline(config, last_stage=stage)
        print(f"wrote {len(manifest.inventory)} files to {config.out_dir}")
        if stage in ("verify", "report") and not manifest.claims_passed:
            print("one or more bound claims FAILED", file=sys.stderr)
            return 1
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
