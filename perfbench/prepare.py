"""One timed set-up of a benchmark workload, run as its own process.

The parent measures this process from spawn to exit: interpreter start,
imports, config load and the workload's preparation.  For ``report-warm``
the preparation fills the eigen cache with a cold ``report`` run into
``--out``, so the cold run's memory never reaches the measured process.

    python3 perfbench/prepare.py --workload report-warm --ini RUN.ini --out DIR
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from env import pin_blas, use_checkout_source


def main() -> int:
    pin_blas()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--ini", required=True, type=Path)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    use_checkout_source(Path.cwd())

    from fractalheat.config import load_run_config
    from fractalheat.pipeline import run_pipeline
    import fractalheat.subordinate  # noqa: F401  (imported by the density workload)

    cfg = load_run_config(args.ini, out_override=args.out)
    if args.workload == "report-warm":
        manifest = run_pipeline(cfg)
        if not manifest.claims_passed:
            print("cache fill: claims failed", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
