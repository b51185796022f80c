"""Output checks behind the benchmark's ``failed`` count.

Each check returns a list of problems; an operation fails when any list is
non-empty.  Nothing here shares code with the routines it checks: the
orthonormality residual is recomputed from the eigenvectors, and the
reference comparison reads the files the pipeline wrote.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Mixed tolerance for the reference comparison: |got - ref| <= ATOL + RTOL |ref|.
# Kernel values are O(1e-3..10) with eigensolver noise near 1e-13; the minimax
# sandwich constants come from a bounded scalar search with xatol 1e-6, so a
# different BLAS may move them (and the spreads they set) in the sixth digit.
RTOL = 1e-6
ATOL = 1e-12

# Residual fields sit near machine epsilon and differ between a cold and a
# warm run (see NOTES.md), so they are held to a bound, not to the reference.
RESIDUAL_BOUNDS = {
    "conservativeness_residual": 1e-11,  # 6e-14 at most today
    "max_rel_error": 1e-8,  # spectral vs quadrature; quad runs at epsrel 1e-9
}
ORTHONORMALITY_BOUND = 1e-10  # max |psi^T psi - I|; 1e-13 today at 1095 vertices
# transform-identity residual per subordinator kind (today: 3.2e-13 stable(0.3),
# 1.7e-13 stable(0.7), 4.6e-11 relativistic(0.7,1) on the full grid)
TRANSFORM_BOUNDS = {"stable": 1e-11, "relativistic": 1e-9}

REPORT_FILES = (
    "reports/validation.json",
    "reports/labeling.txt",
    "reports/kernel_metrics.json",
    "reports/subordination.json",
    "reports/bounds.json",
    "reports/summary.txt",
    "plots/plots.gp",
    "manifest.json",
)


def _safe(label: str) -> str:
    return label.replace("(", "_").replace(")", "").replace(",", "_")


def _is_residual(key: str) -> bool:
    return any(part in RESIDUAL_BOUNDS for part in key.split("/"))


def _number(value) -> float | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


def _json_leaves(node, prefix: str = ""):
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _json_leaves(node[key], f"{prefix}/{key}" if prefix else key)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _json_leaves(item, f"{prefix}/{i}")
    else:
        yield prefix, node


def output_numbers(out_dir: Path) -> dict[str, dict[str, float] | list[float]]:
    """Every number in ``reports/*.json`` (by key path) and ``tables/*.csv``
    (in file order), residual fields excluded."""
    out: dict = {}
    for path in sorted(out_dir.glob("reports/*.json")):
        leaves = _json_leaves(json.loads(path.read_text()))
        out[f"reports/{path.name}"] = {
            key: num
            for key, value in leaves
            if not _is_residual(key) and (num := _number(value)) is not None
        }
    for path in sorted(out_dir.glob("tables/*.csv")):
        nums = []
        for line in path.read_text().splitlines()[1:]:
            nums.extend(n for field in line.split(",") if (n := _number(field)) is not None)
        out[f"tables/{path.name}"] = nums
    return out


def _close(got: float, ref: float) -> bool:
    if math.isinf(ref) or math.isnan(ref):
        return got == ref or (math.isnan(got) and math.isnan(ref))
    return abs(got - ref) <= ATOL + RTOL * abs(ref)


def check_reference(out_dir: Path, reference: dict) -> list[str]:
    problems = []
    got = output_numbers(out_dir)
    ref = reference["files"]
    if sorted(got) != sorted(ref):
        problems.append(f"reference files {sorted(ref)} but run wrote {sorted(got)}")
    for name in sorted(set(got) & set(ref)):
        g, r = got[name], ref[name]
        if isinstance(r, dict):
            if sorted(g) != sorted(r):
                problems.append(f"{name}: keys differ from the reference")
                continue
            bad = [k for k in r if not _close(g[k], r[k])]
        else:
            if len(g) != len(r):
                problems.append(f"{name}: {len(g)} numbers, reference has {len(r)}")
                continue
            bad = [i for i, (a, b) in enumerate(zip(g, r)) if not _close(a, b)]
        if bad:
            k = bad[0]
            problems.append(
                f"{name}: {len(bad)} numbers off the reference, first {k}: "
                f"{g[k]!r} vs {r[k]!r}"
            )
    return problems


def orthonormality_residual(psi: np.ndarray) -> float:
    gram = psi.T @ psi
    gram[np.diag_indices_from(gram)] -= 1.0
    return float(np.abs(gram).max())


def check_report(out_dir: Path, manifest, cfg, kernels, cache_files: int | None) -> list[str]:
    """Claims, file set, residual bounds and eigenvector orthonormality of one
    ``report`` run.  ``cache_files`` is the number of eigen-cache entries the
    run must leave in ``out_dir/cache`` (None: the cache lives elsewhere)."""
    problems = []
    if not manifest.claims_passed:
        problems.append("claims_passed is false")
    missing = [f for f in REPORT_FILES if not (out_dir / f).is_file()]
    tables = [f"tables/heat_M{cfg.M}_n{cfg.n}.csv"] + [
        f"tables/subordinate_{_safe(spec.label())}.csv" for spec in cfg.subordinators
    ]
    missing += [f for f in tables if not (out_dir / f).is_file()]
    if missing:
        problems.append(f"missing outputs: {missing}")
        return problems
    bounds = json.loads((out_dir / "reports/bounds.json").read_text())
    failed = sorted(k for k, v in bounds.items() if not v["pass"])
    if not bounds or failed:
        problems.append(f"{len(bounds)} claims, failed: {failed}")
    plots = sorted(p.name for p in (out_dir / "plots").glob("claim_*.csv"))
    if len(plots) != len(bounds):
        problems.append(f"{len(plots)} plot files for {len(bounds)} claims")
    on_disk = {
        str(p.relative_to(out_dir))
        for p in out_dir.rglob("*")
        if p.is_file() and p.parts[len(out_dir.parts)] != "cache"
    }
    if on_disk - {"manifest.json"} != set(manifest.inventory):
        problems.append("manifest inventory does not match the files on disk")
    if cache_files is not None:
        n = len(list((out_dir / "cache").glob("eig-*.npz")))
        if n != cache_files:
            problems.append(f"{n} eigen-cache files, expected {cache_files}")
    metrics = json.loads((out_dir / "reports/kernel_metrics.json").read_text())
    sub = json.loads((out_dir / "reports/subordination.json").read_text())
    residuals = [
        ("conservativeness_residual", float(v))
        for v in metrics["conservativeness_residual"].values()
    ] + [("max_rel_error", float(v["max_rel_error"])) for v in sub.values()]
    for name, value in residuals:
        if not value <= RESIDUAL_BOUNDS[name]:
            problems.append(f"{name} {value:.3e} above {RESIDUAL_BOUNDS[name]:.0e}")
    for label, kern in kernels.items():
        res = orthonormality_residual(kern.psi)
        if not res <= ORTHONORMALITY_BOUND:
            problems.append(f"eigenvectors of {label}: max|psi^T psi - I| = {res:.3e}")
    return problems


def check_density(verifications, crosscheck, n_samples: int) -> list[str]:
    problems = []
    for v in verifications:
        bound = TRANSFORM_BOUNDS[v.spec.kind]
        if not v.max_rel_transform_error <= bound:
            problems.append(
                f"{v.spec.label()}: transform residual "
                f"{v.max_rel_transform_error:.3e} above {bound:.0e}"
            )
        if not all(tail.finite for tail in v.tails):
            problems.append(f"{v.spec.label()}: tail constants not finite")
    if not crosscheck.max_rel_error <= RESIDUAL_BOUNDS["max_rel_error"]:
        problems.append(f"crosscheck residual {crosscheck.max_rel_error:.3e}")
    if crosscheck.n_samples != n_samples:
        problems.append(f"crosscheck ran {crosscheck.n_samples} samples")
    return problems


def differing_files(a: dict[str, str], b: dict[str, str]) -> int:
    """Files whose sha256 differs between two runs' manifest inventories."""
    return sum(1 for name in set(a) | set(b) if a.get(name) != b.get(name))
