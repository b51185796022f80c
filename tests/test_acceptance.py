"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  The
session-scoped kernel cache is shared across criteria, so eigendecompositions
are paid once.
"""

import hashlib
import json
import math
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fractalheat import (
    build_good_labeling,
    build_system,
    build_vertex_graph,
    crosscheck_subordination,
    estimate_walk_dimension,
    gasket_vertex_count,
    validate_snf,
)
from fractalheat.bounds import (
    ReflectionStudy,
    refinement_stability,
    relativistic_comparison_reports,
    sandwich_check_f,
    stable_comparison_reports,
)
from fractalheat.exact import Q3, Vec2
from fractalheat.subordinators import SubordinatorSpec, laplace_transform_numeric, verify_density

CONFIGS = Path(__file__).parent.parent / "configs"

STABLE = SubordinatorSpec("stable", 0.5)
RELATIVISTIC = SubordinatorSpec("relativistic", 0.5, 1.0)


def _line(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} ({name}): {status} - {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_geometry_exactness(gasket, cache):
    t0 = time.perf_counter()
    counts = {n: cache.graph(gasket, 0, n).n_vertices for n in range(8)}
    formula_ok = all(counts[n] == gasket_vertex_count(n) for n in range(8))
    # the 2187-cell gasket graph has exactly 3282 vertices
    big_ok = counts[7] == 3282
    snf_ok = validate_snf(gasket, depth=3).ok
    translations = [
        Vec2.ZERO,
        Vec2.of(Fraction(1, 2) - Fraction(1, 100), 0),
        Vec2(Q3.of(Fraction(1, 4)), Q3.of(0, Fraction(1, 4))),
    ]
    broken = build_system(
        "perturbed", 2, translations, walk_dim=2.0, chemical_exp=2.0,
        essential_override=list(gasket.essential_vertices),
    )
    nesting = validate_snf(broken, depth=3).result("nesting")
    perturbed_ok = (not nesting.passed) and "witness" in nesting.detail
    elapsed = time.perf_counter() - t0
    _line(
        1,
        "geometry exactness",
        formula_ok and big_ok and snf_ok and perturbed_ok and elapsed < 5.0,
        f"3282-vertex graph exact, axioms pass, perturbed nesting fails "
        f"({nesting.detail}), {elapsed:.2f}s",
    )


def test_criterion_02_good_labeling(gasket, cache):
    t0 = time.perf_counter()
    details = []
    for M in (0, 1):
        window = M + 2
        label_map = build_good_labeling(gasket, M, window)
        depth = 4 - M
        window_graph = cache.graph(gasket, window, depth)
        folded_graph = cache.graph(gasket, M, depth)
        # raises on any shared vertex mapping inconsistently
        mapping = label_map.fold_graph_vertices(window_graph, folded_graph)
        assert set(mapping.tolist()) == set(range(folded_graph.n_vertices))
        details.append(f"M={M}: {len(label_map.complexes)} complexes consistent")
    elapsed = time.perf_counter() - t0
    _line(2, "good labeling", elapsed < 5.0, "; ".join(details) + f", {elapsed:.2f}s")


def test_criterion_03_walk_dimension(gasket, cache):
    t0 = time.perf_counter()
    est = estimate_walk_dimension(gasket, 6, cache=cache)
    ratio_by_5 = est.ratios[4]
    ratio_ok = abs(ratio_by_5 - 5.0) / 5.0 <= 0.01
    target = math.log(5) / math.log(2)
    dw_ok = abs(est.estimate - target) <= 0.02
    elapsed = time.perf_counter() - t0
    _line(
        3,
        "walk dimension",
        ratio_ok and dw_ok and elapsed < 30.0,
        f"ratio at n=5: {ratio_by_5:.4f}, d_w = {est.estimate:.4f} "
        f"(target {target:.4f}), {elapsed:.1f}s",
    )


def test_criterion_04_kernel_sanity(gasket, cache):
    t0 = time.perf_counter()
    kern = cache.kernel(gasket, 1, 6)  # 3282 vertices
    times = (0.5, 2.0, 5.0, 50.0)
    cons = max(kern.conservativeness_residual(t) for t in times)
    g = kern.matrix(2.0)
    sym_ok = np.array_equal(g, g.T)
    mu = kern.mu
    semigroup = 0.0
    for s in (1.0, 0.005):  # slow modes only, then thousands of active modes
        p_s = kern.matrix(s) * mu[None, :]
        p_2s = kern.matrix(2.0 * s) * mu[None, :]
        semigroup = max(semigroup, float(np.abs(p_s @ p_s - p_2s).max()))
    t_flat = 10.0 * 5.0
    flat_dev = np.abs(kern.matrix(t_flat) - 1.0 / 3.0).max()
    # uniform comparability from the crossover on, at the largest depths
    flat_ratio = 0.0
    for M, depth in ((1, 6), (0, 6)):
        k = cache.kernel(gasket, M, depth)
        g_cross = k.matrix(5.0**M)
        flat_ratio = max(flat_ratio, float(g_cross.max() / g_cross.min()))
    elapsed = time.perf_counter() - t0
    _line(
        4,
        "kernel sanity",
        cons <= 1e-10 and sym_ok and semigroup <= 1e-8 and flat_dev <= 1e-8
        and flat_ratio <= 3.0 and elapsed < 120.0,
        f"conservativeness {cons:.1e}, symmetry exact, semigroup {semigroup:.1e}, "
        f"flat deviation {flat_dev:.1e} at t={t_flat}, "
        f"flat ratio {flat_ratio:.2f} at depth 6, {elapsed:.1f}s",
    )


def test_criterion_05_subordinator_oracle():
    t0 = time.perf_counter()
    lam_grid = np.logspace(-3, 3, 13)
    rep_half = verify_density(STABLE, t_values=(0.5, 1.0, 2.0), lam_grid=lam_grid)
    worst_general = 0.0
    for alpha in (0.3, 0.7):
        rep = verify_density(
            SubordinatorSpec("stable", alpha), t_values=(0.5, 1.0, 2.0),
            lam_grid=lam_grid,
        )
        worst_general = max(worst_general, rep.max_rel_transform_error)
    norm = laplace_transform_numeric(RELATIVISTIC, 1.0, 0.0)
    norm_ok = abs(norm - 1.0) <= 1e-6
    elapsed = time.perf_counter() - t0
    _line(
        5,
        "subordinator oracle",
        rep_half.max_rel_transform_error <= 1e-6
        and worst_general <= 1e-12
        and norm_ok
        and elapsed < 60.0,
        f"transform residual {rep_half.max_rel_transform_error:.1e} (a=1/2), "
        f"{worst_general:.1e} (a in {{0.3,0.7}}), relativistic norm "
        f"|1-{norm:.8f}|, {elapsed:.1f}s",
    )


def test_criterion_06_subordination_equivalence(gasket, cache):
    t0 = time.perf_counter()
    kern = cache.kernel(gasket, 0, 5)
    worst = {}
    for spec in (STABLE, RELATIVISTIC):
        rep = crosscheck_subordination(
            kern, spec, times=[0.3, 1.0, 3.0], n_samples=20, seed=11
        )
        worst[spec.label()] = rep.max_rel_error
    ok = all(v <= 1e-3 for v in worst.values())
    elapsed = time.perf_counter() - t0
    _line(
        6,
        "subordination equivalence",
        ok and elapsed < 120.0,
        ", ".join(f"{k}: {v:.1e}" for k, v in worst.items()) + f", {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def studies(gasket, cache):
    return {
        n: ReflectionStudy.build(gasket, M=1, depth=n, window=2, cache=cache)
        for n in (4, 5)
    }


def test_criterion_07_stable_reflection_bounds(studies):
    t0 = time.perf_counter()
    reports = {
        n: stable_comparison_reports(studies[n], alpha=0.5, n_times=12, seed=11)
        for n in (4, 5)
    }
    details = []
    ok = True
    for name in ("near", "flat"):
        fine = reports[5][name]
        stability = refinement_stability(reports[4][name], fine)
        good = fine.passed and fine.spread <= 10.0 and stability <= 0.5
        ok &= good
        details.append(f"{name}: spread {fine.spread:.2f}, stability {stability:.3f}")
    elapsed = time.perf_counter() - t0
    _line(
        7,
        "stable reflection bounds",
        ok and elapsed < 300.0,
        "; ".join(details) + f", {elapsed:.1f}s",
    )


def test_criterion_08_relativistic_reflection_bounds(studies):
    t0 = time.perf_counter()
    reports = {
        n: relativistic_comparison_reports(
            studies[n], alpha=0.5, m=1.0, n_times=12, seed=11
        )
        for n in (4, 5)
    }
    details = []
    ok = True
    for name in ("flat", "regime1", "regime2", "regime3"):
        fine = reports[5][name]
        stability = refinement_stability(reports[4][name], fine)
        good = fine.passed and fine.spread <= 10.0 and stability <= 0.5
        ok &= good
        details.append(f"{name}: {fine.spread:.2f}/{stability:.3f}")
    dom = reports[5]["domination"]
    dom_ok = dom.passed and dom.extras["max_violation"] <= 1e-8
    ok &= dom_ok
    details.append(f"domination max violation {dom.extras['max_violation']:.2e}")
    elapsed = time.perf_counter() - t0
    _line(
        8,
        "relativistic reflection bounds",
        ok and elapsed < 300.0,
        "; ".join(details) + f", {elapsed:.1f}s",
    )


def test_criterion_09_sandwich_lemma(gasket):
    t0 = time.perf_counter()
    checks = [
        sandwich_check_f(gasket, 0.5, 2.0, 1.0, M=1),
        sandwich_check_f(gasket, 0.25, 1.5, 0.7, M=0),
        sandwich_check_f(gasket, 1.0, 1.0, 1.0, M=0),
    ]
    ok = all(c.passed for c in checks)
    eq = max(
        max(c.upper_equality_error, c.prefactor_equality_error,
            c.exponential_equality_error)
        for c in checks
    )
    elapsed = time.perf_counter() - t0
    _line(
        9,
        "sandwich lemma",
        ok and eq <= 1e-12 and elapsed < 1.0,
        f"bounds hold, corner equalities within {eq:.1e}, {elapsed:.2f}s",
    )


def test_criterion_10_reproducibility(tmp_path):
    t0 = time.perf_counter()
    run_cfg = tmp_path / "run.ini"
    text = (CONFIGS / "default-run.ini").read_text()
    run_cfg.write_text(
        text.replace("fractal = gasket.ini", f"fractal = {CONFIGS / 'gasket.ini'}")
    )

    def run(outdir):
        proc = subprocess.run(
            [
                sys.executable, "-m", "fractalheat", "report",
                "--config", str(run_cfg), "--out", str(outdir),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return {
            str(p.relative_to(outdir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(outdir).rglob("*"))
            if p.is_file() and p.suffix in (".csv", ".json", ".txt", ".gp")
            and p.name != "manifest.json"
        }

    inv1 = run(tmp_path / "r1")
    inv2 = run(tmp_path / "r2")
    identical = inv1 == inv2
    man1 = json.loads((tmp_path / "r1" / "manifest.json").read_text())
    man2 = json.loads((tmp_path / "r2" / "manifest.json").read_text())
    manifests_match = man1["inventory"] == man2["inventory"]
    elapsed = time.perf_counter() - t0
    _line(
        10,
        "reproducibility",
        identical and manifests_match and man1["claims_passed"],
        f"{len(inv1)} files bit-identical across two cold runs, "
        f"manifest inventories equal, {elapsed:.0f}s",
    )
