#!/usr/bin/env python3
"""Heat kernels on gasket graphs: spectra, exit times, scaling, folding.

The walk generator jumps along edges at rate L^(d_w n)/m(x); its spectral
decomposition evaluates the transition density at any time.  Exit-time
ratios recover the walk dimension, and the reflected kernel agrees exactly
with the preimage sum of the window kernel.
"""

import numpy as np

from fractalheat import (
    KernelCache,
    build_good_labeling,
    check_scaling_property,
    estimate_walk_dimension,
    folding_crosscheck,
    sierpinski_gasket,
    unit_interval_system,
)

gasket = sierpinski_gasket()
cache = KernelCache()

print("== exit-time scaling ==")
est = estimate_walk_dimension(gasket, 6)
for n, (t, r) in enumerate(zip(est.exit_times, est.ratios)):
    print(f"  depth {n}: T = {t:12.4f}   T(n+1)/T(n) = {r:.5f}")
print(f"  walk dimension estimate: {est.estimate:.5f}  (log5/log2 = 2.32193)")

est_i = estimate_walk_dimension(unit_interval_system(), 5)
print(f"  interval ratios -> 4: {[round(r, 4) for r in est_i.ratios]}")

print("\n== kernel sanity at (M=0, depth 4) ==")
kern = cache.kernel(gasket, 0, 4)
print(f"  spectral gap: {kern.spectral_gap:.4f}")
for t in (0.1, 1.0, 10.0):
    res = kern.conservativeness_residual(t)
    print(f"  t={t:5.1f}: mass residual {res:.2e}")
g = kern.matrix(10.0)
print(f"  long-time flat limit: max|g - 1| = {np.abs(g - 1.0).max():.2e}")

print("\n== space-time scaling across depths ==")
for depth in (2, 3):
    dev = check_scaling_property(gasket, 0, depth, times=[0.5, 1, 2, 5], cache=cache)
    print(f"  depth {depth} vs {depth + 1}: max relative deviation {dev.max_rel_deviation:.2e}")

print("\n== folding identity at kernel level ==")
lm = build_good_labeling(gasket, 0, 2)
window = cache.kernel(gasket, 2, 4)
folded = cache.kernel(gasket, 0, 4)
rng = np.random.default_rng(0)
corners = set(folded.graph.corner_indices())
pairs = []
while len(pairs) < 8:
    i, j = rng.integers(0, folded.graph.n_vertices, 2)
    if int(j) not in corners:
        pairs.append((int(i), int(j)))
err = folding_crosscheck(window, lm, folded, 1.0, pairs)
print(f"  sum over preimages vs reflected kernel: max rel err {err:.2e}")
