"""Set-valuedness of J on L1: brute-force enumeration and failed strict convexity.

A selection of J(f) must take the values +-||f||_1 on the sign sets of f and
may take any value in [-||f||_1, ||f||_1] where f vanishes.  Enumerating a
value grid confirms that exactly this template family passes the membership
test, and the classical midpoint construction shows L1 is not strictly
convex.
"""

import numpy as np

from dualitymap import (
    FiniteMeasureSpace,
    brute_force_duality_l1,
    l1_norm,
    strict_convexity_counterexample,
)
from dualitymap.l1 import mask_from_indices

space = FiniteMeasureSpace([1.0, 1.0, 1.0])
f = np.array([2.0, 0.0, -1.0])

found = brute_force_duality_l1(f, space, grid_steps=21)
print(f"f = {f}: {len(found)} grid selections pass the duality-set test")
print("  first three :", [sel.tolist() for sel in found[:3]])
print("  last one    :", found[-1].tolist())
print("  every one is (3, a, -3) with a free on the zero set of f")

g = np.array([2.0, -1.0])
space2 = FiniteMeasureSpace([1.0, 1.0])
found = brute_force_duality_l1(g, space2, grid_steps=21)
print(f"\ng = {g} has no zeros: J(g) is the singleton {found[0]}")

# strict convexity fails: two unit vectors whose midpoint still has norm one
fa, fb, mid = strict_convexity_counterexample(
    space2, mask_from_indices(space2, [0], "A"), mask_from_indices(space2, [1], "B")
)
print("\nnormalized indicators f =", fa, ", g =", fb)
print("  ||f||_1 =", l1_norm(fa, space2), " ||g||_1 =", l1_norm(fb, space2))
print("  ||(f+g)/2||_1 =", mid, " (strict convexity would force < 1)")
