#!/usr/bin/env python3
"""Reproduce the [84,12,19] code on the genus-3 {3,7} surface skeleton and
compare it with the plain rotational labeling, printing the weight
distributions of both."""

import collections
import sys

sys.path.insert(0, "src")

from bpcodes.f2la import kernel_basis
from bpcodes.tanner import klein_tanner_code, tanner_code, tanner_report


def weight_distribution(t):
    kb = kernel_basis(t.differential())
    rows = kb.basis.row_ints()
    dist = collections.Counter()
    cur = 0
    for i in range(1, 1 << len(rows)):
        cur ^= rows[(i & -i).bit_length() - 1]
        dist[cur.bit_count()] += 1
    return dict(sorted(dist.items()))


def main():
    for search in (False, True):
        t = klein_tanner_code(search=search)
        rep = tanner_report(t, with_distance=True)
        print(f"search={search}: [{rep['n']},{rep['k']},{rep['d']}]")
        print(f"  labeling: {rep['labeling']}")
        print(f"  lambda2 = {rep['lambda2']:.6f}, "
              f"spectral distance bound = {rep['spectral_distance_bound']:.3f}")
        if rep["k"] <= 12:
            print(f"  weight distribution: {weight_distribution(t)}")


if __name__ == "__main__":
    main()
