#!/usr/bin/env python3
"""Invert the bounded-degree map on every census class up to T = tmax.

For each closed connected class S, B(S) is written as TSF and read back,
so that nothing but its gluing survives, and then inverted; the recovered
surface must have the canonical form of S.  The classes are pairwise
non-isomorphic, so a pass also shows that B separates them.  The last
line is `RESULT: pass|fail ...`.

Usage: python3 scripts/check_degree_bound_inverse.py [--tmax 6]
"""

import argparse
import sys
import time

from equilat.census import enumerate_surfaces
from equilat.degree_bound import bounded_degree_map, recover_original
from equilat.surface import SurfaceError, canonical_form, load_surface, save_surface


def recovers(surface) -> str:
    """'' when B(surface) inverts to surface after a TSF round trip, else why not."""
    b = load_surface(save_surface(bounded_degree_map(surface).surface))
    try:
        recovered = recover_original(b)
    except SurfaceError as exc:
        return str(exc)
    if canonical_form(recovered) != canonical_form(surface):
        return "recovered a surface of another class"
    return ""


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tmax", type=int, default=6)
    args = parser.parse_args()

    total, failures = 0, []
    for T in range(2, args.tmax + 1, 2):
        t0 = time.perf_counter()
        try:
            classes = enumerate_surfaces(T)
        except SurfaceError as exc:
            print(f"RESULT: fail census T={T}: {exc}")
            return 1
        for i, surface in enumerate(classes):
            why = recovers(surface)
            if why:
                failures.append((T, i, why))
        total += len(classes)
        print(f"T={T:2d}: {len(classes)} classes inverted in "
              f"{time.perf_counter() - t0:.1f}s")
    for T, i, why in failures[:10]:
        print(f"  T={T} class {i}: {why}")
    if failures:
        print(f"RESULT: fail {len(failures)} of {total} classes not recovered "
              f"up to T={args.tmax}")
        return 1
    print(f"RESULT: pass {total} classes recovered up to T={args.tmax}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
