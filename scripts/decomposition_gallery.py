#!/usr/bin/env python3
"""Print parallelogram decompositions of locally bounded translation surfaces.

Finds small genus >= 2 translation surfaces in the census, 3-subdivides
them into the locally bounded regime, decomposes each, and prints the
polytope data and the face shapes.

Usage: python3 scripts/decomposition_gallery.py [--tmax 8] [--k 3]
"""

import argparse

from equilat.census import enumerate_surfaces
from equilat.parallelogram import decompose
from equilat.surface import euler_and_genus, subdivide, vertex_orbits
from equilat.translation import detect_structures, is_locally_bounded_tran


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tmax", type=int, default=8)
    parser.add_argument("--k", type=int, default=3)
    args = parser.parse_args()

    shown = 0
    for T in range(2, args.tmax + 1, 2):
        for base in enumerate_surfaces(T):
            if detect_structures(base) is None:
                continue
            if euler_and_genus(base).genus < 2:
                continue
            surface = subdivide(base, args.k)
            st = detect_structures(surface)
            if not is_locally_bounded_tran(surface, st).ok:
                continue
            high = [(r.vertex, r.degree) for r in vertex_orbits(surface)
                    if r.degree > 6]
            B, geoms = decompose(surface, st)
            shapes = ", ".join(f"{g.length}x{g.width}" for g in geoms)
            print(f"T={surface.face_count:3d} g={euler_and_genus(surface).genus} "
                  f"cone points {high} -> |V|={len(B.vertices)} "
                  f"|E|={len(B.edges)} |F|={len(B.faces)}: {shapes}")
            shown += 1
    print(f"\n{shown} decompositions")


if __name__ == "__main__":
    main()
