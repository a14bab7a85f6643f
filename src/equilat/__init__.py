"""Exact combinatorial engine for surfaces glued from unit equilateral triangles."""

from equilat.surface import (
    GluedSurface,
    load_surface,
    save_surface,
    euler_and_genus,
    vertex_orbits,
    connected_components,
    subdivide,
    conformal_double,
    canonical_form,
    random_surface,
)
