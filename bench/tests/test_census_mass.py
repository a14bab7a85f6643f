"""The recorded census table against the exponential-formula mass identity.

Labelled closed gluings of n triangles number (3n-1)!!, and relabelling
(n! face orders times 3^n side rotations) acts on them with stabiliser
Aut(S).  So for connected surfaces

    sum over classes of 1/|Aut(S)| = [x^T] log(sum_n (3n-1)!! x^n / n!) / 3^T,

and a class list that is complete and free of duplicates must match it.
|Aut| and the canonical codes are computed here, not by the package.
"""

from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

import oracle
from equilat.census import enumerate_surfaces

MASS = {2: Fraction(5, 6), 4: Fraction(5), 6: Fraction(1105, 18), 8: Fraction(1130)}
CLASSES = {2: 3, 4: 11, 6: 81, 8: 1228}


def labelled_gluings(n: int) -> int:
    """(3n-1)!!, the fixed-point-free involutions on 3n darts; 0 if 3n is odd."""
    if (3 * n) % 2:
        return 0
    out = 1
    for k in range(3 * n - 1, 0, -2):
        out *= k
    return out


def connected_mass(T: int) -> Fraction:
    a = [Fraction(labelled_gluings(n), factorial(n)) for n in range(T + 1)]
    # log of a power series with a[0] = 1: n c_n = n a_n - sum_k k c_k a_{n-k}
    c = [Fraction(0)] * (T + 1)
    for n in range(1, T + 1):
        c[n] = a[n] - sum((k * c[k] * a[n - k] for k in range(1, n)), Fraction(0)) / n
    return c[T] / 3 ** T


def code_from(gluing: tuple, start: int) -> tuple:
    """Partners in the labelling that numbers faces in order of discovery."""
    new_id = {start // 3: (0, start % 3)}
    order = [start // 3]
    code = []
    for nf in range(len(gluing) // 3):
        face = order[nf]
        base = new_id[face][1]
        for i in range(3):
            p = gluing[3 * face + (base + i) % 3]
            if p // 3 not in new_id:
                new_id[p // 3] = (len(order), p % 3)
                order.append(p // 3)
            pf, pbase = new_id[p // 3]
            code.append(3 * pf + (p % 3 - pbase) % 3)
    return tuple(code)


def canonical_and_aut(gluing: tuple) -> tuple:
    codes = [code_from(gluing, d) for d in range(len(gluing))]
    best = min(codes)
    return best, codes.count(best)


def test_series_gives_the_known_masses():
    assert {T: connected_mass(T) for T in MASS} == MASS


@pytest.mark.parametrize("T", sorted(MASS))
def test_census_classes_satisfy_the_mass_identity(T):
    classes = enumerate_surfaces(T)
    assert len(classes) == CLASSES[T]
    mass = Fraction(0)
    codes = set()
    genera = Counter()
    for surface in classes:
        stats = oracle.MapStats(T, list(surface.gluing))
        assert stats.connected
        code, aut = canonical_and_aut(surface.gluing)
        codes.add(code)
        mass += Fraction(1, aut)
        genera[stats.genus] += 1
    assert len(codes) == len(classes), "two census classes are isomorphic"
    assert mass == connected_mass(T)
    recorded = {g: count for t, g, count, _, _ in oracle.CENSUS_TABLE if t == T}
    assert dict(genera) == recorded
