import itertools

import pytest

import equilat.surface
from equilat.census import enumerate_surfaces
from equilat.surface import GluedSurface, random_surface


@pytest.fixture(scope="session")
def census8():
    """All isomorphism classes of closed connected gluings, T = 2..8."""
    return {T: enumerate_surfaces(T) for T in (2, 4, 6, 8)}


@pytest.fixture(scope="session")
def brute_force_structures(census8):
    """(surface, weight vectors passing both rules) per census class, T <= 6.

    Tries all 6^(T-1) face phases with face 0 at phase 0, putting
    zeta^(phase[f] + 2s) on dart 3f+s, and checks the two defining rules
    on every dart d: the other end of its edge carries the opposite weight,
    and at the tail of d the outgoing edge along the previous side of the
    face is one step of zeta further round.  Fixing face 0 loses nothing,
    as adding r to every phase preserves both rules.
    """
    out = []
    for T in (2, 4, 6):
        for surface in census8[T]:
            g = surface.gluing
            # (d, e, k): the weight on dart e must be zeta^k times that on d
            rules = [(d, g[d], 3) for d in range(3 * T)]
            rules += [(d, g[d - d % 3 + (d + 2) % 3], 1) for d in range(3 * T)]
            rules = [(d // 3, 2 * (d % 3), e // 3, 2 * (e % 3), k) for d, e, k in rules]
            passing = []
            for rest in itertools.product(range(6), repeat=T - 1):
                phase = (0,) + rest
                if all((phase[fe] + se - phase[fd] - sd - k) % 6 == 0
                       for fd, sd, fe, se, k in rules):
                    passing.append(tuple((p + 2 * s) % 6 for p in phase for s in range(3)))
            out.append((surface, passing))
    return out


@pytest.fixture(scope="session")
def hex_torus():
    return GluedSurface(2, (3, 4, 5, 0, 1, 2))


@pytest.fixture(scope="session")
def pillowcase():
    return GluedSurface(2, (3, 5, 4, 0, 2, 1))


@pytest.fixture(scope="session")
def corpus200(census8):
    """Census classes plus random surfaces with T up to 40, 200 total."""
    surfaces = []
    surfaces.extend(census8[4])
    surfaces.extend(census8[6])
    surfaces.extend(census8[8][:78])
    for i, T in enumerate([10] * 12 + [14] * 8 + [20] * 6 + [28] * 2 + [40] * 2):
        surfaces.append(random_surface(T, seed=1000 + i))
    assert len(surfaces) == 200
    return surfaces


@pytest.fixture(scope="session")
def tran_lb_corpus(census8):
    """3-subdivisions of the genus >= 2 translation-admitting census classes
    (subdividing by 3 scales all periods into 3Z + 3wZ)."""
    from equilat.surface import euler_and_genus, subdivide
    from equilat.translation import detect_structures, is_locally_bounded_tran

    out = []
    for T in (6, 8):
        for s in census8[T]:
            if detect_structures(s) is not None and euler_and_genus(s).genus >= 2:
                sub = subdivide(s, 3)
                st = detect_structures(sub)
                assert is_locally_bounded_tran(sub, st).ok
                out.append((sub, st))
    assert out
    return out


@pytest.fixture
def index_builds(monkeypatch):
    """The gluings that `_build_index` is called on during a test, in order."""
    built = []
    original = equilat.surface._build_index

    def counting(gluing):
        built.append(gluing)
        return original(gluing)

    monkeypatch.setattr(equilat.surface, "_build_index", counting)
    return built
