import cmath

from hypothesis import given, strategies as st

from equilat.eisenstein import OMEGA, ONE, ROOTS6, ZERO, Eisenstein

ints = st.integers(min_value=-50, max_value=50)
elements = st.builds(Eisenstein, ints, ints)


def approx_equal(z1, z2):
    return abs(z1 - z2) < 1e-9


@given(elements, elements)
def test_addition_matches_complex_arithmetic(x, y):
    assert approx_equal((x + y).to_complex(), x.to_complex() + y.to_complex())


@given(elements, elements)
def test_multiplication_matches_complex_arithmetic(x, y):
    assert approx_equal((x * y).to_complex(), x.to_complex() * y.to_complex())


@given(elements, elements)
def test_norm_is_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()


@given(elements)
def test_norm_is_squared_modulus(x):
    assert approx_equal(x.norm(), abs(x.to_complex()) ** 2)


@given(elements)
def test_subtraction_inverts_addition(x):
    assert x - x == ZERO
    assert x + (-x) == ZERO


def test_omega_is_primitive_sixth_root():
    # w = e^{i*pi/3} satisfies w^2 = w - 1, so w^6 = 1
    assert OMEGA * OMEGA == OMEGA - ONE
    power = ONE
    for _ in range(6):
        power = power * OMEGA
    assert power == ONE


def test_sixth_roots_table():
    for k in range(6):
        z = ROOTS6[k].to_complex()
        assert approx_equal(z, cmath.exp(1j * cmath.pi * k / 3))


@given(st.integers(min_value=-20, max_value=20), st.integers(min_value=-20, max_value=20))
def test_root6_group_law(a, b):
    # exponents add under ring multiplication; negation adds 3
    assert ROOTS6[a % 6] * ROOTS6[b % 6] == ROOTS6[(a + b) % 6]
    assert -ROOTS6[a % 6] == ROOTS6[(a + 3) % 6]
    assert ROOTS6[a % 6] * ROOTS6[-a % 6] == ONE


@given(elements, st.integers(min_value=1, max_value=5))
def test_sublattice_membership(x, m):
    scaled = Eisenstein(m, 0) * x
    assert scaled.in_sublattice(m)
    if x.a % m or x.b % m:
        assert not x.in_sublattice(m)
