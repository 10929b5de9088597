import random

import pytest

from steinerkit.gf import GF, field, find_irreducible, is_irreducible, prime_power_decomposition


def test_prime_power_decomposition():
    assert prime_power_decomposition(8) == (2, 3)
    assert prime_power_decomposition(49) == (7, 2)
    assert prime_power_decomposition(23) == (23, 1)
    assert prime_power_decomposition(6) is None
    assert prime_power_decomposition(1) is None


def test_non_prime_power_rejected():
    with pytest.raises(ValueError):
        GF(12)


def test_modulus_choices_low_degree_first():
    # smallest monic irreducible, coefficients compared constant term first
    assert find_irreducible(2, 2) == (1, 1, 1)  # 1 + x + x^2
    assert find_irreducible(2, 3) == (1, 0, 1, 1)  # 1 + x^2 + x^3
    assert find_irreducible(3, 2) == (1, 0, 1)  # 1 + x^2
    assert find_irreducible(5, 1) == (0, 1)
    # GF keeps the certified modulus; a prime field keeps the identity map
    assert field(8).modulus == (1, 0, 1, 1) and field(5).modulus == (0, 1)


def test_irreducibility_trial_division():
    assert is_irreducible([1, 1, 1], 2)
    assert not is_irreducible([1, 0, 1], 2)  # (1+x)^2
    assert not is_irreducible([0, 1, 1], 2)  # x(1+x)
    assert is_irreducible([1, 2, 0, 1], 3)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 32, 64, 81])
def test_field_axioms_sampled(q):
    f = field(q)
    rng = random.Random(q)
    for _ in range(40):
        a, b, c = rng.randrange(q), rng.randrange(q), rng.randrange(q)
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        assert f.frobenius(f.add(a, b)) == f.add(f.frobenius(a), f.frobenius(b))
        assert f.frobenius(f.mul(a, b)) == f.mul(f.frobenius(a), f.frobenius(b))


@pytest.mark.parametrize("q", [4, 5, 8, 9, 16, 27, 32, 49, 64])
def test_generator_has_full_order(q):
    f = field(q)
    assert len({f.pow(f.generator, i) for i in range(q - 1)}) == q - 1
    # every nonzero element's order divides q-1
    for a in range(1, q):
        power, order = a, 1
        while power != 1:
            power, order = f.mul(power, a), order + 1
        assert (q - 1) % order == 0


def test_pow_and_sub():
    f = field(27)
    rng = random.Random(27)
    for _ in range(30):
        a = rng.randrange(1, 27)
        n = rng.randrange(0, 60)
        expected = 1
        for _ in range(n):
            expected = f.mul(expected, a)
        assert f.pow(a, n) == expected
        b = rng.randrange(27)
        assert f.add(f.add(a, f.neg(b)), b) == a


def test_zero_division():
    f = field(9)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -1)
    assert f.pow(0, 0) == 1
    assert f.pow(0, 5) == 0
