"""Arithmetic in GF(p^e) with a deterministic choice of defining polynomial.

Field elements are indexed 0..q-1: the element with coordinate vector
(a_0, ..., a_{e-1}) in the polynomial basis has index sum(a_i * p^i), so for
p=2 the index is the bit pattern of the coordinate vector.  The modulus is
the lexicographically smallest monic irreducible polynomial of degree e,
comparing coefficient vectors low-degree-first; irreducibility is certified
by trial division against every monic polynomial of degree <= e/2.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import product


def factorize(n):
    """Prime factorization by trial division, as {prime: exponent}."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_power_decomposition(q):
    """Return (p, e) with q = p^e, or None if q is not a prime power."""
    if q < 2:
        return None
    factors = factorize(q)
    if len(factors) != 1:
        return None
    (p, e), = factors.items()
    return p, e


# -- polynomial helpers over GF(p); coefficient lists, low degree first ------


def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], -1, p)
    while len(a) - 1 >= dm and a:
        shift = len(a) - 1 - dm
        factor = (a[-1] * inv_lead) % p
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - factor * mi) % p
        _poly_trim(a)
    return a


def _poly_divides(d, a, p):
    return not _poly_mod(a, d, p)


def _monic_polys(p, degree):
    """All monic polynomials of the given degree, lexicographic low-first."""
    for tail in product(range(p), repeat=degree):
        yield list(tail) + [1]


def is_irreducible(coeffs, p):
    """Trial-division irreducibility over GF(p) for a monic polynomial."""
    coeffs = list(coeffs)
    e = len(coeffs) - 1
    if e < 1:
        return False
    if e == 1:
        return True
    if coeffs[0] == 0:
        return False
    for d in range(1, e // 2 + 1):
        for cand in _monic_polys(p, d):
            if _poly_divides(cand, coeffs, p):
                return False
    return True


def find_irreducible(p, e):
    """Lexicographically smallest monic irreducible of degree e over GF(p)."""
    for cand in _monic_polys(p, e):
        if is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError("no irreducible polynomial found (unreachable)")


class GF:
    """GF(p^e) with index-encoded elements and log/exp multiplication tables."""

    def __init__(self, q):
        decomp = prime_power_decomposition(q)
        if decomp is None:
            raise ValueError("%d is not a prime power" % q)
        self.p, self.e = decomp
        self.q = q
        if self.e == 1:
            self.modulus = (0, 1)  # the identity map; prime fields need no extension
        else:
            self.modulus = find_irreducible(self.p, self.e)
        self._build_tables()

    # -- index <-> coefficient vector ---------------------------------------

    def digits(self, a):
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return out

    def from_digits(self, digits):
        a = 0
        for d in reversed(digits):
            a = a * self.p + d
        return a

    # -- raw polynomial-basis arithmetic (used to bootstrap the tables) ------

    def _raw_mul(self, a, b):
        if self.e == 1:
            return (a * b) % self.p
        prod = _poly_mul(_poly_trim(self.digits(a)), _poly_trim(self.digits(b)), self.p)
        rem = _poly_mod(prod, list(self.modulus), self.p)
        rem += [0] * (self.e - len(rem))
        return self.from_digits(rem)

    def _raw_pow(self, a, n):
        result = 1
        square = a
        while n:
            if n & 1:
                result = self._raw_mul(result, square)
            square = self._raw_mul(square, square)
            n >>= 1
        return result

    def _build_tables(self):
        qm1 = self.q - 1
        prime_divisors = list(factorize(qm1)) if qm1 > 1 else []
        generator = None
        for a in range(1, self.q):
            if qm1 == 1 or all(self._raw_pow(a, qm1 // ell) != 1 for ell in prime_divisors):
                generator = a
                break
        self.generator = generator
        exp = [1] * qm1 if qm1 else []
        for i in range(1, qm1):
            exp[i] = self._raw_mul(exp[i - 1], generator)
        log = [0] * self.q
        for i, x in enumerate(exp):
            log[x] = i
        self._exp = exp
        self._log = log

    # -- field operations -----------------------------------------------------

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        da, db = self.digits(a), self.digits(b)
        return self.from_digits([(x + y) % self.p for x, y in zip(da, db)])

    def neg(self, a):
        if self.p == 2:
            return a
        return self.from_digits([(-x) % self.p for x in self.digits(a)])

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def pow(self, a, n):
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise ZeroDivisionError("0 has no inverse")
            return 0
        return self._exp[(self._log[a] * n) % (self.q - 1)]

    def frobenius(self, a):
        return self.pow(a, self.p)


@lru_cache(maxsize=None)
def field(q):
    """Cached GF(q) instance (fields are immutable once built)."""
    return GF(q)
