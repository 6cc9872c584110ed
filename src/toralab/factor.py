"""Factorization of integer polynomials over Q (Zassenhaus).

Pipeline: squarefree decomposition, Cantor-Zassenhaus factorization
modulo a good odd prime, quadratic Hensel lifting past the Mignotte
coefficient bound, then subset recombination.  Degrees are capped at
desk scale (MAX_DEGREE = 24); inputs are monic up to sign.
"""

from __future__ import annotations

import random
from itertools import combinations

from . import intpoly
from .errors import DegreeTooLarge

MAX_DEGREE = 24

_SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103]


# ---------------------------------------------------------------------------
# Arithmetic mod m (a prime p, or p^k while lifting); coefficient lists in
# increasing degree
# ---------------------------------------------------------------------------

def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _zmod(a, m):
    """a mod m (a prime p, or p^k while lifting), trailing zeros dropped."""
    return _ptrim([x % m for x in a])


def _pmul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % m
    return _ptrim(out)


def _psub(a, b, m):
    n = max(len(a), len(b))
    return _zmod([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                  for i in range(n)], m)


def _pdivmod(a, b, m):
    """Quotient and remainder mod m (a prime p, or p^k while lifting).

    lc(b) must be a unit mod m; it is 1 for the monic divisors of a lift.
    """
    a, b = _zmod(a, m), _zmod(b, m)
    if not b:
        raise ZeroDivisionError
    inv_lb = pow(b[-1], -1, m)
    q = [0] * max(len(a) - len(b) + 1, 1)
    r = a[:]
    while r and len(r) >= len(b):
        c = (r[-1] * inv_lb) % m
        k = len(r) - len(b)
        q[k] = c
        for i in range(len(b)):
            r[i + k] = (r[i + k] - c * b[i]) % m
        _ptrim(r)
    return _ptrim(q), _ptrim(r)


def _pmonic(a, m):
    a = _zmod(a, m)
    if not a:
        return a
    inv = pow(a[-1], -1, m)
    return [(x * inv) % m for x in a]


def _pgcd(a, b, p):
    a, b = _zmod(a, p), _zmod(b, p)
    while b:
        _, r = _pdivmod(a, b, p)
        a, b = b, r
    return _pmonic(a, p)


def _ppowmod(base, e, mod, m):
    result = [1]
    base = _pdivmod(base, mod, m)[1]
    while e:
        if e & 1:
            result = _pdivmod(_pmul(result, base, m), mod, m)[1]
        base = _pdivmod(_pmul(base, base, m), mod, m)[1]
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# Cantor-Zassenhaus over GF(p)
# ---------------------------------------------------------------------------

def _distinct_degree(f, p):
    """Split monic squarefree f mod p into products of equal-degree parts."""
    out = []
    w = [0, 1]  # x
    fstar = f[:]
    d = 0
    while len(fstar) - 1 >= 2 * (d + 1):
        d += 1
        w = _ppowmod(w, p, fstar, p)
        g = _pgcd(_psub(w, [0, 1], p), fstar, p)
        if len(g) > 1:
            out.append((g, d))
            fstar, _ = _pdivmod(fstar, g, p)
            w = _pdivmod(w, fstar, p)[1]
    if len(fstar) > 1:
        out.append((fstar, len(fstar) - 1))
    return out


def _equal_degree_split(f, d, p, rng):
    """Find a proper monic factor of f, a product of degree-d irreducibles."""
    n = len(f) - 1
    while True:
        a = [rng.randrange(p) for _ in range(n)]
        a = _ptrim(a)
        if len(a) <= 1:
            continue
        g = _pgcd(a, f, p)
        if 1 < len(g) < len(f):
            return g
        b = _ppowmod(a, (p ** d - 1) // 2, f, p)
        g = _pgcd(_psub(b, [1], p), f, p)
        if 1 < len(g) < len(f):
            return g


def _equal_degree_factor(f, d, p, rng):
    if len(f) - 1 == d:
        return [f]
    g = _equal_degree_split(f, d, p, rng)
    h, _ = _pdivmod(f, g, p)
    return _equal_degree_factor(_pmonic(g, p), d, p, rng) + \
        _equal_degree_factor(_pmonic(h, p), d, p, rng)


def factor_mod_p(f, p):
    """Monic irreducible factors of a monic squarefree f over GF(p)."""
    rng = random.Random(12345)
    out = []
    for g, d in _distinct_degree(_pmonic(f, p), p):
        out.extend(_equal_degree_factor(g, d, p, rng))
    return sorted(out)


# ---------------------------------------------------------------------------
# Hensel lifting
# ---------------------------------------------------------------------------

def _zsym(a, m):
    """Symmetric representative mod m."""
    out = []
    for x in a:
        x %= m
        if x > m // 2:
            x -= m
        out.append(x)
    return intpoly.trim(out)


def _hensel_step(f, g, h, s, t, m):
    """One quadratic lift: from f = gh, sg+th = 1 (mod m) to mod m^2.

    g, h monic; returns g*, h*, s*, t* mod m^2.
    """
    m2 = m * m
    e = _zmod(intpoly.sub(f, intpoly.mul(g, h)), m2)
    q, r = _pdivmod(_pmul(s, e, m2), h, m2)
    g_star = _zmod(intpoly.add(intpoly.add(g, _pmul(t, e, m2)),
                               _pmul(q, g, m2)), m2)
    h_star = _zmod(intpoly.add(h, r), m2)
    b = _zmod(intpoly.sub(intpoly.add(_pmul(s, g_star, m2),
                                      _pmul(t, h_star, m2)), [1]), m2)
    c, d = _pdivmod(_pmul(s, b, m2), h_star, m2)
    s_star = _zmod(intpoly.sub(s, d), m2)
    t_star = _zmod(intpoly.sub(intpoly.sub(t, _pmul(t, b, m2)),
                               _pmul(c, g_star, m2)), m2)
    return g_star, h_star, s_star, t_star


def _pegcd(a, b, p):
    """Extended gcd over GF(p): returns (g, s, t) with sa + tb = g, g monic."""
    r0, r1 = _zmod(a, p), _zmod(b, p)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1, p), p)
        t0, t1 = t1, _psub(t0, _pmul(q, t1, p), p)
    inv = pow(r0[-1], -1, p)
    return ([(x * inv) % p for x in r0],
            [(x * inv) % p for x in s0],
            [(x * inv) % p for x in t0])


def _lift_split(f, left, right, p, target):
    """Lift f = prod(left)*prod(right) from mod p to mod p^k >= target."""
    g = [1]
    for u in left:
        g = _pmul(g, u, p)
    h = [1]
    for u in right:
        h = _pmul(h, u, p)
    _, s, t = _pegcd(g, h, p)
    m = p
    while m < target:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    return g, h, m


def _hensel_lift_tree(f, factors, p, target):
    """Lift all modular factors of monic f to mod p^k >= target."""
    if len(factors) == 1:
        return [_zmod(f, _next_power(p, target))]
    mid = len(factors) // 2
    left, right = factors[:mid], factors[mid:]
    g, h, m = _lift_split(f, left, right, p, target)
    return _hensel_lift_tree(g, left, p, target) + \
        _hensel_lift_tree(h, right, p, target)


def _next_power(p, target):
    m = p
    while m < target:
        m *= m
    return m


def _mignotte_bound(f):
    from math import isqrt
    norm2 = 0
    for c in f:
        norm2 += c * c
    return (2 ** (len(f) - 1)) * (isqrt(norm2) + 2)


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------

def _good_prime(f):
    lc = abs(f[-1])
    for p in _SMALL_PRIMES:
        if lc % p == 0:
            continue
        fp = _zmod(f, p)
        if len(fp) - 1 != len(f) - 1:
            continue
        if len(_pgcd(fp, intpoly.derivative(fp), p)) == 1:
            return p
    raise ArithmeticError("no suitable small prime found")


def factor_squarefree(f):
    """Irreducible factors over Q of a squarefree integer polynomial.

    Factors come back primitive with positive leading coefficient, so the
    product reconstitutes f up to the sign of its leading coefficient.
    """
    f = intpoly.primitive(f)
    n = intpoly.degree(f)
    if n <= 1:
        return [f] if n == 1 else []
    if abs(f[-1]) != 1:
        raise ValueError("expected a monic (up to sign) polynomial")

    p = _good_prime(f)
    modular = factor_mod_p(f, p)
    if len(modular) == 1:
        return [f]
    target = 2 * _mignotte_bound(f) + 1
    m = _next_power(p, target)
    lifted = _hensel_lift_tree(_zmod(f, m), modular, p, target)

    # subset recombination
    remaining = list(range(len(lifted)))
    result = []
    current = f
    size = 1
    while 2 * size <= len(remaining):
        found = True
        while found:
            found = False
            for subset in combinations(remaining, size):
                cand = [1]
                for idx in subset:
                    cand = _pmul(cand, lifted[idx], m)
                cand = _zsym(cand, m)
                if cand and abs(cand[-1]) == 1 and intpoly.divides(cand, current):
                    result.append(intpoly.primitive(cand))
                    current = intpoly.exact_div(current, cand)
                    remaining = [i for i in remaining if i not in subset]
                    found = True
                    break
            if 2 * size > len(remaining):
                break
        size += 1
    if intpoly.degree(current) > 0:
        result.append(intpoly.primitive(current))
    return sorted(result)


def factor_over_q(f):
    """Factor a monic-up-to-sign integer polynomial over Q.

    Returns a sorted list of (irreducible primitive factor, multiplicity);
    all factors have positive leading coefficient, so the product with
    multiplicities equals sign(lc(f)) * f exactly.
    """
    f = intpoly.trim(f)
    n = intpoly.degree(f)
    if n > MAX_DEGREE:
        raise DegreeTooLarge(f"degree {n} exceeds bound {MAX_DEGREE}")
    if n <= 0:
        return []
    out = []
    for part, mult in intpoly.squarefree_decomposition(f):
        for g in factor_squarefree(part):
            out.append((g, mult))
    return sorted(out)
