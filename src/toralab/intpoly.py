"""Exact arithmetic for integer and rational polynomials.

Polynomials are coefficient lists in increasing degree order,
``[c0, c1, ..., cn]`` with Python ints (or Fractions where noted), so
all computations here are exact.  Everything at desk scale: degrees up
to a few dozen.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, lcm


def trim(p):
    """Drop trailing zero coefficients (canonical form)."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p):
    p = trim(p)
    return len(p) - 1 if p else -1


def add(p, q):
    n = max(len(p), len(q))
    return trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                 for i in range(n)])


def sub(p, q):
    n = max(len(p), len(q))
    return trim([(p[i] if i < len(p) else 0) - (q[i] if i < len(q) else 0)
                 for i in range(n)])


def mul(p, q):
    p, q = trim(p), trim(q)
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def scale(p, c):
    return trim([c * a for a in p])


def derivative(p):
    return trim([i * p[i] for i in range(1, len(p))])


def eval_at(p, x):
    """Horner evaluation; works for int, Fraction, float, complex, mpmath."""
    acc = 0 * x if p else 0
    for c in reversed(trim(p)):
        acc = acc * x + c
    return acc


def content(p):
    g = 0
    for c in p:
        g = _int_gcd(g, abs(c))
    return g if g else 1


def primitive(p):
    p = trim(p)
    if not p:
        return p
    g = content(p)
    sign = 1 if p[-1] > 0 else -1
    return [sign * c // g for c in p]


# ---------------------------------------------------------------------------
# Rational-coefficient helpers (Fractions)
# ---------------------------------------------------------------------------

def to_fractions(p):
    return [Fraction(c) for c in trim(p)]


def f_divmod(a, b):
    """Euclidean division over Q."""
    a = [Fraction(c) for c in trim(a)]
    b = [Fraction(c) for c in trim(b)]
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    r = a[:]
    db, lb = len(b) - 1, b[-1]
    while trim(r) and len(trim(r)) - 1 >= db:
        r = trim(r)
        k = len(r) - 1 - db
        c = r[-1] / lb
        q[k] = c
        for i in range(len(b)):
            r[i + k] -= c * b[i]
        r = r[:-1]
    return trim(q), trim(r)


def f_monic(p):
    p = trim([Fraction(c) for c in p])
    if not p:
        return p
    lc = p[-1]
    return [c / lc for c in p]


def gcd_q(p, q):
    """Monic gcd over Q, returned with integer primitive coefficients."""
    a = [Fraction(c) for c in trim(p)]
    b = [Fraction(c) for c in trim(q)]
    while trim(b):
        _, r = f_divmod(a, b)
        a, b = b, r
    a = f_monic(a)
    if not a:
        return []
    # clear denominators -> primitive integer polynomial
    den = lcm(*(c.denominator for c in a))
    return primitive([int(c * den) for c in a])


def divides(p, q):
    """True if p divides q exactly over Q."""
    if degree(p) < 0:
        return degree(q) < 0
    _, r = f_divmod(to_fractions(q), to_fractions(p))
    return not trim(r)


def exact_div(q, p):
    """q // p assuming exact divisibility; returns integer coefficients."""
    quo, r = f_divmod(to_fractions(q), to_fractions(p))
    if trim(r):
        raise ValueError("division is not exact")
    out = []
    for c in quo:
        if c.denominator != 1:
            raise ValueError("quotient is not integral")
        out.append(int(c))
    return trim(out)


def squarefree_decomposition(p):
    """Yun's algorithm: return [(factor_i, multiplicity_i)] with
    p = lc * prod factor_i^multiplicity_i, factors primitive and squarefree."""
    p = primitive(p)
    if degree(p) <= 0:
        return []
    out = []
    g = gcd_q(p, derivative(p))
    if degree(g) == 0:
        return [(p, 1)]
    c = exact_div(p, g)
    d = sub(exact_div(derivative(p), g), derivative(c))
    i = 1
    while degree(c) > 0:
        a = gcd_q(c, d)
        if degree(a) > 0:
            out.append((primitive(a), i))
        c_next = exact_div(c, a) if degree(a) > 0 else c
        d = sub(exact_div(d, a) if degree(a) > 0 else d, derivative(c_next))
        c = c_next
        i += 1
    return out


# ---------------------------------------------------------------------------
# Real-root counting (Sturm) and structured root tests
# ---------------------------------------------------------------------------

def sturm_chain(p):
    chain = [to_fractions(p), to_fractions(derivative(p))]
    while trim(chain[-1]):
        _, r = f_divmod(chain[-2], chain[-1])
        r = trim(r)
        if not r:
            break
        chain.append([-c for c in r])
    return [c for c in chain if trim(c)]


def _sign_changes_at_inf(chain, positive):
    signs = []
    for c in chain:
        lc = c[-1]
        s = 1 if lc > 0 else -1
        if not positive and (len(c) - 1) % 2 == 1:
            s = -s
        signs.append(s)
    changes = 0
    for a, b in zip(signs, signs[1:]):
        if a * b < 0:
            changes += 1
    return changes


def count_real_roots(p):
    """Number of distinct real roots of p (exact, via Sturm chains)."""
    p = trim(p)
    if degree(p) <= 0:
        return 0
    sf = [1]
    for fac, _ in squarefree_decomposition(p):
        sf = mul(sf, fac)
    chain = sturm_chain(sf)
    return _sign_changes_at_inf(chain, False) - _sign_changes_at_inf(chain, True)


def reflect(p):
    """p(-x)."""
    return trim([(-1) ** i * c for i, c in enumerate(p)])


def imaginary_axis_parts(p):
    """Real and imaginary integer parts of p(i*y) as polynomials in y."""
    re, im = [], []
    for k, c in enumerate(trim(p)):
        r = k % 4
        if r == 0:
            re.append((k, c))
        elif r == 1:
            im.append((k, c))
        elif r == 2:
            re.append((k, -c))
        else:
            im.append((k, -c))
    def build(terms):
        if not terms:
            return []
        out = [0] * (max(k for k, _ in terms) + 1)
        for k, c in terms:
            out[k] = c
        return trim(out)
    return build(re), build(im)


def has_real_plus_minus_pair(p):
    """True if p has a pair of real roots lambda, -lambda (lambda != 0)."""
    h = gcd_q(p, reflect(p))
    if degree(h) <= 0:
        return False
    # roots of h are closed under z -> -z; 0 is excluded when p(0) != 0
    if eval_at(p, 0) == 0:
        h = exact_div(h, [0, 1]) if divides([0, 1], h) else h
    return count_real_roots(h) > 0


def has_imaginary_pair(p):
    """True if p has a purely imaginary pair i*lambda, -i*lambda (lambda real, != 0)."""
    re, im = imaginary_axis_parts(p)
    if not re:
        g = im
    elif not im:
        g = re
    else:
        g = gcd_q(re, im)
    if degree(g) <= 0:
        return False
    if eval_at(p, 0) != 0 and divides([0, 1], g):
        g = exact_div(g, [0, 1])
        while divides([0, 1], g):
            g = exact_div(g, [0, 1])
    return count_real_roots(g) > 0


def _euler_phi(k):
    n, out, d = k, 1, 2
    while d * d <= n:
        if n % d == 0:
            pw = 1
            while n % d == 0:
                n //= d
                pw *= d
            out *= pw - pw // d
        d += 1
    if n > 1:
        out *= n - 1
    return out


def is_cyclotomic(p):
    """True if the (irreducible) integer polynomial p is cyclotomic.

    Checked exactly: p must divide x^k - 1 for some k with phi(k) = deg p.
    """
    n = degree(p)
    if n <= 0:
        return False
    if abs(p[-1]) != 1 or abs(p[0]) != 1:
        return False
    # phi(k) = n forces k <= 2 n^2 + 2 comfortably at desk scale
    for k in range(1, 2 * n * n + 3):
        if _euler_phi(k) != n:
            continue
        xk = [0] * k + [1]
        xk[0] = -1
        if divides(p, xk):
            return True
    return False
