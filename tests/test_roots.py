import numpy as np
import pytest

from toralab import roots
from toralab.errors import ConvergenceFailure


def test_golden_quadratic():
    discs = roots.certified_roots([1, -3, 1])
    vals = sorted(d.center.real for d in discs)
    exact = [(3 - np.sqrt(5)) / 2, (3 + np.sqrt(5)) / 2]
    assert np.allclose(vals, exact, atol=1e-12)
    assert all(d.radius < 1e-12 for d in discs)


def test_other_quadratic():
    discs = roots.certified_roots([1, -4, 1])
    vals = sorted(d.center.real for d in discs)
    assert np.allclose(vals, [2 - np.sqrt(3), 2 + np.sqrt(3)], atol=1e-12)


def test_roots_of_unity_moduli():
    discs = roots.certified_roots([1, 1, 1, 1, 1])
    assert len(discs) == 4
    for d in discs:
        lo, hi = d.modulus_interval
        assert lo <= 1.0 <= hi or abs(d.center) - 1 < 1e-12


def test_discs_isolate():
    discs = roots.certified_roots([1, -3, 1])
    (a, b) = discs
    assert abs(a.center - b.center) > a.radius + b.radius


def test_escalation_on_close_roots():
    # 5x^4 - 10x^3 + 1 has close roots near 2; certified at dps = 30
    # without any escalation
    p = [1, 0, 0, -10, 5]
    discs = roots.certified_roots(p[::-1], dps=30)
    assert len(discs) == 4


def test_degenerate_multiple_root_fails():
    with pytest.raises(ConvergenceFailure):
        roots.certified_roots([1, -2, 1])   # (x-1)^2, not squarefree
