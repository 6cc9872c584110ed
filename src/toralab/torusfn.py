"""Z^d-periodic vector-valued functions on the torus.

Two representations: finite Fourier series (TrigPoly) with the
convention f(x) = sum_n c_n exp(2 pi i <n, x>), and uniform-grid samples
(GridFunction) at the points k/N.  The transform divides by N^d so the
re-indexing under integer linear substitutions is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exactalg
from .errors import UnreliableFit

TWO_PI = 2.0 * np.pi


def _mod1(x):
    """x % 1.0, bit for bit, at a fraction of the cost of numpy's fmod-based
    remainder: x - floor(x) is exact for x >= 0, and for x < 0 both round
    the same real number x - floor(x)."""
    return x - np.floor(x)


def _chunks(n, size):
    for i in range(0, n, size):
        yield slice(i, min(i + size, n))


class TrigPoly:
    """Finite Fourier series with integer frequency support.

    coeffs maps frequency tuples n in Z^d to complex vectors of length m.
    """

    def __init__(self, dim_domain, dim_range, coeffs=None):
        self.dim_domain = int(dim_domain)
        self.dim_range = int(dim_range)
        self.coeffs = {}
        self._clear_cache()
        if coeffs:
            for n, c in coeffs.items():
                self[n] = c

    def _clear_cache(self):
        # Everything derived from the coefficients; __setitem__ is the only
        # place they change, so it is the only place these are cleared.
        self._modes = None
        self._radius = None
        self._pairs = None
        self._dense = None

    def __setitem__(self, n, c):
        n = tuple(int(x) for x in n)
        c = np.asarray(c, dtype=complex).reshape(self.dim_range)
        self._clear_cache()
        if np.any(c != 0):
            self.coeffs[n] = c
        else:
            self.coeffs.pop(n, None)

    def __getitem__(self, n):
        return self.coeffs.get(tuple(int(x) for x in n),
                               np.zeros(self.dim_range, dtype=complex))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim_domain, dim_range):
        return cls(dim_domain, dim_range)

    @classmethod
    def sin_mode(cls, freq, amplitude, dim_range=None):
        """amplitude * sin(2 pi <freq, x>) as a real trig polynomial."""
        freq = tuple(int(x) for x in freq)
        amp = np.atleast_1d(np.asarray(amplitude, dtype=float))
        m = dim_range or amp.size
        out = cls(len(freq), m)
        vec = np.zeros(m, dtype=complex)
        vec[:amp.size] = amp
        out[freq] = vec / 2j
        out[tuple(-x for x in freq)] = -vec / 2j
        return out

    @classmethod
    def cos_mode(cls, freq, amplitude, dim_range=None):
        freq = tuple(int(x) for x in freq)
        amp = np.atleast_1d(np.asarray(amplitude, dtype=float))
        m = dim_range or amp.size
        out = cls(len(freq), m)
        vec = np.zeros(m, dtype=complex)
        vec[:amp.size] = amp
        out[freq] = vec / 2
        out[tuple(-x for x in freq)] = vec / 2
        return out

    @classmethod
    def constant_fn(cls, dim_domain, value):
        value = np.atleast_1d(np.asarray(value, dtype=complex))
        out = cls(dim_domain, value.size)
        out[(0,) * dim_domain] = value
        return out

    # -- structure ---------------------------------------------------------

    @property
    def support_radius(self):
        """Max sup-norm of frequencies in the support."""
        if self._radius is None:
            n, _ = self.modes()
            self._radius = int(np.max(np.abs(n))) if n.size else 0
        return self._radius

    def modes(self):
        """Sorted frequencies (K, d) int64 and coefficients (K, m) complex.

        The arrays are cached and read-only; copy them to modify.
        """
        if self._modes is None:
            keys = sorted(self.coeffs)
            n = np.array(keys, dtype=np.int64).reshape(len(keys),
                                                        self.dim_domain)
            c = np.array([self.coeffs[k] for k in keys],
                         dtype=complex).reshape(len(keys), self.dim_range)
            n.setflags(write=False)
            c.setflags(write=False)
            self._modes = (n, c)
        return self._modes

    def _pair_arrays(self):
        """Coefficients of f on the +-n pairs: (c_0, n, [A; B], [B w; -A w]).

        Each frequency pair +-n is listed once, by its representative n
        with first nonzero coordinate > 0 (lexicographically n > 0).  With
        theta = 2 pi <n, x> and w = 2 pi n,

            c_n e^{i theta} + c_{-n} e^{-i theta} = A cos theta + B sin theta,
            A = c_n + c_{-n},   B = i (c_n - c_{-n}),

        so f = c_0 + [cos Theta | sin Theta] [A; B] over the K pairs, and
        its Jacobian is [cos Theta | sin Theta] [B w; -A w] (A w stands for
        A_n (x) w_n, flattened to m * d columns).  When c_{-n} = conj(c_n)
        exactly and c_0 is real, A, B and c_0 have zero imaginary part and
        are stored as float64, so a real polynomial is evaluated in real
        arithmetic.
        """
        if self._pairs is None:
            d, m = self.dim_domain, self.dim_range
            zero = (0,) * d
            reps = sorted({n if n > zero else tuple(-x for x in n)
                           for n in self.coeffs if n != zero})
            k = len(reps)
            pos = np.array([self[n] for n in reps]).reshape(k, m)
            neg = np.array([self[tuple(-x for x in n)] for n in reps]
                           ).reshape(k, m)
            a = pos + neg
            b = 1j * (pos - neg)
            c0 = self[zero]
            if not (np.any(a.imag) or np.any(b.imag) or np.any(c0.imag)):
                a, b, c0 = a.real, b.real, c0.real
            freqs = np.array(reps, dtype=float).reshape(k, d)
            w = (TWO_PI * freqs)[:, None, :]
            jw = np.concatenate([b[:, :, None] * w, -a[:, :, None] * w])
            self._pairs = (c0, freqs, np.concatenate([a, b]),
                           jw.reshape(2 * k, m * d))
        return self._pairs

    def _pair_sum(self, flat, coef, chunk):
        """[cos Theta | sin Theta] coef at the points flat (Theta = 2 pi x n^T).

        cos and sin fill the rows of a (2K, P) array whose transpose enters
        the product, because numpy's vectorized loops need contiguous
        output.  chunk bounds the points times pairs held at once.
        """
        freqs = self._pair_arrays()[1]
        k = len(freqs)
        out = np.empty((flat.shape[0], coef.shape[1]), dtype=coef.dtype)
        for sl in _chunks(flat.shape[0], max(1, chunk // max(k, 1))):
            theta = freqs @ flat[sl].T
            theta *= TWO_PI
            trig = np.empty((2 * k, theta.shape[1]))
            np.cos(theta, out=trig[:k])
            np.sin(theta, out=trig[k:])
            np.matmul(trig.T, coef, out=out[sl])
        return out

    def _box_dense(self):
        """d = 2 polynomial that fills enough of its frequency box for the
        separable evaluation to be cheaper than the sparse one."""
        return self.dim_domain == 2 and \
            len(self.coeffs) > 12 * (2 * self.support_radius + 1)

    def copy(self):
        return TrigPoly(self.dim_domain, self.dim_range,
                        {n: c.copy() for n, c in self.coeffs.items()})

    def is_real(self, tol=1e-12):
        for n, c in self.coeffs.items():
            cc = self[tuple(-x for x in n)]
            if np.max(np.abs(cc - np.conj(c))) > tol:
                return False
        return True

    def symmetrize_real(self):
        """Project onto real-valued functions (enforce c_{-n} = conj(c_n))."""
        out = TrigPoly(self.dim_domain, self.dim_range)
        seen = set()
        for n in list(self.coeffs):
            if n in seen:
                continue
            neg = tuple(-x for x in n)
            seen.add(n)
            seen.add(neg)
            avg = 0.5 * (self[n] + np.conj(self[neg]))
            out[n] = avg
            if neg != n:
                out[neg] = np.conj(avg)
            else:
                out[n] = avg.real
        return out

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        out = self.copy()
        for n, c in other.coeffs.items():
            out[n] = out[n] + c
        return out

    def __sub__(self, other):
        out = self.copy()
        for n, c in other.coeffs.items():
            out[n] = out[n] - c
        return out

    def __mul__(self, scalar):
        return TrigPoly(self.dim_domain, self.dim_range,
                        {n: scalar * c for n, c in self.coeffs.items()})

    __rmul__ = __mul__

    def matrix_apply(self, mat):
        """Left-multiply values by a constant matrix: x -> mat @ f(x)."""
        mat = np.asarray(mat, dtype=complex)
        out = TrigPoly(self.dim_domain, mat.shape[0])
        for n, c in self.coeffs.items():
            out[n] = mat @ c
        return out

    # -- evaluation --------------------------------------------------------

    def _dense_2d(self):
        """Coefficient tensor on the frequency box, for separable eval."""
        if self._dense is None:
            f = self.support_radius
            size = 2 * f + 1
            tensor = np.zeros((size, size, self.dim_range), dtype=complex)
            for n, c in self.coeffs.items():
                tensor[n[0] + f, n[1] + f] = c
            self._dense = (f, tensor)
        return self._dense

    def _eval_separable(self, flat):
        f, tensor = self._dense_2d()
        freqs = np.arange(-f, f + 1, dtype=float)
        e1 = np.exp((2j * np.pi) * np.outer(flat[:, 0], freqs))
        e2 = np.exp((2j * np.pi) * np.outer(flat[:, 1], freqs))
        tmp = np.tensordot(e1, tensor, axes=(1, 0))      # (P, b, m)
        return np.einsum("pbm,pb->pm", tmp, e2)

    def eval(self, points, chunk=1 << 22):
        """Evaluate at points of shape (..., d); returns (..., m).

        The result is float64 when the polynomial is real (c_{-n} =
        conj(c_n) exactly, as symmetrize_real leaves it) and complex
        otherwise.  Sparse polynomials are summed over +-n pairs, one cos
        and one sin per pair and point: f = c_0 + cos(Theta) A +
        sin(Theta) B with Theta = 2 pi x n^T (see _pair_arrays), as one
        matrix product over the stacked [cos | sin] columns.
        Box-dense d = 2 polynomials use separable exponentials.
        """
        pts = np.asarray(points, dtype=float)
        flat = pts.reshape(-1, self.dim_domain)
        shape = pts.shape[:-1] + (self.dim_range,)
        c0, _, ab, _ = self._pair_arrays()
        if self._box_dense():
            out = np.empty((flat.shape[0], self.dim_range), dtype=complex)
            for sl in _chunks(flat.shape[0], 1 << 16):
                out[sl] = self._eval_separable(flat[sl])
            return (out if c0.dtype == complex else out.real).reshape(shape)
        out = self._pair_sum(flat, ab, chunk)
        if np.any(c0):
            out += c0
        return out.reshape(shape)

    def eval_real(self, points):
        return self.eval(points).real

    def _jacobian_separable(self, flat):
        f, tensor = self._dense_2d()
        freqs = np.arange(-f, f + 1, dtype=float)
        e1 = np.exp((2j * np.pi) * np.outer(flat[:, 0], freqs))
        e2 = np.exp((2j * np.pi) * np.outer(flat[:, 1], freqs))
        w = (2j * np.pi) * freqs
        out = np.empty((flat.shape[0], self.dim_range, 2), dtype=complex)
        tmp = np.tensordot(e1 * w, tensor, axes=(1, 0))
        out[..., 0] = np.einsum("pbm,pb->pm", tmp, e2)
        tmp = np.tensordot(e1, tensor, axes=(1, 0))
        out[..., 1] = np.einsum("pbm,pb->pm", tmp, e2 * w)
        return out

    def eval_jacobian(self, points):
        """Jacobian at points: shape (..., m, d).

        Float64 for a real polynomial and complex otherwise, as for eval.
        On the sparse path, differentiating A cos theta + B sin theta gives
        J = cos(Theta) (B x 2 pi n) - sin(Theta) (A x 2 pi n), one matrix
        product over the stacked [cos | sin] columns.
        """
        pts = np.asarray(points, dtype=float)
        flat = pts.reshape(-1, self.dim_domain)
        shape = pts.shape[:-1] + (self.dim_range, self.dim_domain)
        c0, _, _, jw = self._pair_arrays()
        if self._box_dense():
            out = np.empty((flat.shape[0], self.dim_range, 2), dtype=complex)
            for sl in _chunks(flat.shape[0], 1 << 16):
                out[sl] = self._jacobian_separable(flat[sl])
            return (out if c0.dtype == complex else out.real).reshape(shape)
        return self._pair_sum(flat, jw, 1 << 21).reshape(shape)

    # -- calculus ----------------------------------------------------------

    def derivative(self, direction):
        """Directional derivative along a constant vector."""
        v = np.asarray(direction, dtype=float)
        out = TrigPoly(self.dim_domain, self.dim_range)
        for n, c in self.coeffs.items():
            out[n] = (2j * np.pi * float(np.dot(n, v))) * c
        return out

    def partial(self, axis):
        e = np.zeros(self.dim_domain)
        e[axis] = 1.0
        return self.derivative(e)

    def compose_affine(self, mat, shift=None):
        """Exact coefficients of x -> f(M x + c) for integer M.

        The mode at frequency n moves to M^T n and picks up the phase
        exp(2 pi i <n, c>); no truncation is involved.
        """
        mt = np.asarray(mat, dtype=np.int64)
        c_shift = np.zeros(self.dim_domain) if shift is None else \
            np.asarray(shift, dtype=float)
        out = TrigPoly(self.dim_domain, self.dim_range)
        for n, c in self.coeffs.items():
            n_arr = np.array(n, dtype=np.int64)
            new_n = tuple(int(x) for x in (mt.T @ n_arr))
            phase = np.exp(2j * np.pi * float(np.dot(n_arr, c_shift)))
            out[new_n] = out[new_n] + phase * c
        return out

    # -- norms -------------------------------------------------------------

    def l2_norm(self):
        if not self.coeffs:
            return 0.0
        return float(np.sqrt(sum(np.sum(np.abs(c) ** 2)
                                 for c in self.coeffs.values())))

    def c0_upper(self):
        """Coefficient l1 bound for sup_x max_i |f_i(x)|."""
        if not self.coeffs:
            return 0.0
        total = np.zeros(self.dim_range)
        for c in self.coeffs.values():
            total += np.abs(c)
        return float(np.max(total))

    def restrict(self, radius):
        """Drop coefficients outside the sup-norm ball of the given radius."""
        out = TrigPoly(self.dim_domain, self.dim_range)
        dropped = 0.0
        for n, c in self.coeffs.items():
            if max(abs(x) for x in n) <= radius:
                out[n] = c
            else:
                dropped += float(np.max(np.abs(c)))
        return out, dropped

    def threshold(self, cutoff):
        out = TrigPoly(self.dim_domain, self.dim_range)
        for n, c in self.coeffs.items():
            if np.max(np.abs(c)) > cutoff:
                out[n] = c
        return out

    def to_grid(self, grid_n, allow_alias=False):
        if not allow_alias and 2 * self.support_radius >= grid_n:
            raise ValueError("grid too coarse for the support radius "
                             f"({self.support_radius} vs N={grid_n})")
        d, m = self.dim_domain, self.dim_range
        arr = np.zeros((grid_n,) * d + (m,), dtype=complex)
        for n, c in self.coeffs.items():
            idx = tuple(x % grid_n for x in n)
            arr[idx] += c
        vals = np.fft.ifftn(arr, axes=tuple(range(d))) * (grid_n ** d)
        return GridFunction(vals)


def uniform_grid(d, n):
    """The N^d points k/N of the uniform grid, as a flat (N^d, d) array."""
    axes = [np.arange(n) / n] * d
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)


def grid_sup(tp, grid_n=64):
    """max over the grid k/N of |f(k/N)| (of the real part if f is real).

    The grid is taken on the rank r of the lattice spanned by the
    frequencies, not on all d axes.  exactalg.column_reduce gives a
    unimodular U with every frequency of g(x) = f(Ux) in Z^r x 0.  Since
    k -> Uk permutes (Z/N)^d, the values f(k/N) and g(j/N) are the same
    multiset, and g depends on j_1..j_r only; aliased sampling is exact at
    grid points, so the sup is that of an r-dimensional N^r grid.  When
    r = d the full d-dimensional grid is used unchanged.
    """
    d, m = tp.dim_domain, tp.dim_range
    u, r = exactalg.column_reduce(sorted(tp.coeffs), d)
    if r == d:
        vals = tp.to_grid(grid_n, allow_alias=2 * tp.support_radius >= grid_n)
        vals = vals.values
    elif r == 0:
        vals = tp[(0,) * d][None, :]
    else:
        g = tp.compose_affine(u)
        low = TrigPoly(r, m, {n[:r]: c for n, c in g.coeffs.items()})
        vals = low.to_grid(grid_n, allow_alias=True).values
    return np.max(np.abs(vals.real)) if tp.is_real(1e-9) else \
        np.max(np.abs(vals))


@dataclass
class C0Bounds:
    lower: float
    upper: float


def c0_norm(fn, grid_n=128):
    """Certified bracket for the sup norm: [grid max, coefficient l1 sum]."""
    tp = fn if isinstance(fn, TrigPoly) else fn.to_trig()
    safe_n = max(grid_n, 2 * tp.support_radius + 2)
    return C0Bounds(lower=float(grid_sup(tp, safe_n)), upper=tp.c0_upper())


class GridFunction:
    """Samples of a periodic function at the uniform grid k/N."""

    def __init__(self, values):
        values = np.asarray(values)
        if values.ndim < 2:
            raise ValueError("expected shape (N, ..., N, m)")
        self.values = values
        self.dim_domain = values.ndim - 1
        self.dim_range = values.shape[-1]
        self.grid_n = values.shape[0]
        if any(s != self.grid_n for s in values.shape[:-1]):
            raise ValueError("grid must be uniform in every axis")
        self._trig_cache = None

    def to_trig(self, threshold=0.0):
        """Fourier coefficients (divided by N^d); optionally thresholded."""
        d, n = self.dim_domain, self.grid_n
        coef = np.fft.fftn(self.values, axes=tuple(range(d))) / (n ** d)
        freqs = (np.fft.fftfreq(n) * n).astype(np.int64)
        out = TrigPoly(d, self.dim_range)
        mags = np.max(np.abs(coef), axis=-1)
        idx = np.argwhere(mags > threshold)
        for ind in idx:
            key = tuple(int(freqs[i]) for i in ind)
            out[key] = coef[tuple(ind)]
        return out

    def eval(self, points):
        """Trigonometric interpolation of the samples at `points`."""
        if self._trig_cache is None:
            self._trig_cache = self.to_trig(threshold=0.0)
        return self._trig_cache.eval(points).real if \
            np.isrealobj(self.values) else self._trig_cache.eval(points)

    def jacobian_grid(self):
        """Spectral Jacobian at the grid points: shape grid + (m, d)."""
        d, n, m = self.dim_domain, self.grid_n, self.dim_range
        coef = np.fft.fftn(self.values, axes=tuple(range(d)))
        freqs = (np.fft.fftfreq(n) * n)
        out = np.empty(self.values.shape + (d,), dtype=complex)
        for axis in range(d):
            shape = [1] * (d + 1)
            shape[axis] = n
            mult = (2j * np.pi) * freqs.reshape(shape)
            out[..., axis] = np.fft.ifftn(coef * mult, axes=tuple(range(d)))
        return out.real if np.isrealobj(self.values) else out

    def l2_norm(self):
        return float(np.sqrt(np.mean(np.sum(np.abs(self.values) ** 2,
                                            axis=-1))))


# ---------------------------------------------------------------------------
# Regularity estimators
# ---------------------------------------------------------------------------

@dataclass
class HolderEstimate:
    """Least-squares slope of log sup-increment against log scale."""
    exponent: float
    constant: float
    residual: float
    scales: np.ndarray
    increments: np.ndarray
    n_pairs: int
    reliable: bool
    threshold: float


def _as_evaluator(fn):
    if isinstance(fn, TrigPoly):
        return fn.dim_domain, fn.eval_real
    if isinstance(fn, GridFunction):
        return fn.dim_domain, fn.eval
    raise TypeError(f"cannot evaluate {type(fn)!r}")


def estimate_holder(fn, dim=None, j_min=4, j_max=16, pairs=10000, seed=0,
                    residual_threshold=0.2, strict=False):
    """Estimate a Holder exponent from sup-increments at dyadic scales.

    The increment at scale 2^-j is the max of |f(x + delta u) - f(x)| over
    `pairs` random base points and unit directions u.  The exponent is the
    least-squares slope in log-log; an estimator, not a certificate.
    """
    if callable(fn) and not isinstance(fn, (TrigPoly, GridFunction)):
        if dim is None:
            raise TypeError("dim required for a bare callable")
        evaluator = fn
    else:
        dim, evaluator = _as_evaluator(fn)
    rng = np.random.default_rng(seed)
    base = rng.random((pairs, dim))
    dirs = rng.normal(size=(pairs, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    scales = np.array([2.0 ** (-j) for j in range(j_min, j_max + 1)])
    sups = []
    f0 = np.asarray(evaluator(base))
    for delta in scales:
        f1 = np.asarray(evaluator(base + delta * dirs))
        inc = np.max(np.abs(f1 - f0), axis=-1) if f1.ndim > 1 else \
            np.abs(f1 - f0)
        sups.append(float(np.max(inc)))
    sups = np.array(sups)
    mask = sups > 0
    if mask.sum() < 3:
        if np.all(sups < 1e-13 * max(1.0, np.max(np.abs(f0)))):
            # constant function: any exponent fits; report saturation
            return HolderEstimate(exponent=1.0, constant=0.0, residual=0.0,
                                  scales=scales, increments=sups,
                                  n_pairs=pairs, reliable=True,
                                  threshold=residual_threshold)
        raise UnreliableFit("increments vanish at almost every scale")
    x = np.log(scales[mask])
    y = np.log(sups[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.max(np.abs(y - (slope * x + intercept))))
    reliable = resid <= residual_threshold
    if strict and not reliable:
        raise UnreliableFit(f"log-log fit residual {resid:.3f} exceeds "
                            f"{residual_threshold}")
    return HolderEstimate(exponent=float(min(max(slope, 0.0), 1.5)),
                          constant=float(np.exp(intercept)),
                          residual=resid, scales=scales, increments=sups,
                          n_pairs=pairs, reliable=reliable,
                          threshold=residual_threshold)


def finite_difference_ratio(fn, dim, scale, pairs=10000, seed=0):
    """sup over sampled pairs of |f(x + delta u) - f(x)| / delta."""
    if isinstance(fn, (TrigPoly, GridFunction)):
        _, evaluator = _as_evaluator(fn)
    else:
        evaluator = fn
    rng = np.random.default_rng(seed)
    base = rng.random((pairs, dim))
    dirs = rng.normal(size=(pairs, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    f0 = np.asarray(evaluator(base))
    f1 = np.asarray(evaluator(base + scale * dirs))
    inc = np.abs(f1 - f0)
    if inc.ndim > 1:
        inc = np.max(inc, axis=-1)
    return float(np.max(inc) / scale)


def sobolev_norm(fn, q, grid_n=64):
    """Grid quadrature of (|f|^q + |Df|^q)^(1/q); diagnostic only.

    A grid cannot certify weak differentiability, so this is reported as
    an indicator, never as a membership proof.
    """
    if isinstance(fn, TrigPoly):
        gf = fn.to_grid(max(grid_n, 2 * fn.support_radius + 2))
    else:
        gf = fn
    vals = np.abs(gf.values)
    fnorm = np.sqrt(np.sum(vals ** 2, axis=-1))
    jac = gf.jacobian_grid()
    jnorm = np.sqrt(np.sum(np.abs(jac) ** 2, axis=(-2, -1)))
    integrand = fnorm ** q + jnorm ** q
    return float(np.mean(integrand) ** (1.0 / q))


def trig_to_record(tp):
    """JSON-compatible record: list of (frequency, complex vector) pairs."""
    modes = []
    for n in sorted(tp.coeffs):
        c = tp.coeffs[n]
        modes.append({"freq": [int(x) for x in n],
                      "re": [float(v) for v in c.real],
                      "im": [float(v) for v in c.imag]})
    return {"dim_domain": tp.dim_domain, "dim_range": tp.dim_range,
            "convention": "exp(2 pi i <n, x>)", "modes": modes}


def trig_from_record(rec):
    tp = TrigPoly(rec["dim_domain"], rec["dim_range"])
    for mode in rec["modes"]:
        tp[tuple(mode["freq"])] = np.array(mode["re"]) + \
            1j * np.array(mode["im"])
    return tp


def save_grid(gf, path, extra_header=None):
    """Text format: one JSON header line, then one sample row per line."""
    import json
    header = {"dim_domain": gf.dim_domain, "dim_range": gf.dim_range,
              "grid_n": gf.grid_n, "interpolation": "trig",
              "convention": "samples at k/N, row-major",
              "complex": bool(np.iscomplexobj(gf.values))}
    if extra_header:
        header.update(extra_header)
    flat = gf.values.reshape(-1, gf.dim_range)
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for row in flat:
            if header["complex"]:
                fh.write(" ".join(f"{v.real:.17g} {v.imag:.17g}"
                                  for v in row) + "\n")
            else:
                fh.write(" ".join(f"{float(v):.17g}" for v in row) + "\n")


def load_grid(path):
    import json
    with open(path) as fh:
        header = json.loads(fh.readline())
        rows = [line.split() for line in fh if line.strip()]
    d, m, n = header["dim_domain"], header["dim_range"], header["grid_n"]
    data = np.array(rows, dtype=float)
    if header["complex"]:
        vals = data[:, 0::2] + 1j * data[:, 1::2]
    else:
        vals = data
    return GridFunction(vals.reshape((n,) * d + (m,)))


def weierstrass_type(alpha, base=3, terms=30):
    """Self-similar profile sum_k base^(-alpha k) sin(2 pi base^k x).

    Classical lacunary series with Holder exponent alpha by construction
    (matched amplitude/frequency base); the standard test family for the
    exponent estimator.
    """
    def fn(points):
        pts = np.asarray(points, dtype=float)
        x = pts[..., 0] if pts.ndim > 1 else pts
        out = np.zeros_like(x)
        for k in range(terms):
            out += base ** (-alpha * k) * np.sin(TWO_PI * (base ** k) * x)
        return out[..., None]
    return fn
