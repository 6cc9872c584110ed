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
# Points times box columns per block of the box-dense evaluation: 4 MB of
# complex products.  Blocks of 16-32 MB left the orbit benchmark's peak
# RSS 13-22% higher, and larger blocks are no faster.
BOX_CHUNK = 1 << 18
# Points times pairs of the largest [cos | sin] table a TrigPoly keeps for
# its next evaluation (2 MB), and points times box rows (2F + 1) of the
# largest pair of box-dense power tables it keeps (at most 4 MB).  An orbit
# walk's tables, 10^4 points times a few pairs, fit, and so do the power
# tables of a KAM grid, 36^2 points times 33 rows.
TABLE_MEMO = 1 << 17


def _mod1(x):
    """x % 1.0, bit for bit, at a fraction of the cost of numpy's fmod-based
    remainder: x - floor(x) is exact for x >= 0, and for x < 0 both round
    the same real number x - floor(x)."""
    return x - np.floor(x)


def _cos_sin(u, cos, sin):
    """cos 2 pi u into cos and sin 2 pi u into sin, for angles u in turns.

    With v = u - ceil(u - 1/2), which is exact and lies in (-1/2, 1/2],
    and t = tan(pi v): cos 2 pi u = 2/(1 + t^2) - 1 and sin 2 pi u =
    2t/(1 + t^2).  numpy runs float64 tan as a vectorized loop and its cos
    and sin as scalar libm calls, which cost several times as much per
    element even with the nine cheap ufuncs around the tan.
    The reduction makes the result exactly 1-periodic: u and u + m give
    the same bits whenever both are exact.  The absolute error is below
    5e-16 (4.7e-16 at worst against 113-bit mpmath, at u = 2^-54 - 1/2,
    where u - 1/2 rounds to -1), and |cos|, |sin| <= 1.  u is read only;
    cos and sin are the outputs and may be strided views.
    """
    np.subtract(u, 0.5, out=cos)
    np.ceil(cos, out=cos)
    np.subtract(u, cos, out=sin)
    sin *= np.pi
    np.tan(sin, out=sin)
    np.multiply(sin, sin, out=cos)
    cos += 1.0
    np.divide(2.0, cos, out=cos)
    sin *= cos
    cos -= 1.0


class _RowKeys:
    """The distinct rows of an (N, d) int64 array, sorted lexicographically.

    inverse[i] is the index among the keys of row i, and first[j] the row
    where key j first occurs.  One lexsort over the columns keys them all;
    np.unique(axis=0) sorts a structured view with a generic comparison,
    several times slower.
    """

    def __init__(self, rows):
        order = np.lexsort(rows.T[::-1])        # stable: ties keep row order
        srt = rows[order]
        new = np.ones(len(rows), dtype=bool)
        new[1:] = np.any(srt[1:] != srt[:-1], axis=1)
        self.keys = srt[new]
        self.first = order[new]
        self.inverse = np.empty(len(rows), dtype=np.intp)
        self.inverse[order] = np.cumsum(new) - 1

    def find(self, rows):
        """The index among the keys of each row, or -1 where it is none.

        A binary search on a structured view, whose int64 fields compare
        in the lexsort's order.
        """
        if not len(self.keys):
            return np.full(len(rows), -1, dtype=np.intp)
        fields = [("", np.int64)] * self.keys.shape[1]
        pos = np.searchsorted(
            np.ascontiguousarray(self.keys).view(fields).ravel(),
            np.ascontiguousarray(rows, dtype=np.int64).view(fields).ravel())
        pos = np.minimum(pos, len(self.keys) - 1)
        return np.where(np.all(self.keys[pos] == rows, axis=1), pos, -1)


class _DictRowKeys:
    """_RowKeys for rows of Python ints (object dtype), which no int64 sort
    can order: a dict keys them in the order they first occur."""

    def __init__(self, rows):
        self._index = {}
        self.inverse = np.array([self._index.setdefault(n, len(self._index))
                                 for n in map(tuple, rows.tolist())],
                                dtype=np.intp)
        self.keys = np.array(list(self._index), dtype=object).reshape(
            -1, rows.shape[1])
        self.first = np.unique(self.inverse, return_index=True)[1]

    def find(self, rows):
        return np.array([self._index.get(n, -1)
                         for n in map(tuple, rows.tolist())], dtype=np.intp)


def _row_keys(rows):
    """The distinct rows of an (N, d) array of int64 or Python ints."""
    return _DictRowKeys(rows) if rows.dtype == object else _RowKeys(rows)


def _chunks(n, size):
    for i in range(0, n, size):
        yield slice(i, min(i + size, n))


class TrigPoly:
    """Finite Fourier series with integer frequency support.

    coeffs maps frequency tuples n in Z^d to complex vectors of length m,
    with no all-zero vector stored.  from_arrays is the bulk constructor,
    for a (K, d) block of frequencies and a (K, m) block of coefficients;
    __setitem__ sets one coefficient, for small polynomials built by hand.
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
        self._table = None
        self._powers = None

    def __setitem__(self, n, c):
        n = tuple(int(x) for x in n)
        if len(n) != self.dim_domain:
            raise ValueError(f"frequency {n} does not have length "
                             f"{self.dim_domain}")
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
    def from_arrays(cls, dim_domain, dim_range, freqs, coefs):
        """The polynomial with coefficient row k of coefs at frequency row k
        of freqs, stored in the order given.

        freqs is a (K, d) integer array (object dtype holds Python ints
        beyond int64) of distinct rows, coefs a (K, m) array.  All-zero
        rows are dropped, as __setitem__ drops them.
        """
        out = cls(dim_domain, dim_range)
        freqs = np.asarray(freqs)
        coefs = np.asarray(coefs, dtype=complex)
        k = len(freqs)
        if freqs.dtype.kind not in "iuO" or \
                freqs.shape != (k, out.dim_domain) or \
                coefs.shape != (k, out.dim_range):
            raise ValueError(
                f"expected integer frequencies of shape (K, {out.dim_domain})"
                f" and coefficients of shape (K, {out.dim_range}), got "
                f"{freqs.dtype} {freqs.shape} and {coefs.shape}")
        keep = np.any(coefs != 0, axis=1)
        out.coeffs.update(zip(map(tuple, freqs[keep].tolist()), coefs[keep]))
        if len(out.coeffs) != np.count_nonzero(keep):
            raise ValueError("repeated frequency row")
        return out

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
        neg = tuple(-x for x in freq)
        out[neg] = out[neg] - vec / 2j      # at n = 0 the halves cancel
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
        neg = tuple(-x for x in freq)
        out[neg] = out[neg] + vec / 2       # at n = 0 the halves add up
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
        arithmetic: [A; B] is float64 exactly then.  A zero c_0 is stored
        as None, so eval skips it without testing it on every call.
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
            self._pairs = (c0 if np.any(c0) else None, freqs,
                           np.concatenate([a, b]), jw.reshape(2 * k, m * d))
        return self._pairs

    def _pair_table(self, pts):
        """[cos Theta | sin Theta] at the points pts (Theta = 2 pi x n^T).

        _cos_sin fills the rows of a (2K, P) array from the angles in turns
        U = n x^T, and the transpose of the array enters the products,
        because numpy's vectorized loops need contiguous output.  A table
        of at most TABLE_MEMO points times pairs is kept with the bytes and
        strides of its points and handed out again for the same points, so
        it is the table a rebuild would give.  A Newton step takes f and Df at one point set,
        and an orbit walk reads R at the point the Newton inverse returns:
        each builds one table, not two.
        """
        freqs = self._pair_arrays()[1]
        k = len(freqs)
        key = (pts.tobytes(), pts.strides) if k * len(pts) <= TABLE_MEMO \
            else None
        if key is not None and self._table is not None and \
                self._table[0] == key:
            return self._table[1]
        trig = np.empty((2 * k, len(pts)))
        _cos_sin(freqs @ pts.T, trig[:k], trig[k:])
        if key is not None:
            trig.setflags(write=False)
            self._table = (key, trig)
        return trig

    def _pair_sum(self, flat, coef, chunk):
        """[cos Theta | sin Theta] coef at the points flat, in blocks of at
        most chunk points times pairs."""
        k = len(self._pair_arrays()[1])
        out = np.empty((flat.shape[0], coef.shape[1]), dtype=coef.dtype)
        for sl in _chunks(flat.shape[0], max(1, chunk // max(k, 1))):
            np.matmul(self._pair_table(flat[sl]).T, coef, out=out[sl])
        return out

    def _box_dense(self):
        """d = 2 polynomial that fills enough of its frequency box for the
        separable evaluation to be cheaper than the sparse one."""
        return self.dim_domain == 2 and \
            len(self.coeffs) > 12 * (2 * self.support_radius + 1)

    def _rows(self):
        """Frequencies (K, d) and coefficients (K, m) in dict order.

        The frequencies are int64, or Python ints (object dtype) when one
        does not fit int64.
        """
        keys = list(self.coeffs)
        try:
            freqs = np.array(keys, dtype=np.int64)
        except OverflowError:
            freqs = np.array(keys, dtype=object)
        return (freqs.reshape(len(keys), self.dim_domain),
                np.array(list(self.coeffs.values()), dtype=complex).reshape(
                    len(keys), self.dim_range))

    @staticmethod
    def _negated(freqs, coefs):
        """c_{-n} for each row n of _rows: the row of -n, or 0 where -n
        carries no coefficient; and the index of that row, or -1."""
        keys = _row_keys(freqs)
        pos = keys.find(-freqs)
        partner = np.where(pos >= 0, keys.first[pos], -1)
        return np.where((partner >= 0)[:, None], coefs[partner], 0), partner

    def copy(self):
        return TrigPoly.from_arrays(self.dim_domain, self.dim_range,
                                    *self._rows())

    def is_real(self, tol=1e-12):
        freqs, coefs = self._rows()
        neg = self._negated(freqs, coefs)[0]
        # the max of each row first, so that a NaN row passes as it always has
        return not np.any(np.abs(neg - np.conj(coefs)).max(axis=1) > tol)

    def symmetrize_real(self):
        """Project onto real-valued functions (enforce c_{-n} = conj(c_n)).

        Each +-n pair is averaged at the first of its rows in dict order,
        n, and written as n then -n; c_0 is replaced by its real part.
        """
        freqs, coefs = self._rows()
        neg, partner = self._negated(freqs, coefs)
        rows = np.arange(len(freqs))
        first = (partner < 0) | (partner >= rows)
        avg = 0.5 * (coefs[first] + np.conj(neg[first]))
        zero = partner[first] == rows[first]
        avg[zero] = avg[zero].real
        pair = np.ones((len(avg), 2), dtype=bool)
        pair[:, 1] = ~zero
        return TrigPoly.from_arrays(
            self.dim_domain, self.dim_range,
            np.stack([freqs[first], -freqs[first]], axis=1)[pair],
            np.stack([avg, np.conj(avg)], axis=1)[pair])

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
        """The coefficient box as matrices for the separable evaluation.

        Returns (value, jac): row a of each matrix holds the box row
        n_1 = a - F (n_1 = a for a real polynomial, see below), flattened
        over n_2 = -F..F and the m components, so that one product with
        the axis-1 table contracts n_1.  value has (2F+1) m columns, the
        coefficients c_n; jac has (2F+1) m 2 columns, c_n 2 pi i n_1 and
        c_n 2 pi i n_2.  For a real polynomial (as _pair_arrays decides)
        c_{-n} = conj(c_n), so the terms with n_1 < 0 are the conjugates
        of those with n_1 > 0: only the rows n_1 >= 0 are kept, row 0
        halved, and the sum is taken as 2 Re.
        """
        if self._dense is None:
            f, m = self.support_radius, self.dim_range
            size = 2 * f + 1
            n, c = self.modes()
            box = np.zeros((size, size, m), dtype=complex)
            box[n[:, 0] + f, n[:, 1] + f] = c
            w = (2j * np.pi) * np.arange(-f, f + 1)
            jac = np.stack([box * w[:, None, None],
                            box * w[None, :, None]], axis=-1)
            if self._pair_arrays()[2].dtype != complex:
                box, jac = box[f:], jac[f:]
                box[0] *= 0.5
                jac[0] *= 0.5
            self._dense = (box.reshape(len(box), -1),
                           jac.reshape(len(jac), -1))
        return self._dense

    @staticmethod
    def _power_table(x, f, k_min):
        """exp(2 pi i k x) for k = k_min..f (k_min is -f or 0), as a (P, .)
        view of a row-per-k array.

        Row 1 is exp(2 pi i x): _cos_sin, the kernel of the sparse
        tables, writes cos 2 pi x and sin 2 pi x into its real and
        imaginary parts.  Row k > 1 is row k - 1 times row 1, a cumulative
        product taken one contiguous row at a time, and the rows k < 0 are
        the conjugates.
        """
        out = np.empty((f - k_min + 1, len(x)), dtype=complex)
        zero = -k_min
        out[zero] = 1.0
        base = out[zero + 1]
        _cos_sin(x, base.real, base.imag)
        for k in range(zero + 2, len(out)):
            np.multiply(out[k - 1], base, out=out[k])
        if zero:
            np.conj(out[:zero:-1], out=out[:zero])
        return out.T

    def _power_tables(self, pts, real):
        """The power tables (e_1, e_2) of _box_sum at the points pts.

        Like the [cos | sin] table of _pair_table, the tables of at most
        TABLE_MEMO points times box rows are kept with the bytes and strides
        of their points and handed out again for the same points: a Newton
        step's f and Df, and the walk's R after the Newton inverse, share
        one pair of tables.
        """
        f = self.support_radius
        key = (pts.tobytes(), pts.strides) \
            if len(pts) * (2 * f + 1) <= TABLE_MEMO else None
        if key is not None and self._powers is not None and \
                self._powers[0] == key:
            return self._powers[1]
        tables = (self._power_table(pts[:, 0], f, 0 if real else -f),
                  self._power_table(pts[:, 1], f, -f))
        if key is not None:
            for e in tables:
                e.setflags(write=False)
            self._powers = (key, tables)
        return tables

    def _box_sum(self, flat, box):
        """sum over the box of e_1[n_1] e_2[n_2] box[n_1, n_2, :] per point,
        with e_i the power tables of axis i (see _dense_2d for the rows),
        in blocks of BOX_CHUNK points times box columns.
        """
        f = self.support_radius
        real = self._pair_arrays()[2].dtype != complex
        size, cols = 2 * f + 1, box.shape[1]
        out = np.empty((flat.shape[0], cols // size),
                       dtype=float if real else complex)
        for sl in _chunks(flat.shape[0], max(1, BOX_CHUNK // cols)):
            e1, e2 = self._power_tables(flat[sl], real)
            part = (e1 @ box).reshape(len(e1), size, -1)
            part = np.matmul(e2[:, None, :], part)[:, 0]
            out[sl] = 2.0 * part.real if real else part
        return out

    def eval(self, points, chunk=1 << 22):
        """Evaluate at points of shape (..., d); returns (..., m).

        The result is float64 when the polynomial is real (c_{-n} =
        conj(c_n) exactly, as symmetrize_real leaves it) and complex
        otherwise.  Sparse polynomials are summed over +-n pairs, one cos
        and one sin per pair and point: f = c_0 + cos(Theta) A +
        sin(Theta) B with Theta = 2 pi x n^T (see _pair_arrays), as one
        matrix product over the stacked [cos | sin] columns.  Every table
        entry, here and on the box-dense path, comes from _cos_sin.

        Box-dense d = 2 polynomials (support radius F) are separable:
        f(x) = sum_{n_1} e_1[n_1] sum_{n_2} c_n e_2[n_2] with the power
        tables e_i[k] = exp(2 pi i k x_i), k = -F..F, built from one cos
        and sin per point and axis (cumulative products for k > 0,
        conjugates for k < 0).  One matrix product of e_1 with the
        coefficient box reshaped to 2F + 1 rows contracts n_1, and a
        per-point dot with e_2 contracts n_2.  A real polynomial keeps the
        rows n_1 >= 0 only and is summed as 2 Re.  chunk bounds the points
        times pairs held at once on the sparse path.
        """
        pts = np.asarray(points, dtype=float)
        flat = pts.reshape(-1, self.dim_domain)
        shape = pts.shape[:-1] + (self.dim_range,)
        c0, _, ab, _ = self._pair_arrays()
        if self._box_dense():
            return self._box_sum(flat, self._dense_2d()[0]).reshape(shape)
        out = self._pair_sum(flat, ab, chunk)
        if c0 is not None:
            out += c0
        return out.reshape(shape)

    def eval_real(self, points):
        return self.eval(points).real

    def eval_jacobian(self, points):
        """Jacobian at points: shape (..., m, d).

        Float64 for a real polynomial and complex otherwise, as for eval.
        On the sparse path, differentiating A cos theta + B sin theta gives
        J = cos(Theta) (B x 2 pi n) - sin(Theta) (A x 2 pi n), one matrix
        product over the stacked [cos | sin] columns.

        On the box-dense d = 2 path the same power tables e_1, e_2 as in
        eval contract a box whose entries are c_n 2 pi i n_1 and
        c_n 2 pi i n_2 side by side, so both columns of J come from one
        matrix product and one per-point dot.
        """
        pts = np.asarray(points, dtype=float)
        flat = pts.reshape(-1, self.dim_domain)
        shape = pts.shape[:-1] + (self.dim_range, self.dim_domain)
        if self._box_dense():
            return self._box_sum(flat, self._dense_2d()[1]).reshape(shape)
        return self._pair_sum(flat, self._pair_arrays()[3],
                              1 << 21).reshape(shape)

    # -- calculus ----------------------------------------------------------

    def derivative(self, direction):
        """Directional derivative along a constant vector."""
        v = np.asarray(direction, dtype=float)
        out = TrigPoly(self.dim_domain, self.dim_range)
        for n, c in self.coeffs.items():
            out[n] = (2j * np.pi * float(np.dot(n, v))) * c
        return out

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
        """Drop coefficients outside the sup-norm ball of the given radius.

        Returns the restriction and the sum of max_i |c_i| over the dropped
        modes, added one by one in dict order (cumsum is sequential).
        """
        freqs, coefs = self._rows()
        inside = np.abs(freqs).max(axis=1) <= radius
        peaks = np.abs(coefs[~inside]).max(axis=1)
        dropped = float(np.cumsum(peaks)[-1]) if len(peaks) else 0.0
        return TrigPoly.from_arrays(self.dim_domain, self.dim_range,
                                    freqs[inside], coefs[inside]), dropped

    def threshold(self, cutoff):
        freqs, coefs = self._rows()
        keep = np.abs(coefs).max(axis=1) > cutoff
        return TrigPoly.from_arrays(self.dim_domain, self.dim_range,
                                    freqs[keep], coefs[keep])

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


def _fft_freqs(n):
    """The integer frequency of each FFT bin, 0..ceil(n/2) - 1 then
    -floor(n/2)..-1.  fftfreq(n) * n is not exact: for n = 36 it reads
    6.999... at bin 7, which truncates to 6."""
    return (np.arange(n) + n // 2) % n - n // 2


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
        freqs = _fft_freqs(n)
        # rows in argwhere's (C) order; from_arrays drops the all-zero ones
        keep = np.max(np.abs(coef), axis=-1) > threshold
        return TrigPoly.from_arrays(d, self.dim_range,
                                    freqs[np.argwhere(keep)], coef[keep])

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
        freqs = _fft_freqs(n)
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
