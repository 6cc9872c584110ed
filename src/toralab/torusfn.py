"""Z^d-periodic vector-valued functions on the torus.

Two representations: finite Fourier series (TrigPoly) with the
convention f(x) = sum_n c_n exp(2 pi i <n, x>), and uniform-grid samples
(GridFunction) at the points k/N.  The transform divides by N^d so the
re-indexing under integer linear substitutions is exact.  A TrigPoly is
an immutable pair of read-only arrays, frequencies and coefficients, and
each of its bulk operations is array code over those rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import exactalg
from .errors import UnreliableFit

TWO_PI = 2.0 * np.pi
# Points times block columns per chunk of the box-dense evaluation, for
# any d: the float64 products of one chunk take 2 MB.  Products of 16-32 MB
# left the orbit benchmark's peak RSS 13-22% higher, and larger chunks are
# no faster.
BOX_CHUNK = 1 << 18
# Points times pairs per [cos | sin] block of eval and of eval_jacobian.
EVAL_CHUNK = 1 << 22
JACOBIAN_CHUNK = 1 << 21
# Points times pairs of the largest [cos | sin] table a TrigPoly keeps for
# its next evaluation (2 MB), and points times columns (2(F + 1))^ceil(d/2)
# of the larger of the two box-dense group tables it keeps (1 MB each).
# An orbit walk's tables, 10^4 points times a few pairs, fit, and so do
# the box tables of a KAM grid, 36^2 points times 34 columns.
TABLE_MEMO = 1 << 17
HOLDER_RESIDUAL = 0.2   # largest log-log residual of a reliable Holder fit
# Grid values per block of grid_sup's max: a 512 KB |v| temporary, so a
# 64^3 grid is read in 4 blocks and a 64^2 grid in one.
SUP_BLOCK = 1 << 16
# Rows per block of save_grid's text: the text and the Python floats of
# one block are held at once, not those of the whole grid (a 256^2 psi
# grid is 64 blocks).
SAVE_BLOCK = 1 << 10


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


def _int_rows(rows):
    """(K, d) frequency rows as int64, or as Python ints (object dtype) when
    one does not fit int64."""
    if rows.dtype.kind == "i":
        return rows.astype(np.int64, copy=False)
    try:
        return np.array(rows.tolist(), dtype=np.int64).reshape(rows.shape)
    except OverflowError:
        return np.array(rows.tolist(), dtype=object).reshape(rows.shape)


def _key(n, d):
    """The frequency n as a tuple of Python ints, of length d."""
    n = tuple(int(x) for x in n)
    if len(n) != d:
        raise ValueError(f"frequency {n} does not have length {d}")
    return n


def _chunks(n, size):
    for i in range(0, n, size):
        yield slice(i, min(i + size, n))


def _kept(slot, pts, size, build):
    """(slot, table) at the points pts: slot's table when its key, the bytes
    and strides of the points, is that of pts, else build()'s, kept
    read-only in a new slot when it has at most TABLE_MEMO entries (size)."""
    key = (pts.tobytes(), pts.strides) if size <= TABLE_MEMO else None
    if key is not None and slot is not None and slot[0] == key:
        return slot, slot[1]
    value = build()
    if key is None:
        return slot, value
    for arr in value if isinstance(value, tuple) else (value,):
        arr.setflags(write=False)
    return (key, value), value


class TrigPoly:
    """Finite Fourier series with integer frequency support.

    Stored as two read-only arrays, in insertion order: freqs, (K, d)
    distinct frequency rows (int64, or Python ints in an object array once
    one does not fit int64), and coefs, (K, m) complex, with no all-zero
    row.  A polynomial is immutable: every operation returns a new one, so
    whatever is derived from the arrays (the +-n pairs, the coefficient
    box, the coeffs view) is computed once, on first use.  from_arrays is
    the bulk constructor; TrigPoly(d, m, {n: c}) builds small polynomials
    by hand and takes the same array path.
    """

    def __init__(self, dim_domain, dim_range, coeffs=None):
        d, m = int(dim_domain), int(dim_range)
        keys, vals = zip(*coeffs.items()) if coeffs else ((), ())
        self._store(d, m, np.array([_key(n, d) for n in keys],
                                   dtype=object).reshape(len(keys), d),
                    np.array([np.asarray(c, dtype=complex).reshape(m)
                              for c in vals],
                             dtype=complex).reshape(len(keys), m))

    def _store(self, dim_domain, dim_range, freqs, coefs):
        self.dim_domain = d = int(dim_domain)
        self.dim_range = m = int(dim_range)
        freqs, coefs = np.asarray(freqs), np.asarray(coefs, dtype=complex)
        k = len(freqs)
        if freqs.dtype.kind not in "iuO" or freqs.shape != (k, d) or \
                coefs.shape != (k, m):
            raise ValueError(
                f"expected integer frequencies of shape (K, {d}) and "
                f"coefficients of shape (K, {m}), got {freqs.dtype} "
                f"{freqs.shape} and {coefs.shape}")
        keep = np.any(coefs != 0, axis=1)
        freqs, coefs = _int_rows(freqs[keep]), coefs[keep]
        self._keys = _row_keys(freqs)
        if len(self._keys.keys) != len(freqs):
            raise ValueError("repeated frequency row")
        freqs.setflags(write=False)
        coefs.setflags(write=False)
        self.freqs, self.coefs = freqs, coefs
        # point-keyed memos of the last evaluation's tables
        self._table = self._powers = None

    def __getitem__(self, n):
        return self.coeffs.get(_key(n, self.dim_domain),
                               np.zeros(self.dim_range, dtype=complex))

    @functools.cached_property
    def coeffs(self):
        """Read-only mapping from frequency tuples to coefficient rows, in
        stored order."""
        return MappingProxyType(dict(zip(map(tuple, self.freqs.tolist()),
                                         self.coefs)))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_arrays(cls, dim_domain, dim_range, freqs, coefs):
        """The polynomial with coefficient row k of coefs at frequency row k
        of freqs, stored in the order given.

        freqs is a (K, d) integer array (object dtype holds Python ints
        beyond int64) of distinct rows, coefs a (K, m) array.  All-zero
        rows are dropped.
        """
        out = cls.__new__(cls)
        out._store(dim_domain, dim_range, freqs, coefs)
        return out

    @classmethod
    def zero(cls, dim_domain, dim_range):
        return cls(dim_domain, dim_range)

    @classmethod
    def _mode(cls, freq, amplitude, divisor, op):
        """vec / divisor at freq and op(0, vec / divisor) at -freq, with vec
        the amplitude as a vector; at freq = 0 the two halves meet as
        op(vec / divisor, vec / divisor)."""
        freq = [int(x) for x in freq]
        vec = np.atleast_1d(np.asarray(amplitude, float)).astype(complex)
        half = vec / divisor
        if not any(freq):
            return cls.from_arrays(len(freq), len(vec), [freq],
                                   [op(half, half)])
        return cls.from_arrays(len(freq), len(vec),
                               [freq, [-x for x in freq]],
                               [half, op(0, half)])

    @classmethod
    def sin_mode(cls, freq, amplitude):
        """amplitude * sin(2 pi <freq, x>) as a real trig polynomial."""
        return cls._mode(freq, amplitude, 2j, np.subtract)

    @classmethod
    def cos_mode(cls, freq, amplitude):
        return cls._mode(freq, amplitude, 2, np.add)

    # -- structure ---------------------------------------------------------

    @functools.cached_property
    def support_radius(self):
        """Max sup-norm of frequencies in the support."""
        return int(np.abs(self.freqs).max(initial=0))

    def modes(self):
        """Frequencies (K, d) and coefficients (K, m), sorted by frequency."""
        order = np.lexsort(self.freqs.T[::-1])
        return self.freqs[order], self.coefs[order]

    @functools.cached_property
    def _negated(self):
        """c_{-n} for each stored row n: the row of -n, or 0 where -n
        carries no coefficient; and the index of that row, or -1."""
        pos = self._keys.find(-self.freqs)
        partner = np.where(pos >= 0, self._keys.first[pos], -1)
        return np.where((partner >= 0)[:, None], self.coefs[partner],
                        0), partner

    @functools.cached_property
    def _pairs(self):
        """Coefficients of f on the +-n pairs:
        (c_0, n, [A; B]^T, [B w; -A w]^T).

        Each frequency pair +-n is listed once, by its representative n
        with first nonzero coordinate > 0 (lexicographically n > 0), in
        sorted order.  With theta = 2 pi <n, x> and w = 2 pi n,

            c_n e^{i theta} + c_{-n} e^{-i theta} = A cos theta + B sin theta,
            A = c_n + c_{-n},   B = i (c_n - c_{-n}),

        so f = c_0 + [A; B]^T [cos Theta; sin Theta] over the K pairs, and
        its Jacobian is [B w; -A w]^T [cos Theta; sin Theta] (A w stands for
        A_n (x) w_n, flattened to m * d rows).  Both matrices are stored
        transposed and contiguous, (m, 2K) and (m d, 2K), as the
        component-major kernel reads them.  When c_{-n} = conj(c_n)
        exactly and c_0 is real, A, B and c_0 have zero imaginary part and
        are stored as float64, so a real polynomial is evaluated in real
        arithmetic: [A; B] is float64 exactly then.  c_0 is stored as an
        (m, 1) column, and a zero c_0 as None, so eval skips it without
        testing it on every call.
        """
        d, m = self.dim_domain, self.dim_range
        freqs, coefs = self.freqs, self.coefs
        neg, partner = self._negated
        nonzero = (freqs != 0).any(axis=1)
        lead = freqs[np.arange(len(freqs)), np.argmax(freqs != 0, axis=1)]
        positive = (lead > 0)[:, None]
        # a positive row, or a negative one whose partner is not stored
        take = positive[:, 0] | (nonzero & (partner < 0))
        reps = np.where(positive, freqs, -freqs)[take]
        order = np.lexsort(reps.T[::-1])
        pos = np.where(positive, coefs, neg)[take][order]
        neg = np.where(positive, neg, coefs)[take][order]
        k = len(order)
        a = pos + neg
        b = 1j * (pos - neg)
        c0 = coefs[~nonzero][0] if not nonzero.all() else \
            np.zeros(m, dtype=complex)
        if not (np.any(a.imag) or np.any(b.imag) or np.any(c0.imag)):
            a, b, c0 = a.real, b.real, c0.real
        rep_f = reps[order].astype(float).reshape(k, d)
        w = (TWO_PI * rep_f)[:, None, :]
        jw = np.concatenate([b[:, :, None] * w, -a[:, :, None] * w])
        return (c0[:, None] if np.any(c0) else None, rep_f,
                np.ascontiguousarray(np.concatenate([a, b]).T),
                np.ascontiguousarray(jw.reshape(2 * k, m * d).T))

    def _pair_table(self, xs):
        """[cos Theta; sin Theta] at the points xs, component-major (d, P):
        a (2K, P) array, Theta = 2 pi n x.

        _cos_sin fills its rows from the angles in turns U = n x, one
        product of the pair frequencies with the coordinate rows, taken in
        C order: numpy and BLAS round some small products differently for
        the two layouts of xs, and in C order a point set gives the same
        bits whatever its layout.  _kept keeps the table: a Newton step
        takes f and Df at one point set, and each builds one table, not
        two.
        """
        freqs = self._pairs[1]
        k = len(freqs)

        def build():
            trig = np.empty((2 * k, xs.shape[1]))
            _cos_sin(freqs @ np.ascontiguousarray(xs), trig[:k], trig[k:])
            return trig
        self._table, trig = _kept(self._table, xs, k * xs.shape[1], build)
        return trig

    def _pair_sum(self, xs, coef_t, chunk):
        """coef_t [cos Theta; sin Theta] at the points xs (d, P), a
        (columns, P) array, in blocks of at most chunk points times pairs."""
        k = len(self._pairs[1])
        out = np.empty((coef_t.shape[0], xs.shape[1]), dtype=coef_t.dtype)
        for sl in _chunks(xs.shape[1], max(1, chunk // max(k, 1))):
            np.matmul(coef_t, self._pair_table(xs[:, sl]), out=out[:, sl])
        return out

    def _box_dense(self):
        """Polynomial that fills enough of its frequency box for the
        separable evaluation to be cheaper than the sparse one: more than
        12 stored rows per box line, 12 (2F + 1)^(d - 1) in all.

        Measured with the float64 box kernel on a 2-core Xeon with one
        BLAS thread, for a value and a Jacobian at one point set of real
        m = 2 polynomials.  At d = 2, F = 6..32, with 12 rows per line the
        box path is 1.5-1.7x as fast as the pair path at 256 points and
        1.8-6.5x at 1296, but 1.2-1.3x as slow at 36 points and 1.8-3.4x
        at one point, where its F-step table loop dominates; at 1296
        points the two break even near 5-8 rows per line, at 256 near
        8-10.  For full boxes at d = 3 (F = 6, 7) and d = 4 (F = 6), 13
        and 15 rows per line, the box path is 2.5-13x as fast at 37
        points and 9.6-19x at 256 and more, but at one point 0.4x as fast
        at d = 3 and 1.0x at d = 4.  The path depends on the polynomial
        alone, never on the point count, so 12 stays.  Every d = 2
        polynomial the benchmark workloads evaluate has at most 0.7 or at
        least 32 rows per line.
        """
        return len(self.freqs) > \
            12 * (2 * self.support_radius + 1) ** (self.dim_domain - 1)

    def is_real(self, tol=1e-12):
        neg = self._negated[0]
        # the max of each row first, so that a NaN row passes as it always has
        return not np.any(np.abs(neg - np.conj(self.coefs)).max(axis=1) > tol)

    def symmetrize_real(self):
        """Project onto real-valued functions (enforce c_{-n} = conj(c_n)).

        Each +-n pair is averaged at the first of its stored rows, n, and
        written as n then -n; c_0 is replaced by its real part.
        """
        freqs, coefs = self.freqs, self.coefs
        neg, partner = self._negated
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

    def _combine(self, other, op):
        """op(c_n, c'_n) where both polynomials store n, op(0, c'_n) where
        only other does; the rows of self keep their order and the new
        rows follow in the order of other."""
        k = len(self.freqs)
        keys = _row_keys(np.concatenate([self.freqs, other.freqs]))
        row = keys.first[keys.inverse[k:]]
        shared = row < k
        coefs = self.coefs.copy()
        coefs[row[shared]] = op(coefs[row[shared]], other.coefs[shared])
        return TrigPoly.from_arrays(
            self.dim_domain, self.dim_range,
            np.concatenate([self.freqs, other.freqs[~shared]]),
            np.concatenate([coefs, op(0, other.coefs[~shared])]))

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __mul__(self, scalar):
        return TrigPoly.from_arrays(self.dim_domain, self.dim_range,
                                    self.freqs, scalar * self.coefs)

    __rmul__ = __mul__

    def matrix_apply(self, mat):
        """Left-multiply values by a constant matrix: x -> mat @ f(x)."""
        mat = np.asarray(mat, dtype=complex)
        # a stack of mat @ c products rounds each row as a lone product
        # does; coefs @ mat.T runs another BLAS kernel and rounds otherwise
        return TrigPoly.from_arrays(
            self.dim_domain, mat.shape[0], self.freqs,
            np.matmul(mat, self.coefs[:, :, None])[:, :, 0])

    # -- evaluation --------------------------------------------------------

    @functools.cached_property
    def _dense(self):
        """The coefficient box as two float64 blocks for _box_sum.

        Returns (value, jac).  With c_j, s_j = cos, sin 2 pi k_j x_j, the
        box of radius F is folded one axis at a time, from the last to the
        first: the entries z at +k and z' at -k of each line become the
        (cos, sin) columns z + z' and i (z - z') of (k, c/s), k = 0..F,
        since z e^{i theta} + z' e^{-i theta} = (z + z') cos theta +
        i (z - z') sin theta.  At k = 0 the one entry is z, with z' = 0 and
        the sin column zeroed.  After the d folds, f = sum over every
        (k, c/s)^d of the entry times the product of the d table columns.
        For a real polynomial (as _pairs decides: c_{-n} = conj(c_n)
        exactly) the entries are real, and their real part is the block's m
        components; a complex polynomial has 2m, the real parts then the
        imaginary parts, which _box_sum recombines.  The Jacobian's block
        differentiates the columns of one axis at a time: (c, s) of one k
        become 2 pi k (s, -c).

        The rows of each block are the (k, c/s) of the row group, the
        first ceil(d/2) axes; its columns are (component, k, c/s) of the
        column group, the other axes, and jac has (component, axis, k, c/s).
        """
        f, d = self.support_radius, self.dim_domain
        box = np.zeros((self.dim_range,) + (2 * f + 1,) * d, dtype=complex)
        box[(slice(None),) + tuple((self.freqs + f).T)] = self.coefs.T
        for _ in range(d):
            # fold the last frequency axis; its (k, c/s) go before the others
            pos, neg = box[..., f:], box[..., f::-1].copy()
            neg[..., 0] = 0.0
            fold = np.stack([pos + neg, 1j * (pos - neg)], axis=-1)
            fold[..., 0, 1] = 0.0
            box = np.moveaxis(fold.reshape(fold.shape[:-2] + (-1,)), -1, 1)
        val = np.concatenate([box.real, box.imag]) \
            if self._pairs[2].dtype == complex else box.real
        # d/dx_a turns the (c, s) columns of axis a at k into 2 pi k (s, -c)
        wn = TWO_PI * np.arange(f + 1)[:, None]
        axes = (val.reshape(len(val), (2 * f + 2) ** a, f + 1, 2, -1)
                for a in range(d))
        jac = np.stack([np.stack([wn * v[:, :, :, 1], -wn * v[:, :, :, 0]],
                                 axis=3).reshape(val.shape) for v in axes], 1)
        r = (d + 1) // 2
        return tuple(np.ascontiguousarray(np.moveaxis(
            b, range(b.ndim - d, b.ndim - d + r), range(r))).reshape(
                (2 * f + 2) ** r, -1) for b in (val, jac))

    @staticmethod
    def _power_table(x, f):
        """cos 2 pi k x and sin 2 pi k x for k = 0..F at the points x, as a
        (P, 2(F + 1)) float64 array with columns (k, c/s).

        Row k of a complex (F + 1, P) array is exp(2 pi i k x): row 1 is
        written by _cos_sin, the kernel of the sparse tables, and row
        k > 1 is row k - 1 times row 1, a cumulative product taken one
        contiguous row at a time.  The table is the float64 view of its
        point-major copy, so that each point's cos/sin columns are
        contiguous for _box_sum's per-point dot.
        """
        out = np.empty((f + 1, len(x)), dtype=complex)
        out[0] = 1.0
        base = out[1]
        _cos_sin(x, base.real, base.imag)
        for k in range(2, f + 1):
            np.multiply(out[k - 1], base, out=out[k])
        return np.ascontiguousarray(out.T).view(float)

    @staticmethod
    def _group_table(tables, p):
        """The per-point outer product of the axis tables, a (p, prod of
        their columns) array with the columns of the first axis slowest:
        one table itself, and a (p, 1) column of ones for none."""
        out = tables[0] if tables else np.ones((p, 1))
        for t in tables[1:]:
            out = (out[:, :, None] * t[:, None, :]).reshape(p, -1)
        return out

    def _power_tables(self, xs):
        """The group tables (row, column) of _box_sum at the points xs
        (d, P): the outer products of the power tables of the row group's
        axes and of the column group's (see _dense).

        Like the [cos | sin] table of _pair_table, the two are kept by
        _kept: a Newton step's f and Df share one pair of tables.
        """
        f, r, p = self.support_radius, (self.dim_domain + 1) // 2, xs.shape[1]

        def build():
            axes = [self._power_table(x, f) for x in xs]
            return self._group_table(axes[:r], p), \
                self._group_table(axes[r:], p)
        self._powers, tables = _kept(self._powers, xs,
                                     p * (2 * f + 2) ** r, build)
        return tables

    def _box_sum(self, xs, block):
        """The sum over the box of t_row block t_col at the points xs (d, P),
        as a (rows, P) array, with t_row and t_col the group tables of
        _power_tables and block one of _dense's.

        One float64 matrix product of t_row with the block contracts the
        row group's (k, c/s) and leaves, per point, rows times
        (2(F + 1))^floor(d/2) columns; np.vecdot with t_col contracts each
        over the column group's (k, c/s).  Points go in blocks of BOX_CHUNK
        points times block columns, whose products share one buffer.  A
        complex polynomial's rows are its real parts then its imaginary
        parts (see _dense), returned as one complex array.
        """
        width = (2 * self.support_radius + 2) ** (self.dim_domain // 2)
        rows = block.shape[1] // width
        size = max(1, min(xs.shape[1], BOX_CHUNK // block.shape[1]))
        out = np.empty((rows, xs.shape[1]))
        part = np.empty((size, block.shape[1]))
        for sl in _chunks(xs.shape[1], size):
            t_row, t_col = self._power_tables(xs[:, sl])
            prod = np.matmul(t_row, block, out=part[:len(t_row)])
            np.vecdot(prod.reshape(len(t_row), rows, width),
                      t_col[:, None, :], out=out[:, sl].T)
        if self._pairs[2].dtype != complex:
            return out
        half = rows // 2
        res = out[:half].astype(complex)
        res.imag = out[half:]
        return res

    def _eval_rows(self, xs):
        """f at the points xs, component-major: (d, P) -> (m, P).  The one
        evaluation kernel; eval is a view around it."""
        if self._box_dense():
            return self._box_sum(xs, self._dense[0])
        c0, _, ab_t, _ = self._pairs
        out = self._pair_sum(xs, ab_t, EVAL_CHUNK)
        if c0 is not None:
            out += c0
        return out

    def _jacobian_rows(self, xs):
        """Df at the points xs, component-major: (d, P) -> (m, d, P).  The
        one Jacobian kernel; eval_jacobian is a view around it."""
        if self._box_dense():
            out = self._box_sum(xs, self._dense[1])
        else:
            out = self._pair_sum(xs, self._pairs[3], JACOBIAN_CHUNK)
        return out.reshape(self.dim_range, self.dim_domain, -1)

    def eval(self, points):
        """Evaluate at points of shape (..., d); returns (..., m).

        The result is float64 when the polynomial is real (c_{-n} =
        conj(c_n) exactly, as symmetrize_real leaves it) and complex
        otherwise.  It is the transpose of the component-major kernel's
        (m, P) rows, a view for flat points: the points are read as their
        (d, P) transpose, and eval(x.T).T is the kernel at the rows x.
        Sparse polynomials are summed over +-n pairs, one cos and one sin
        per pair and point: f = c_0 + A^T cos(Theta) + B^T sin(Theta) with
        Theta = 2 pi n x (see _pairs), as one matrix product with the
        stacked [cos; sin] rows.  Every table entry, here and on the
        box-dense path, comes from _cos_sin.

        Box-dense polynomials (support radius F, any d) are separable, and
        are summed in float64: f(x) = sum over (k_i, c/s) of a real block
        entry times the product of cos or sin 2 pi k_i x_i over the d axes
        (_dense folds the coefficient box into these entries, one axis at a
        time).  The tables of cos and sin 2 pi k x_i, k = 0..F, come from
        one cos and sin per point and axis and a cumulative product; the
        first ceil(d/2) axes form the row group and the others the column
        group, each with the per-point outer product of its tables.  One
        float64 matrix product of the row group's table with the
        ((2(F+1))^ceil(d/2), (2(F+1))^floor(d/2) m) block contracts the row
        group, and a per-point dot with the column group's table contracts
        the rest: (2(F+1))^d multiply-adds per component and point, 4
        (F+1)^2 at d = 2.  A complex polynomial's block has the real and
        the imaginary part of each component.  EVAL_CHUNK bounds the points
        times pairs held at once on the sparse path, BOX_CHUNK the points
        times block columns on the box-dense one.
        """
        pts = np.asarray(points, dtype=float)
        shape = pts.shape[:-1] + (self.dim_range,)
        return self._eval_rows(
            pts.reshape(-1, self.dim_domain).T).T.reshape(shape)

    def eval_real(self, points):
        return self.eval(points).real

    def eval_jacobian(self, points):
        """Jacobian at points: shape (..., m, d).

        Float64 for a real polynomial and complex otherwise, as for eval,
        and like eval a view around the component-major kernel: for flat
        points, the (P, m, d) transpose of its (m, d, P) rows.  On the
        sparse path, differentiating A cos theta + B sin theta gives
        J = (B x 2 pi n)^T cos(Theta) - (A x 2 pi n)^T sin(Theta), one
        matrix product with the stacked [cos; sin] rows.

        On the box-dense path the same group tables as in eval contract a
        float64 block whose columns hold the derivatives along every axis
        side by side (_dense differentiates one axis's cos/sin pairs at a
        time), so all d columns of J come from one matrix product and one
        per-point dot.
        """
        pts = np.asarray(points, dtype=float)
        shape = pts.shape[:-1] + (self.dim_range, self.dim_domain)
        return self._jacobian_rows(pts.reshape(-1, self.dim_domain).T) \
            .transpose(2, 0, 1).reshape(shape)

    # -- calculus ----------------------------------------------------------

    def derivative(self, direction):
        """Directional derivative along a constant vector."""
        v = np.asarray(direction, dtype=float)
        # vecdot rounds each <n, v> as np.dot of one row does; freqs @ v
        # runs another BLAS kernel and rounds otherwise
        return TrigPoly.from_arrays(
            self.dim_domain, self.dim_range, self.freqs,
            (2j * np.pi * np.vecdot(self.freqs, v))[:, None] * self.coefs)

    def compose_affine(self, mat, shift=None):
        """Exact coefficients of x -> f(M x + c) for integer M.

        The mode at frequency n moves to M^T n and picks up the phase
        exp(2 pi i <n, c>); no truncation is involved.  Modes that land on
        one frequency (M not unimodular) are summed in stored order, and
        the frequencies are kept in the order they are first reached.
        """
        c_shift = np.zeros(self.dim_domain) if shift is None else \
            np.asarray(shift, dtype=float)
        phase = np.exp(2j * np.pi * np.vecdot(self.freqs, c_shift))
        keys = _row_keys(self.freqs @ np.asarray(mat, dtype=np.int64))
        acc = np.zeros((len(keys.keys), self.dim_range), dtype=complex)
        np.add.at(acc, keys.inverse, phase[:, None] * self.coefs)
        order = np.argsort(keys.first)
        return TrigPoly.from_arrays(self.dim_domain, self.dim_range,
                                    keys.keys[order], acc[order])

    # -- norms -------------------------------------------------------------

    def c0_upper(self):
        """Coefficient l1 bound for sup_x max_i |f_i(x)|, summed in stored
        order (cumsum is sequential)."""
        if not len(self.coefs):
            return 0.0
        return float(np.max(np.cumsum(np.abs(self.coefs), axis=0)[-1]))

    def restrict(self, radius):
        """Drop coefficients outside the sup-norm ball of the given radius.

        Returns the restriction and the sum of max_i |c_i| over the dropped
        modes, added one by one in stored order (cumsum is sequential).
        """
        freqs, coefs = self.freqs, self.coefs
        inside = np.abs(freqs).max(axis=1) <= radius
        peaks = np.abs(coefs[~inside]).max(axis=1)
        dropped = float(np.cumsum(peaks)[-1]) if len(peaks) else 0.0
        return TrigPoly.from_arrays(self.dim_domain, self.dim_range,
                                    freqs[inside], coefs[inside]), dropped

    def threshold(self, cutoff):
        keep = np.abs(self.coefs).max(axis=1) > cutoff
        return TrigPoly.from_arrays(self.dim_domain, self.dim_range,
                                    self.freqs[keep], self.coefs[keep])

    def to_grid(self, grid_n, allow_alias=False):
        """Values at the N^d grid points k/N, as one GridFunction.

        The one array allocated, N^d * m complex, is transformed and
        scaled in place, so the peak is that array alone; the bits are
        those of ifftn(arr) * N^d.
        """
        if not allow_alias and 2 * self.support_radius >= grid_n:
            raise ValueError("grid too coarse for the support radius "
                             f"({self.support_radius} vs N={grid_n})")
        d, m = self.dim_domain, self.dim_range
        arr = np.zeros((grid_n,) * d + (m,), dtype=complex)
        # add.at adds aliased modes one by one, in stored order
        np.add.at(arr, tuple((self.freqs % grid_n).astype(np.intp).T),
                  self.coefs)
        np.fft.ifftn(arr, axes=tuple(range(d)), out=arr)
        arr *= grid_n ** d
        return GridFunction(arr)


def uniform_grid(d, n):
    """The N^d points k/N of the uniform grid, as a flat (N^d, d) array."""
    axes = [np.arange(n) / n] * d
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)


def _abs_max(vals, real):
    """max |v| (|Re v| when real) over the array vals, in blocks of
    SUP_BLOCK entries: the max of exact block maxima, so the bits are
    those of one np.max over the whole array, and no temporary the size
    of vals is made."""
    flat = vals.reshape(-1)
    flat = flat.real if real else flat
    best = np.float64(0.0)
    for sl in _chunks(len(flat), SUP_BLOCK):
        best = np.maximum(best, np.max(np.abs(flat[sl])))
    return best


def grid_sup(tp, grid_n=64):
    """max over the grid k/N of |f(k/N)| (of the real part if f is real).

    The grid is taken on the rank r of the lattice spanned by the
    frequencies, not on all d axes.  exactalg.column_reduce gives a
    unimodular U with every frequency of g(x) = f(Ux) in Z^r x 0.  Since
    k -> Uk permutes (Z/N)^d, the values f(k/N) and g(j/N) are the same
    multiset, and g depends on j_1..j_r only; aliased sampling is exact at
    grid points, so the sup is that of an r-dimensional N^r grid.  When
    r = d the full d-dimensional grid is used unchanged.

    Each nonzero range component goes through to_grid on its own, with a
    running max, so one N^r complex grid is alive at a time, not m of
    them.  Every value and the max are the same floating-point operations
    as on all m components at once: the bits are unchanged.
    """
    d = tp.dim_domain
    real = tp.is_real(1e-9)
    u, r = exactalg.column_reduce(tp.modes()[0].tolist(), d)
    if r == 0:
        return _abs_max(tp[(0,) * d], real)
    low = tp if r == d else tp.compose_affine(u)
    freqs = low.freqs[:, :r]
    best = np.float64(0.0)
    for i in np.flatnonzero(np.any(low.coefs != 0, axis=0)).tolist():
        col = TrigPoly.from_arrays(r, 1, freqs, low.coefs[:, i:i + 1])
        best = np.maximum(best, _abs_max(
            col.to_grid(grid_n, allow_alias=True).values, real))
    return best


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

    def to_trig(self, threshold=0.0):
        """Fourier coefficients (divided by N^d); optionally thresholded."""
        d, n = self.dim_domain, self.grid_n
        coef = np.fft.fftn(self.values, axes=tuple(range(d))) / (n ** d)
        freqs = _fft_freqs(n)
        # rows in argwhere's (C) order; from_arrays drops the all-zero ones
        keep = np.max(np.abs(coef), axis=-1) > threshold
        return TrigPoly.from_arrays(d, self.dim_range,
                                    freqs[np.argwhere(keep)], coef[keep])

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


def _sup_increments(fn, dim, scales, pairs, seed):
    """f at `pairs` seeded base points x, and for each scale delta the max
    over them of |f(x + delta u) - f(x)|, with seeded unit directions u."""
    if isinstance(fn, TrigPoly):
        dim, evaluator = fn.dim_domain, fn.eval_real
    elif not callable(fn):
        raise TypeError(f"cannot evaluate {type(fn)!r}")
    elif dim is None:
        raise TypeError("dim required for a bare callable")
    else:
        evaluator = fn
    rng = np.random.default_rng(seed)
    base = rng.random((pairs, dim))
    dirs = rng.normal(size=(pairs, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    f0 = np.asarray(evaluator(base))
    sups = [np.max(np.abs(np.asarray(evaluator(base + delta * dirs)) - f0))
            for delta in scales]
    return f0, np.array(sups, dtype=float)


def estimate_holder(fn, dim=None, j_min=4, j_max=16, pairs=10000, seed=0):
    """Estimate a Holder exponent from sup-increments at dyadic scales.

    The increment at scale 2^-j is the max of |f(x + delta u) - f(x)| over
    `pairs` random base points and unit directions u.  The exponent is the
    least-squares slope in log-log; an estimator, not a certificate.  The
    fit is reliable when its residual is at most HOLDER_RESIDUAL.
    """
    scales = np.array([2.0 ** (-j) for j in range(j_min, j_max + 1)])
    f0, sups = _sup_increments(fn, dim, scales, pairs, seed)
    mask = sups > 0
    if mask.sum() < 3:
        if np.all(sups < 1e-13 * max(1.0, np.max(np.abs(f0)))):
            # constant function: any exponent fits; report saturation
            return HolderEstimate(exponent=1.0, constant=0.0, residual=0.0,
                                  scales=scales, increments=sups,
                                  n_pairs=pairs, reliable=True,
                                  threshold=HOLDER_RESIDUAL)
        raise UnreliableFit("increments vanish at almost every scale")
    x = np.log(scales[mask])
    y = np.log(sups[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.max(np.abs(y - (slope * x + intercept))))
    reliable = resid <= HOLDER_RESIDUAL
    return HolderEstimate(exponent=float(min(max(slope, 0.0), 1.5)),
                          constant=float(np.exp(intercept)),
                          residual=resid, scales=scales, increments=sups,
                          n_pairs=pairs, reliable=reliable,
                          threshold=HOLDER_RESIDUAL)


def finite_difference_ratio(fn, dim, scales, pairs=10000, seed=0):
    """For each delta in the sequence `scales`, the sup over sampled pairs
    of |f(x + delta u) - f(x)| / delta: the increments of estimate_holder
    at those scales, as a list of floats.  One pass draws the base points
    and directions once and evaluates f at the base points once, so each
    ratio equals a one-scale call with the same pairs and seed."""
    _, sups = _sup_increments(fn, dim, scales, pairs, seed)
    return [float(s / delta) for s, delta in zip(sups, scales)]


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


def save_grid(gf, path, extra_header=None):
    """Text format: one JSON header line, then one sample row per line.

    A row holds the range components as "%.17g" numbers separated by
    spaces; a complex component is written as its real and imaginary
    parts.  Rows are formatted SAVE_BLOCK at a time, each block by one
    format string of one "{:.17g}" per number, so the text of the whole
    grid is never held at once."""
    import json
    header = {"dim_domain": gf.dim_domain, "dim_range": gf.dim_range,
              "grid_n": gf.grid_n, "interpolation": "trig",
              "convention": "samples at k/N, row-major",
              "complex": bool(np.iscomplexobj(gf.values))}
    if extra_header:
        header.update(extra_header)
    flat = gf.values.reshape(-1, gf.dim_range)
    if header["complex"]:
        # each complex value as its (re, im) pair, in the order written
        flat = np.ascontiguousarray(flat, dtype=complex).view(float)
    else:
        flat = np.asarray(flat, dtype=float)
    row = " ".join(["{:.17g}"] * flat.shape[1]) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for start in range(0, len(flat), SAVE_BLOCK):
            block = flat[start:start + SAVE_BLOCK]
            fh.write((row * len(block)).format(*block.ravel().tolist()))
