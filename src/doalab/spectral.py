"""Sample covariance, Hermitian eigendecomposition, and one-source
Root-MUSIC.

Two paths.  ``sample_covariance`` and ``root_music`` are the textbook
per-covariance reference: ``np.linalg.eigh``, then the companion-matrix
roots (``np.roots``).  ``signal_vectors`` and ``root_music_rows`` estimate
one source for a whole stack of trials: the signal eigenvector in closed
form or by a certified power iteration (``_principal_vectors``), its root
by a certified Newton-type search (``_certified_roots``).  Each takes the
reference's solver only for the rows its certificate refuses, so the
reference checks both.  The grid-sampled null spectrum that checks
``root_music`` in turn, ``music_spectrum_grid``, lives in
``tests/oracles.py``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EstimationError


@dataclass
class CovarianceEstimate:
    """Hermitian sample covariance with its eigendecomposition, eigenvalues
    sorted descending."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def sample_covariance(samples: np.ndarray) -> CovarianceEstimate:
    """R_hat = (1/L) sum_t x(t) x(t)^H with eigendecomposition attached.

    ``samples`` is a channels x snapshots array; the eigenpairs come from
    ``np.linalg.eigh`` whatever the snapshot count.
    """
    x = np.asarray(samples, dtype=np.complex128)
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError("need a channels x snapshots array with >= 1 snapshot")
    r = _covariances(x)
    w, v = np.linalg.eigh(r)  # ascending
    return CovarianceEstimate(r, w[::-1], v[:, ::-1])


def _covariances(x: np.ndarray) -> np.ndarray:
    """x x^H / T for each channels x snapshots array of a stack (..., P, T)."""
    # in place, so a stack holds two (..., P, P) temporaries, not four
    r = x @ np.swapaxes(x.conj(), -1, -2)
    r /= x.shape[-1]
    r += np.swapaxes(r.conj(), -1, -2)
    r /= 2.0  # exactly Hermitian
    return r


def _null_polynomials(vectors: np.ndarray) -> np.ndarray:
    """Root-MUSIC coefficients, one row per signal eigenvector.

    ``vectors`` is (B, P): the signal eigenvector e of each of B
    covariances.  Row b holds the coefficients (highest degree first) of
    z^(P-1) * a(1/z)^H C a(z), with C = I - e e^H the projector onto the
    noise subspace of covariance b.
    """
    # contiguous rows: on eigh's strided eigenvector columns, np.vecdot
    # sums in another order than on rows, and the last bits change
    v = np.ascontiguousarray(vectors, dtype=complex)
    p = v.shape[-1]
    coeffs = np.zeros((len(v), 2 * p - 1), dtype=complex)
    for lag in range(p):
        # sum_i e[i] conj(e[i + lag]) over every row at once: the dot
        # that np.correlate(e, e, "full")[p - 1 - lag] takes
        coeffs[:, p - 1 - lag] -= np.vecdot(v[:, lag:], v[:, :p - lag])
    coeffs[:, p - 1] = p + coeffs[:, p - 1].real
    coeffs[:, p:] = np.conj(coeffs[:, p - 2::-1])
    return coeffs


def root_music_polynomial(cov: CovarianceEstimate) -> np.ndarray:
    """Coefficients (highest degree first) of z^(P-1) * a(1/z)^H C a(z), with
    C = I - e e^H the projector onto the noise subspace of the one-source
    model, e the principal eigenvector.

    The coefficient of z^l is the sum of the l-th superdiagonal of C:
    P delta_l minus the lag-l autocorrelation sum_i e[i] conj(e[i+l]).
    The subdiagonal sums are taken as the conjugates of the superdiagonal
    ones, since C is Hermitian; the polynomial is then exactly
    self-reciprocal and real on the unit circle.
    """
    return _null_polynomials(cov.eigenvectors[:, 0][None])[0]


_MAX_ITER = 40
# the later rounds start this far from the origin, inside the unit circle
_RESTART_RADIUS = 1.0 - 1e-3
# the second round starts from this many local minima of a row,
# those of smallest predicted distance to their root.  At P = 64 and
# -10 dB a wave of four certified 94 of 99 such rows, and the search took
# 0.43 of the time it took from every minimum; waves of two and eight
# ran about as fast, a wave of one 1.3 times slower
_WAVE = 4
# the certificate circle sits this fraction inside the chosen root
_CERT_INSET = 1e-6
# largest phase step between certificate samples that counts as resolved
_CERT_MAX_STEP = np.pi / 4
_EPS = np.finfo(float).eps
# a certificate sample below this fraction of sum |a_k| r1^k is at
# rounding level
_CERT_FLOOR = 1e3 * _EPS
# bytes the rows of one search of ``root_music_rows`` hold at most
_SEARCH_BYTES = 1 << 23
# bytes a row's search holds at its peak, per sample of the certificate's
# first pass.  That pass keeps three complex and two real arrays of its
# samples, and the later rounds' lanes hold less: measured by
# tracemalloc on 256 one-snapshot rows, 78-80 bytes a sample at 10 dB and
# P = 12-64, and 80, 91 and 110 at -10 dB and P = 16, 32 and 64
_ROW_BYTES_PER_SAMPLE = 112


def _search_rows(p: int) -> int:
    """Rows of P channels that ``root_music_rows`` searches at once: as
    many as hold ``_SEARCH_BYTES`` at ``_ROW_BYTES_PER_SAMPLE`` bytes per
    certificate sample, of which a row has the first power of two of at
    least 8(2P - 2) (``_certified``).  292 rows at P = 12 or 16, 146 at
    P = 32 and 73 at P = 64."""
    samples = _pow2_at_least(8 * (2 * p - 2))
    return max(1, _SEARCH_BYTES // (_ROW_BYTES_PER_SAMPLE * samples))


def _companion_roots(coeffs: np.ndarray) -> complex:
    """The root inside the unit circle closest to it, from the
    companion-matrix eigenvalues (``np.roots``)."""
    roots = np.roots(coeffs)
    inside = roots[np.abs(roots) <= 1.0 + 1e-9]
    if inside.size == 0:
        raise EstimationError("no Root-MUSIC root on or inside the unit circle")
    return inside[_closest_first(inside)[0]]


def _closest_first(z: np.ndarray) -> np.ndarray:
    """Order along the last axis: closest to the unit circle first; ties
    go to smaller |phase|, then to the earlier entry.  NaN entries last."""
    return np.lexsort((np.abs(np.angle(z)), -np.abs(z)), axis=-1)


def _pow2_at_least(n: int) -> int:
    return 1 << (int(n) - 1).bit_length()


def _spectrum_minima(a: np.ndarray):
    """Per row of ``a``, the local minima of the null spectrum.

    The spectrum d(w) is sampled on an FFT grid.  A parabola through each
    local minimum and its two neighbours gives its phase, the depth d0 and
    the curvature d2 there, and the quadratic model of d(w + i s) puts a
    root at s = sqrt(2 d0 / d2) inside the circle.  Returns (phase, s),
    both (B, grid), with s infinite off the local minima.
    """
    p = (a.shape[1] + 1) // 2
    m = _pow2_at_least(8 * p)
    # d(w_j) = sum_l c_l e^{i l w_j}, c_{-l} = conj(c_l), c_l = a[p - 1 + l]
    d = m * np.fft.irfft(a[:, p - 1:], m, axis=1)
    left = np.concatenate((d[:, -1:], d[:, :-1]), axis=1)
    right = np.concatenate((d[:, 1:], d[:, :1]), axis=1)
    curv = left - 2.0 * d + right
    curv = np.where(curv > 0.0, curv, np.inf)
    depth = d - 0.125 * (right - left) ** 2 / curv
    sigma = np.sqrt(np.maximum(2.0 * depth / curv, 0.0))
    sigma[~((d < left) & (d <= right))] = np.inf  # local minima only
    shift = 0.5 * (left - right) / curv
    step = 2.0 * np.pi / m
    return step * (np.arange(m) + shift), step * sigma


def _laguerre(a: np.ndarray, z: np.ndarray):
    """Laguerre's iteration (Newton's with a second-order correction) on
    every start at once.

    Row j of ``a`` holds a polynomial (ascending) and row j of ``z``
    (rows, starts) its starts; a NaN start is no start.  Roots pair up as
    (z, 1/conj(z)), so every iterate is mirrored into the closed unit
    disk, where sum |a_k| bounds the terms of g.  A start has converged
    once |g| is at rounding level against that bound; the step taken from
    there polishes the root, and the start then stays put.  Returns the
    roots (rows, starts) and a mask of the starts that converged to a
    finite root.

    The forms of g, g' and g'' are built once per row and shared by its
    starts, each start's powers of z multiplying its row's forms through a
    broadcast, not a copy.  Every start of the rows held is evaluated and
    only the open ones move; the rows with an open start are gathered only
    once half of the rows held have none.
    """
    n = a.shape[1] - 1
    k = np.arange(n + 1)
    # g, g' and g'' as linear forms in the powers z^0 .. z^n
    forms = np.zeros((len(a), 1, n + 1, 3), dtype=complex)
    forms[:, 0, :, 0] = a
    forms[:, 0, :-1, 1] = a[:, 1:] * k[1:]
    forms[:, 0, :-2, 2] = a[:, 2:] * (k[2:] * (k[2:] - 1))
    tol = 4.0 * n * _EPS * np.abs(a).sum(axis=1)
    z = np.array(z, dtype=complex)
    # ``forms``, ``tol`` and ``open_`` hold the rows ``held``; a NaN start
    # is open for one step, which leaves it NaN and closes it
    held, open_ = np.arange(len(a)), np.ones(z.shape, dtype=bool)
    buf = np.empty((*z.shape, 1, n + 1), dtype=complex)
    buf[..., 0] = 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_ITER):
            zi = z[held]
            pw = buf[:held.size]  # its column 0 stays 1 under cumprod
            pw[..., 1:] = zi[..., None, None]
            g, d1, d2 = np.moveaxis(
                (np.cumprod(pw, axis=3, out=pw) @ forms)[:, :, 0], 2, 0)
            grad = d1 / g
            hess = grad * grad - d2 / g
            root = np.sqrt((n - 1) * (n * hess - grad * grad))
            plus, minus = grad + root, grad - root
            den = np.where(np.abs(plus) >= np.abs(minus), plus, minus)
            step = zi - n / den
            step = np.where(np.abs(step) > 1.0, 1.0 / np.conj(step), step)
            z[held] = np.where(open_, step, zi)
            open_ &= np.abs(g) > tol[:, None]
            live = open_.any(axis=1)
            if not live.any():
                break
            if 2 * np.count_nonzero(live) <= held.size:
                held, forms, tol, open_ = (held[live], forms[live], tol[live],
                                           open_[live])
    ok = np.isfinite(z)
    ok[held] &= ~open_
    return z, ok


def _certified(a: np.ndarray, best: np.ndarray):
    """Per row, whether an argument-principle count of the zeros inside
    |z| = r1 < |best| certifies ``best`` as the root closest to the unit
    circle, or proves that a closer root exists.

    The polynomial has P-1 zeros inside the unit circle, so ``best`` is
    the one closest to it exactly when P-2 zeros lie inside a circle just
    within it.  The polynomial is sampled on that circle by FFT, at the
    first power of two of at least 8n samples, with the phase of ``best``
    and its mirror taken out so that the count only has to resolve the
    other roots.  A count on an undersampled circle decides nothing, right
    or wrong, so every sample interval whose phase step exceeds
    ``_CERT_MAX_STEP`` is then bisected, and only those: the
    midpoints of all rows are evaluated together, round by round, until
    every step is resolved.  This is the adaptive argument-principle count
    of Ying & Katz (Numer. Math. 53, 1988).  An interval needs no finer
    split than ``_CERT_FLOOR / n``: a zero closer to the circle than that
    puts the samples beside it at rounding level, which the floor test
    catches.  Returns (certified, closer).  A row is certified when its
    count is right and resolved.  It is marked closer when its count is
    wrong, which a resolved count proves and an unresolved one suggests: a
    closer root is worth searching for.  A row with a sample at rounding
    level, or with ``best`` at 0 or not finite, is neither.
    """
    n = a.shape[1] - 1
    r1 = np.abs(best)[:, None] * (1.0 - _CERT_INSET)
    scaled = a * r1 ** np.arange(n + 1)
    floor = _CERT_FLOOR * np.abs(scaled).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the conjugates of best and its mirror on the circle, in w = z / r1
        conj_b = np.conj(best)[:, None] / r1
        conj_m = 1.0 / (best[:, None] * r1)
        k = _pow2_at_least(8 * n)
        # the pass's three (rows, k) arrays are one allocation, written in
        # place: with a fresh temporary for each step, every call freed
        # enough for the C heap to be trimmed and faulted back in, about
        # a tenth of an rmse-snr run at the paper array
        h, pair, nxt = np.empty((3, len(a), k), dtype=complex)
        # g(r1 w) / k at the k-th roots of unity w
        np.fft.ifft(scaled, k, axis=1, out=h)
        live = k * np.abs(h).min(axis=1) > floor
        # times conj((w - b)(w - m)) at the same w, with b = best / r1
        # and m its mirror: the phase of g over the pair
        conj_w = np.exp(-2j * np.pi / k * np.arange(k))
        np.subtract(conj_w, conj_b, out=pair)
        h *= np.multiply(pair, np.subtract(conj_w, conj_m, out=nxt), out=pair)
        # the phase step from each sample to the next
        nxt[:, :-1] = h[:, 1:]
        nxt[:, -1] = h[:, 0]
        steps = np.angle(np.multiply(nxt, np.conjugate(h, out=pair), out=nxt))
        turns = steps.sum(axis=1)
        # the intervals still too coarse: row, left phase, end values, step
        coarse = np.abs(steps) > _CERT_MAX_STEP
        rows = np.flatnonzero(live & coarse.any(axis=1))
        row, j = np.nonzero(coarse[rows])
        row = rows[row]
        width = 2.0 * np.pi / k
        left, step = width * j, steps[row, j]
        ends = h[row, j], h[row, (j + 1) % k]
        while row.size and width > _CERT_FLOOR / n:
            width /= 2.0
            mid = left + width
            # g(r1 w) at every midpoint w, from its powers w^0 .. w^n
            pw = np.empty((mid.size, n + 1), dtype=complex)
            pw[:, 0] = 1.0
            pw[:, 1:] = np.exp(1j * mid)[:, None]
            g = np.einsum("ij,ij->i", scaled[row], np.cumprod(pw, axis=1, out=pw))
            live[row[np.abs(g) <= floor[row]]] = False
            conj_w = np.conj(pw[:, 1])
            g *= (conj_w - conj_b[row, 0]) * (conj_w - conj_m[row, 0])
            # each interval becomes its two halves, left halves first
            halves = np.angle(g * ends[0].conj()), np.angle(ends[1] * g.conj())
            turns += np.bincount(row, halves[0] + halves[1] - step, len(a))
            row, left = np.concatenate((row, row)), np.concatenate((left, mid))
            step = np.concatenate(halves)
            ends = (np.concatenate((ends[0], g)), np.concatenate((g, ends[1])))
            # of which only the live rows' coarse ones are split again
            keep = live[row] & (np.abs(step) > _CERT_MAX_STEP)
            row, left, step = row[keep], left[keep], step[keep]
            ends = ends[0][keep], ends[1][keep]
    resolved = live.copy()
    resolved[row] = False
    right = np.rint(turns / (2.0 * np.pi)) == n // 2 - 1
    return resolved & right, live & ~right


def _certified_roots(coeffs: np.ndarray) -> np.ndarray:
    """Per row of ``coeffs`` (highest degree first), the single-source
    Root-MUSIC root without the companion matrix, or NaN.

    Three rounds of ``_round``, each on the rows left open before it.  The
    first starts Laguerre's iteration below the deepest minimum of each
    row's null spectrum.  On the rows whose certificate shows a closer
    root instead, the second starts from the ``_WAVE`` minima of smallest
    predicted distance ``sigma``, and the third, on those the wave leaves
    uncertified, from every local minimum (``_minima_starts``); both keep
    the first round's root as a lane, so a row keeps the same root
    whichever round found it.  A row is NaN when its leading coefficient
    is zero, its first start does not converge, a certificate sample of
    its first root sits at rounding level, or the third round is not
    certified either.
    """
    best = np.full(len(coeffs), np.nan, dtype=complex)
    rows = np.flatnonzero(coeffs[:, 0] != 0)
    a = coeffs[rows, ::-1]  # ascending: a[:, k] multiplies z^k
    phase, sigma = _spectrum_minima(a)
    j = sigma.argmin(axis=1)[:, None]
    first, (done, closer) = _round(
        a, np.exp(-np.take_along_axis(sigma, j, axis=1)
                  + 1j * np.take_along_axis(phase, j, axis=1)),
        np.full(len(a), np.nan, dtype=complex))
    best[rows[done]] = first[done]
    again = np.flatnonzero(closer)
    for width in (_WAVE, sigma.shape[1]):
        if again.size == 0:
            break
        kept, (done, _) = _round(
            a[again], _minima_starts(phase[again], sigma[again], width),
            first[again])
        best[rows[again[done]]] = kept[done]
        again = again[~done]
    return best


def _round(a, starts, first):
    """One round of the search on the rows of ``a``: Laguerre's iteration
    from ``starts`` (rows, lanes), then, of its converged roots and
    ``first``, the one closest to the circle, with ``_certified``'s
    verdict on it.  ``first`` is the last lane, so that ties of
    ``_closest_first`` go to the lanes in column order, then to it; a NaN
    ``first`` is no root.  Returns the root and (certified, closer)."""
    found, ok = _laguerre(a, starts)
    z = np.column_stack((np.where(ok, found, np.nan), first))
    kept = np.take_along_axis(z, _closest_first(z)[:, :1], axis=1)[:, 0]
    return kept, _certified(a, kept)


def _minima_starts(phase, sigma, width):
    """Per row, a start just inside the circle, at ``_RESTART_RADIUS``,
    at the phase of each of its ``width`` finite minima of smallest
    predicted distance ``sigma`` (ties to the lower column), in column
    order; a row with fewer finite minima than the widest row has NaN
    lanes, no start."""
    lanes = min(width, np.isfinite(sigma).sum(axis=1).max(initial=0))
    cols = np.sort(np.argsort(sigma, axis=1, kind="stable")[:, :lanes], axis=1)
    starts = _RESTART_RADIUS * np.exp(1j * np.take_along_axis(phase, cols, axis=1))
    starts[~np.isfinite(np.take_along_axis(sigma, cols, axis=1))] = np.nan
    return starts


def _direction_sines(roots, spacing: float):
    phases = np.angle(roots)
    # keep the interval half-open
    phases = np.where(phases >= np.pi, -np.pi, phases)
    return phases / (2.0 * np.pi * spacing)


def root_music(cov: CovarianceEstimate, *, spacing: float = 0.5) -> float:
    """One-source Root-MUSIC direction-sine, reduced to the principal
    interval.

    Keeps the root of the degree-2(P-1) noise-subspace polynomial that lies
    inside the unit circle closest to it (ties go to the smaller |phase|),
    and maps its phase phi to ``u = phi / (2 pi spacing)`` in
    [-1/(2 spacing), 1/(2 spacing)).

    The roots are the companion-matrix eigenvalues (``np.roots``) at
    every channel count.  This is the reference that the certified search
    of ``root_music_rows`` is checked against.

    With ``spacing > 0.5`` the result is ambiguous by construction; callers
    expand it to a candidate set.
    """
    if cov.dim < 2:
        raise ValueError("Root-MUSIC needs at least two channels")
    if not spacing > 0:
        raise ValueError("spacing must be positive")
    return float(_direction_sines(_companion_roots(root_music_polynomial(cov)),
                                  spacing))


def signal_vectors(samples: np.ndarray) -> np.ndarray:
    """The principal eigenvector of each sample covariance of a stack of
    channels x snapshots arrays (B, P, T), as rows (B, P).

    With one snapshot the covariance x x^H has rank one and its
    eigenvector is x / |x|, so no covariance is formed; an all-zero
    snapshot gets the last unit vector, which ``eigh`` returns for a zero
    covariance.  Otherwise the covariances of ``sample_covariance`` go
    through ``_principal_vectors``, which agrees with ``eigh`` to 1e-13 in
    angle on the rows it certifies and returns ``eigh``'s bytes on the
    rest.  The phase of each vector is arbitrary.
    """
    x = np.asarray(samples, dtype=np.complex128)
    if x.ndim != 3 or x.shape[2] < 1:
        raise ValueError("need a trials x channels x snapshots array")
    if x.shape[2] == 1:
        norm = np.linalg.norm(x[:, :, 0], axis=1, keepdims=True)
        v = x[:, :, 0] / np.where(norm > 0.0, norm, 1.0)
        v[norm[:, 0] == 0.0, -1] = 1.0
        return v
    return _principal_vectors(_covariances(x))


# a row is accepted once its residual certifies sin(v, e) <= _POWER_TOL
_POWER_TOL = 1e-13
# iterations before a row falls back to ``eigh``.  At P = 32, T = 50, on
# 100 trials x 9 stacks (unquantized and 1-8 bits) per SNR: every 0 dB row
# certified after 10-14 iterations and every 10 dB row after 6-12; at
# -5 dB 896 of 900 certified after 15-28, the other 4 stopped at the
# first; at -10 dB every row stopped at the first
_POWER_MAX_ITER = 30
# the squared Frobenius norms of the rows that iterate: far enough from
# underflow and overflow that no norm or residual of the iteration leaves
# the normal range
_F_RANGE = (2.0 ** -800, 2.0 ** 1000)


def _principal_vectors(r: np.ndarray) -> np.ndarray:
    """The principal eigenvector of each Hermitian positive semidefinite
    matrix of a stack (B, P, P), as rows (B, P): a certified power
    iteration, and ``eigh`` for the rows it does not certify.

    Each row starts from the column of its largest diagonal entry.  With v
    the unit iterate, mu = v^H R v, r = |R v - mu v| and F = |R|_F^2, some
    eigenvalue lies within r of mu, so at least lo = mu - r, and the
    squares of the others sum to at most F - lo^2.  When
    g = lo - sqrt(F - lo^2) > 0 that eigenvalue is therefore the largest,
    the others lie at least g below mu, and the sine of the angle between
    v and its eigenvector is at most r / g (Davis & Kahan, SIAM J. Numer.
    Anal. 7, 1970).  A row is accepted once r <= ``_POWER_TOL`` g.  The
    next iterate is (R - s) v, normalised, with s = (trace R - mu) / (P - 1)
    the mean of the other eigenvalues, which speeds the iteration up when
    they spread around their mean, as noise eigenvalues do: at P = 32,
    T = 50 and 0 dB a row took 11.4 iterations on average, 13.1 unshifted.

    A row goes to one stacked ``eigh`` of all such rows, which gives the
    bytes of ``eigh`` on the whole stack, when F is zero, tiny or
    overflows, when (R - s) v is zero or not finite, when it is still
    open after ``_POWER_MAX_ITER`` iterations, and when 2 (mu + r)^2 < F:
    were the eigenvalue near mu the largest, no smaller residual would
    certify it, which is the low-SNR case.

    The rows ``held`` iterate under one mask ``open_``, and are gathered
    by it only once half of them have finished, as ``_laguerre`` gathers
    its forms; until then finished rows are multiplied too, and their
    products dropped.  A certified row's unit iterate is finite, so the
    rows of ``out`` still NaN at the end are those ``eigh`` gets.  Every
    step is a product or a sum within one row, so a row's bytes do not
    depend on which rows share its stack.
    """
    b, p = r.shape[:2]
    flat = r.reshape(b, p * p)
    with np.errstate(over="ignore", invalid="ignore"):
        f = np.vecdot(flat, flat).real
    held = np.flatnonzero((f > _F_RANGE[0]) & (f < _F_RANGE[1]))
    out = np.full((b, p), np.nan, dtype=complex)
    mats, f = (r, f) if held.size == b else (r[held], f[held])
    diag = mats.diagonal(axis1=1, axis2=2).real
    trace = diag.sum(axis=1)
    v = mats[np.arange(held.size), :, diag.argmax(axis=1)]
    v /= np.sqrt(np.vecdot(v, v).real)[:, None]
    open_ = np.ones(held.size, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(_POWER_MAX_ITER):
            if not open_.any():
                break
            w = np.matmul(mats, v[:, :, None])[:, :, 0]
            mu = np.vecdot(v, w).real
            res = w - mu[:, None] * v
            rn = np.sqrt(np.vecdot(res, res).real)
            lo = mu - rn
            gap = lo - np.sqrt(np.maximum(f - lo * lo, 0.0))
            done = open_ & (gap > 0.0) & (rn <= _POWER_TOL * gap)
            out[held[done]] = v[done]
            w -= ((trace - mu) / max(p - 1, 1))[:, None] * v
            norm = np.sqrt(np.vecdot(w, w).real)
            open_ &= ~done & (2.0 * (mu + rn) ** 2 >= f) & (norm > 0.0) \
                & (norm < np.inf)
            v = w / norm[:, None]
            if 2 * np.count_nonzero(open_) <= held.size:
                held, mats, f, trace, v, open_ = (
                    held[open_], mats[open_], f[open_], trace[open_], v[open_],
                    open_[open_])
    rest = np.flatnonzero(np.isnan(out[:, 0]))
    if rest.size:
        mats = r if rest.size == b else r[rest]
        out[rest] = np.linalg.eigh(mats)[1][:, :, -1]
    return out


def root_music_rows(vectors: np.ndarray, spacing: float = 0.5) -> np.ndarray:
    """One-source Root-MUSIC direction-sines of a stack of trials.

    Row b of ``vectors`` (B, P) is the signal eigenvector of trial b's
    covariance (``signal_vectors``); the result is the B direction-sines
    that ``root_music(cov_b, spacing=spacing)`` returns, to rounding.  The
    rows go through the certified search together, whatever P, in chunks
    of ``_search_rows(P)`` rows that bound its memory, and only the rows
    it leaves uncertified (``_certified_roots``: a zero leading
    coefficient, a start that does not converge, a certificate sample at
    rounding level) are rooted one at a time through the companion
    matrix.  Each row's arithmetic depends on that row alone,
    so the result does not depend on which rows share the stack.
    """
    v = np.asarray(vectors, dtype=np.complex128)
    if v.ndim != 2 or v.shape[1] < 2:
        raise ValueError("need a trials x channels array with >= 2 channels")
    if not spacing > 0:
        raise ValueError("spacing must be positive")
    if len(v) == 0:
        return np.empty(0)
    coeffs = _null_polynomials(v)
    step = _search_rows(v.shape[1])
    z = np.concatenate([_certified_roots(coeffs[i:i + step])
                        for i in range(0, len(coeffs), step)])
    for i in np.flatnonzero(np.isnan(z)):
        z[i] = _companion_roots(coeffs[i])
    return _direction_sines(z, spacing)
