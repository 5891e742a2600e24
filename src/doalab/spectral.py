"""Sample covariance, Hermitian eigendecomposition, and Root-MUSIC."""

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


def sample_covariance(samples) -> CovarianceEstimate:
    """R_hat = (1/L) sum_t x(t) x(t)^H with eigendecomposition attached.

    Accepts a SnapshotBatch or a plain channels x snapshots array.
    """
    x = np.asarray(getattr(samples, "samples", samples), dtype=np.complex128)
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError("need a channels x snapshots array with >= 1 snapshot")
    r = x @ x.conj().T / x.shape[1]
    r = (r + r.conj().T) / 2.0  # enforce exact Hermitian symmetry
    w, v = np.linalg.eigh(r)  # ascending
    return CovarianceEstimate(r, w[::-1], v[:, ::-1])


def root_music_polynomial(cov: CovarianceEstimate, n_sources: int) -> np.ndarray:
    """Coefficients (highest degree first) of z^(P-1) * a(1/z)^H C a(z), with
    C = I - E_s E_s^H the projector onto the noise subspace.

    The coefficient of z^l is the sum of the l-th superdiagonal of C:
    P delta_l minus the lag-l autocorrelation sum_i e[i] conj(e[i+l]) of
    each signal eigenvector e.  The subdiagonal sums are taken as the
    conjugates of the superdiagonal ones, since C is Hermitian; the
    polynomial is then exactly self-reciprocal and real on the unit circle.
    """
    p = cov.dim
    # np.correlate(e, e, "full")[k] is the autocorrelation at lag P-1-k
    upper = -sum(np.correlate(e, e, "full")[:p]
                 for e in cov.eigenvectors[:, :n_sources].T)
    upper[-1] += p
    return np.concatenate((upper[:-1], [upper[-1].real], np.conj(upper[-2::-1])))


# From this channel count up, the one-source root comes from the certified
# search (``_certified_root``).  Per call on one-snapshot covariances (one
# BLAS thread, 2.1 GHz Xeon) the two paths tie near P = 12 at about 0.37 ms;
# the companion eigensolve takes 0.15 ms at P = 8 and 0.55 ms at P = 14,
# the search about 0.33 ms at both.
CERTIFIED_MIN_DIM = 13
_MAX_ITER = 40
# rounds of ring starts after the start at the deepest spectral minimum
_RING_ROUNDS = 3
# the certificate circle sits this fraction inside the chosen root
_CERT_INSET = 1e-6
# largest phase step between certificate samples that counts as resolved
_CERT_MAX_STEP = np.pi / 4
_CERT_MAX_SAMPLES_PER_DEGREE = 512
_EPS = np.finfo(float).eps


def _companion_roots(coeffs: np.ndarray, n_sources: int) -> np.ndarray:
    """The ``n_sources`` roots inside the unit circle closest to it, from
    the companion-matrix eigenvalues (``np.roots``), at most one from each
    mirror pair (z, 1/conj(z)): rounding can split the double root that
    noiseless data put on the circle into both halves of one pair, each
    within the 1e-9 tolerance, and both would be the same direction.
    """
    roots = np.roots(coeffs)
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = np.abs(roots - 1.0 / np.conj(roots)[:, None])
    np.fill_diagonal(gap, np.inf)
    partner = np.argmin(gap, axis=1)  # the root nearest each mirror image
    inside = np.flatnonzero(np.abs(roots) <= 1.0 + 1e-9)
    chosen = []
    for i in inside[_closest_first(roots[inside])]:
        if len(chosen) < n_sources and i not in partner[chosen]:
            chosen.append(i)
    if len(chosen) < n_sources:
        raise EstimationError(
            f"only {len(chosen)} unit-circle roots for {n_sources} sources"
        )
    return roots[chosen]


def _closest_first(z: np.ndarray) -> np.ndarray:
    """Order closest to the unit circle first; ties go to smaller |phase|."""
    return np.lexsort((np.abs(np.angle(z)), -np.abs(z)))


def _pow2_at_least(n: int) -> int:
    return 1 << (int(n) - 1).bit_length()


def _deepest_minimum_start(a: np.ndarray):
    """A start for the root below the deepest minimum of the null spectrum.

    The spectrum d(w) is sampled on an FFT grid.  A parabola through each
    local minimum and its two neighbours gives the depth d0 and curvature
    d2 there, and the quadratic model of d(w + i s) puts a root at
    s = sqrt(2 d0 / d2) inside the circle.  The minimum with the smallest
    such s wins.
    """
    p = (len(a) + 1) // 2
    m = _pow2_at_least(8 * p)
    # d(w_j) = sum_l c_l e^{i l w_j}, c_{-l} = conj(c_l), c_l = a[p - 1 + l]
    d = m * np.fft.irfft(a[p - 1:], m)
    left = np.concatenate((d[-1:], d[:-1]))
    right = np.concatenate((d[1:], d[:1]))
    j = np.flatnonzero((d < left) & (d <= right))
    curv = left[j] - 2.0 * d[j] + right[j]
    curv = np.where(curv > 0.0, curv, np.inf)
    depth = d[j] - 0.125 * (right[j] - left[j]) ** 2 / curv
    sigma = np.sqrt(np.maximum(2.0 * depth / curv, 0.0))
    i = int(np.argmin(sigma))
    shift = 0.5 * (left[j[i]] - right[j[i]]) / curv[i]
    step = 2.0 * np.pi / m
    return np.exp(step * (-sigma[i] + 1j * (j[i] + shift)))


def _laguerre(a: np.ndarray, z: np.ndarray):
    """Laguerre's iteration (Newton's with a second-order correction) from
    every start at once.

    Roots pair up as (z, 1/conj(z)), so every iterate is mirrored into the
    closed unit disk, where sum |a_k| bounds the terms of g.  A start has
    converged once |g| is at rounding level against that bound; the step
    taken from there polishes the root.  Returns the roots, or None when a
    start does not converge.
    """
    n = len(a) - 1
    k = np.arange(n + 1)
    # g, g' and g'' as linear forms in the powers z^0 .. z^n
    forms = np.zeros((n + 1, 3), dtype=complex)
    forms[:, 0] = a
    forms[:-1, 1] = a[1:] * k[1:]
    forms[:-2, 2] = a[2:] * (k[2:] * (k[2:] - 1))
    tol = 4.0 * n * _EPS * np.sum(np.abs(a))
    z = np.array(z, dtype=complex, ndmin=1)
    active = np.arange(z.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_ITER):
            zi = z[active]
            pw = np.empty((zi.size, n + 1), dtype=complex)
            pw[:, 0] = 1.0
            pw[:, 1:] = zi[:, None]
            g, d1, d2 = (np.cumprod(pw, axis=1, out=pw) @ forms).T
            grad = d1 / g
            hess = grad * grad - d2 / g
            root = np.sqrt((n - 1) * (n * hess - grad * grad))
            den = np.where(np.abs(grad + root) >= np.abs(grad - root),
                           grad + root, grad - root)
            step = zi - n / den
            z[active] = np.where(np.abs(step) > 1.0, 1.0 / np.conj(step), step)
            active = active[np.abs(g) > tol]
            if active.size == 0:
                break
    if active.size or not np.all(np.isfinite(z)):
        return None
    return z


def _certified(a: np.ndarray, best: complex) -> bool:
    """Argument-principle count of the zeros inside |z| = r1 < |best|.

    The polynomial has P-1 zeros inside the unit circle, so ``best`` is
    the one closest to it exactly when P-2 zeros lie inside a circle just
    within it.  The polynomial is sampled on that circle by FFT, with
    ``best`` and its mirror divided out so that the count only has to
    resolve the other roots.  A wrong count fails at once.  A right count
    is refined fourfold while a phase step exceeds ``_CERT_MAX_STEP``; a
    circle still undersampled at ``_CERT_MAX_SAMPLES_PER_DEGREE`` per
    degree, or a sample at rounding level, fails the certificate.
    """
    n = len(a) - 1
    r1 = abs(best) * (1.0 - _CERT_INSET)
    if not r1 > 0.0:
        return False
    scaled = a * r1 ** np.arange(n + 1)
    floor = 1e3 * _EPS * np.sum(np.abs(scaled))
    # (z - best)(z - mirror) on the same circle, as a polynomial in w = z / r1
    b, m = best / r1, 1.0 / (np.conj(best) * r1)
    pair = np.array([b * m, -(b + m), 1.0])
    k = _pow2_at_least(16 * n)
    while k <= _CERT_MAX_SAMPLES_PER_DEGREE * n:
        h = np.fft.ifft(scaled, k)  # g(r1 w) / k at the k-th roots of unity
        if k * np.min(np.abs(h)) <= floor:
            return False
        h /= np.fft.ifft(pair, k)
        ratio = np.roll(h, -1)
        ratio /= h
        steps = np.angle(ratio)
        count = round(float(np.sum(steps)) / (2.0 * np.pi))
        # a wrong count fails at once, resolved or not; only a right
        # count on an undersampled circle is worth refining
        if count != n // 2 - 1 or np.max(np.abs(steps)) <= _CERT_MAX_STEP:
            return count == n // 2 - 1
        k *= 4
    return False


def _certified_root(coeffs: np.ndarray):
    """The single-source Root-MUSIC root without the companion matrix.

    Laguerre's iteration runs from the start below the deepest minimum of
    the null spectrum; a root outside the unit circle is mirrored to
    1/conj(z).  The root is returned only under the certificate that no
    other root lies as close to the circle (``_certified``).  Otherwise
    any closer root lies between the best root so far and the unit
    circle, so up to ``_RING_ROUNDS`` rounds start from a ring of 2(P-1)
    points halfway across that annulus, and the closest root found is
    certified again.  Returns None when a start does not converge or no
    round is certified.
    """
    a = coeffs[::-1]  # ascending: a[k] multiplies z^k
    n = len(a) - 1
    if a[-1] == 0:
        return None
    starts, best = _deepest_minimum_start(a), None
    for _ in range(_RING_ROUNDS + 1):
        found = _laguerre(a, starts)
        if found is None:
            return None
        if best is not None:
            found = np.append(found, best)
        best = found[_closest_first(found)[0]]
        if _certified(a, best):
            return best
        starts = (0.5 * (1.0 + abs(best))
                  * np.exp(2j * np.pi * (np.arange(n) + 0.5) / n))
    return None


def root_music(cov: CovarianceEstimate, n_sources: int, spacing: float = 0.5):
    """Root-MUSIC direction-sines, reduced to the principal interval.

    Keeps the ``n_sources`` roots of the degree-2(P-1) noise-subspace
    polynomial that lie inside the unit circle closest to it (ties go to
    the smaller |phase|), and maps each root phase phi to
    ``u = phi / (2 pi spacing)`` in [-1/(2 spacing), 1/(2 spacing)).

    For one source with ``P >= CERTIFIED_MIN_DIM`` channels the root
    comes from a Newton-type search seeded at the deepest minimum of the
    null spectrum, and is accepted only under an argument-principle
    certificate that no other root lies closer to the circle (see
    ``_certified_root``).  Every other case, and any uncertified search,
    roots the polynomial through the companion-matrix eigenvalues
    (``np.roots``).  The two paths agree to rounding: |du| <= 1e-12 over
    the seeded corpus of the tests.

    With ``spacing > 0.5`` the result is ambiguous by construction; callers
    expand it to a candidate set.
    """
    if n_sources >= cov.dim:
        raise ValueError("n_sources must be smaller than the channel count")
    if not spacing > 0:
        raise ValueError("spacing must be positive")
    coeffs = root_music_polynomial(cov, n_sources)
    chosen = None
    if n_sources == 1 and cov.dim >= CERTIFIED_MIN_DIM:
        best = _certified_root(coeffs)
        if best is not None:
            chosen = np.array([best])
    if chosen is None:
        chosen = _companion_roots(coeffs, n_sources)
    phases = np.angle(chosen)
    phases[phases >= np.pi] = -np.pi  # keep the interval half-open
    u = phases / (2.0 * np.pi * spacing)
    return np.sort(u)


def music_spectrum_grid(cov: CovarianceEstimate, n_sources: int,
                        spacing: float = 0.5, n_grid: int = 1 << 20):
    """Grid evaluation of the MUSIC null spectrum a^H C a via FFT.

    Returns (u_grid, d) where d[j] = a(u_j)^H C a(u_j) >= 0; minima mark
    source directions.  Serves as the independent oracle for root_music.
    """
    p = cov.dim
    a = np.zeros(n_grid, dtype=np.complex128)
    np.add.at(a, np.arange(p - 1, -p, -1) % n_grid,
              root_music_polynomial(cov, n_sources))
    # d_j = sum_l c_l exp(i l 2 pi j / n) = n * ifft(a)[j]
    d = np.real(n_grid * np.fft.ifft(a))
    omega = 2.0 * np.pi * np.arange(n_grid) / n_grid
    omega[omega >= np.pi] -= 2.0 * np.pi
    u = omega / (2.0 * np.pi * spacing)
    order = np.argsort(u)
    return u[order], d[order]
