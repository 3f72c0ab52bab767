"""Elementary symmetric functions of Hessian spectra and derived constants.

The k-Hessian operator of a C^2 function is the k-th elementary
symmetric function of the Hessian eigenvalues.  This module holds the
spectral kernels (stable elementary symmetric evaluation, Maclaurin
means); S_1 .. S_n of a symmetric matrix, or of each matrix in a
stack, by two independent routes, its spectrum and its principal
minors, each symmetrizing the matrix once; and the dimensional
constants every other module needs: the unit ball volume, the sharp
exponential coefficient, its exponent ceiling in the intermediate case
2k = n, and the mass quantum separating regular from singular points.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import InvalidArgumentError, UnsupportedDimensionError

__all__ = [
    "HessianDim",
    "unit_ball_volume",
    "elem_sym_all",
    "s_k_all_of_matrix",
    "principal_minor_sums",
    "maclaurin_means",
]


def _finite_real(x) -> bool:
    """The one test for a finite real scalar argument: an int or a float,
    numpy's included, finite, and neither a bool nor a string (which
    would otherwise fail a range check with a bare TypeError)."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


@lru_cache(maxsize=None)
def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n, from the exact closed form.

    Even n = 2m gives pi^m / m!, odd n = 2m+1 gives
    2 m! (4 pi)^m / (2m+1)!; both avoid the gamma function so the
    values are exact products of floats.  From n = 171 on, the odd
    form's (2m+1)! no longer fits in a float, so n <= 170.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidArgumentError(f"ball volume needs an integer n >= 1, got {n!r}")
    if n > 170:
        raise UnsupportedDimensionError(f"dimension n must be at most 170, got {int(n)}")
    m, rem = divmod(int(n), 2)
    if rem == 0:
        return math.pi**m / math.factorial(m)
    return 2.0 * math.factorial(m) * (4.0 * math.pi) ** m / math.factorial(2 * m + 1)


@dataclass(frozen=True)
class HessianDim:
    """Ambient dimension n and Hessian order k with 1 <= k <= n.

    The regime splits on the sign of n - 2k: subcritical (2k < n),
    intermediate (2k = n, the borderline exponential regime), and
    supercritical (2k > n, allowed for profile bookkeeping only).  The
    rules on the regime and on the inner exponent beta live here; the
    bound n <= 170 is unit_ball_volume's.
    """

    n: int
    k: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise UnsupportedDimensionError(f"dimension n must be a positive integer, got {self.n!r}")
        if not isinstance(self.k, (int, np.integer)) or not 1 <= self.k <= self.n:
            raise UnsupportedDimensionError(
                f"order k must satisfy 1 <= k <= n = {self.n}, got {self.k!r}"
            )
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "k", int(self.k))
        unit_ball_volume(self.n)

    @property
    def ball_volume(self) -> float:
        return unit_ball_volume(self.n)

    @property
    def n_choose_k(self) -> int:
        return math.comb(self.n, self.k)

    @property
    def is_intermediate(self) -> bool:
        return 2 * self.k == self.n

    @property
    def is_subcritical(self) -> bool:
        return 2 * self.k < self.n

    @property
    def moser_constant(self) -> float:
        """Sharp coefficient n * (omega_n * C(n,k))^(2/n) of the
        exponential integrability bound."""
        return self.n * (self.ball_volume * self.n_choose_k) ** (2.0 / self.n)

    def require_intermediate(self, what: str) -> None:
        """Raise UnsupportedDimensionError naming `what` unless 2k = n."""
        if not self.is_intermediate:
            raise UnsupportedDimensionError(f"{what} needs 2k = n, got (n, k) = ({self.n}, {self.k})")

    def require_subcritical(self, what: str) -> None:
        """Raise UnsupportedDimensionError naming `what` unless 2k < n."""
        if not self.is_subcritical:
            raise UnsupportedDimensionError(f"{what} needs 2k < n, got (n, k) = ({self.n}, {self.k})")

    @property
    def beta_max(self) -> float:
        """Largest admissible inner exponent (n+2)/n; only the
        intermediate regime 2k = n has an exponential endpoint."""
        self.require_intermediate("the exponent ceiling")
        return (self.n + 2.0) / self.n

    def check_beta(self, beta: float) -> None:
        """The one rule on an inner exponent: finite, and
        1 <= beta <= beta_max + 1e-12."""
        beta_max = self.beta_max
        if not _finite_real(beta) or not 1.0 <= beta <= beta_max + 1e-12:
            raise InvalidArgumentError(f"beta must lie in [1, {beta_max}], got {beta!r}")

    def at_ceiling(self, beta: float) -> bool:
        """Whether beta is the exponent ceiling, within 1e-12."""
        return abs(beta - self.beta_max) <= 1e-12

    @property
    def power_exponent(self) -> float:
        """Exponent m = (n - 2k)/k of the point-mass profile -c r^(-m)."""
        return (self.n - 2.0 * self.k) / self.k

    def concentration_quantum(self, p_prime: float = 1.0) -> float:
        """Mass threshold (moser_constant / p')^k below which a point
        concentration stays regular."""
        if not np.isfinite(p_prime) or p_prime < 1.0:
            raise InvalidArgumentError(f"conjugate exponent p' must be >= 1, got {p_prime!r}")
        return (self.moser_constant / p_prime) ** self.k

    def lp_endpoint(self) -> float:
        """Endpoint integrability exponent k n / (n - 2k) of the
        subcritical regime."""
        self.require_subcritical("the strong integrability endpoint")
        return self.k * self.n / (self.n - 2.0 * self.k)

    def check_p(self, p: float) -> None:
        """The one rule on an integrability exponent: finite, and
        1 <= p <= lp_endpoint (1 + 1e-12); nothing is claimed past the
        endpoint."""
        endpoint = self.lp_endpoint()
        if not _finite_real(p) or not 1.0 <= p <= endpoint * (1.0 + 1e-12):
            raise InvalidArgumentError(f"p must lie in [1, endpoint {endpoint}], got {p!r}")


def _as_spectrum(eigs) -> np.ndarray:
    arr = np.asarray(eigs, dtype=float)
    if arr.ndim == 0 or arr.size == 0:
        raise InvalidArgumentError("spectrum must be a nonempty array (..., n) of eigenvalues")
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError("spectrum entries must be finite")
    return arr


def elem_sym_all(eigs) -> np.ndarray:
    """All elementary symmetric functions e_0 .. e_n of a spectrum, or
    of each spectrum in a stack (..., n); the result is (..., n + 1).

    Builds the coefficients of prod_i (t + lambda_i) by the standard
    one-eigenvalue-at-a-time recurrence, which is numerically stable
    for the moderate n used here.  A stack runs the same recurrence
    elementwise, so each spectrum gets the floats it would get alone.
    """
    lam = _as_spectrum(eigs)
    e = np.zeros(lam.shape[:-1] + (lam.shape[-1] + 1,))
    e[..., 0] = 1.0
    for x in np.moveaxis(lam, -1, 0):
        # the RHS snapshots the previous coefficients before the update
        e[..., 1:] += x[..., None] * e[..., :-1].copy()
    return e


def _check_symmetric(mat) -> np.ndarray:
    """mat, an n x n matrix or a stack (..., n, n) of them, symmetrized
    after checking in turn its shape and its entries: finite, then
    each matrix symmetric against its own largest entry."""
    m = np.asarray(mat, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.size == 0:
        raise InvalidArgumentError("matrix must be square and nonempty")
    # before the symmetry test, which inf - inf = NaN would pass
    if not np.isfinite(m).all():
        raise InvalidArgumentError("matrix entries must be finite")
    m_t = np.swapaxes(m, -1, -2)
    scale = np.max(np.abs(m), axis=(-2, -1))
    scale = np.where(scale == 0.0, 1.0, scale)
    if np.any(np.max(np.abs(m - m_t), axis=(-2, -1)) > 1e-12 * scale):
        raise InvalidArgumentError("matrix is not symmetric within tolerance")
    return 0.5 * (m + m_t)


def s_k_all_of_matrix(mat) -> np.ndarray:
    """S_1 .. S_n of a symmetric n x n matrix via its eigenvalue spectrum,
    or of each matrix in a stack (..., n, n), giving (..., n).

    One symmetrization, one eigvalsh and one elem_sym_all serve every
    order; entry k - 1 is S_k.
    """
    return elem_sym_all(np.linalg.eigvalsh(_check_symmetric(mat)))[..., 1:]


def _minor_sum(m: np.ndarray, k: int) -> np.ndarray:
    # the k x k principal minors of each symmetrized matrix in m, summed
    # in combination order, one matrix per entry of the result
    idx = np.array(list(combinations(range(m.shape[-1]), k)))
    total = np.zeros(m.shape[:-2])
    for det in np.moveaxis(np.linalg.det(m[..., idx[:, :, None], idx[:, None, :]]), -1, 0):
        total += det
    return total


def principal_minor_sums(mat) -> np.ndarray:
    """S_1 .. S_n of a symmetric n x n matrix as sums of principal minors,
    or of each matrix in a stack (..., n, n), giving (..., n).

    One symmetrization serves every order; entry k - 1 is the sum of
    the k x k principal minors, added one at a time in the order of
    itertools.combinations, so a matrix in a stack gets the floats it
    would get alone.  Independent of the eigenvalue route; the sym
    suite runs both and compares, one stack per matrix size.  Cost
    grows as 2^n, fine for n <= 8.
    """
    m = _check_symmetric(mat)
    return np.stack([_minor_sum(m, k) for k in range(1, m.shape[-1] + 1)], axis=-1)


def maclaurin_means(eigs, k: int) -> np.ndarray:
    """Normalized means (e_j / C(n,j))^(1/j) for j = 1 .. k.

    On the admissible cone of order k these are nonincreasing in j;
    no suite calls this, the tests check that chain.
    """
    lam = _as_spectrum(eigs)
    if lam.ndim != 1:
        raise InvalidArgumentError("Maclaurin means take one spectrum, a 1-d array")
    n = lam.size
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= n:
        raise InvalidArgumentError(f"order k must satisfy 1 <= k <= {n}, got {k!r}")
    k = int(k)
    e = elem_sym_all(lam)
    means = np.empty(k)
    for j in range(1, k + 1):
        normalized = e[j] / math.comb(n, j)
        if normalized < 0:
            means[j - 1] = math.nan
        else:
            means[j - 1] = normalized ** (1.0 / j)
    return means
