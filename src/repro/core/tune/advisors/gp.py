"""A from-scratch Gaussian-process regressor for Bayesian optimisation.

Squared-exponential (RBF) kernel with observation noise; hyper-priors
are fixed (length scale, signal variance) rather than marginal-
likelihood optimised, which is plenty for the low-dimensional knob
spaces of Section 7.1 and keeps the implementation dependency-free
beyond ``numpy``/``scipy``.

The kernel builds the (m, n) squared distance from
``scipy.spatial.distance.cdist(..., "sqeuclidean")`` calls over column
groups that add the d columns in the order ``.sum(axis=-1)`` does (NumPy's
pairwise summation: a running sum below 8 terms, eight interleaved
accumulators combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and then
the remainder up to 128, halves above that). ``cdist`` adds ``|x-y|^2``
left to right from 0.0, so every entry is byte-identical to the broadcast
``((a[:, None] - b[None]) ** 2).sum(-1)``; any other order would round
some entries, and with them which candidate wins, differently.

``fit`` keeps the inverse Cholesky factor, so ``predict``'s variance is one
triangular product, in scipy's BLAS: NumPy has an OpenBLAS of its own, and
the two libraries' spinning threads get in each other's way.

scipy is imported inside the functions that call it, so importing the
advisors (and with them ``repro.core.system``) loads none of it.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["GaussianProcess", "expected_improvement"]

#: Above this many terms NumPy's pairwise sum splits in halves.
_PAIRWISE_BLOCK = 128
#: EI's exploration margin (``xi``): improvement smaller than this counts as none.
_EI_MARGIN = 0.01


def _sq_dist(a: np.ndarray, b: np.ndarray, lo: int, count: int) -> np.ndarray:
    """Coordinates ``lo .. lo+count`` of the squared distance, summed in
    NumPy's pairwise order."""
    from scipy.spatial.distance import cdist

    if count > _PAIRWISE_BLOCK:
        half = count // 2
        half -= half % 8
        total = _sq_dist(a, b, lo, half)
        total += _sq_dist(a, b, lo + half, count - half)
        return total
    if count < 8:
        return cdist(a[:, lo:lo + count], b[:, lo:lo + count], "sqeuclidean")
    end = lo + count - count % 8
    r = [cdist(a[:, lo + j:end:8], b[:, lo + j:end:8], "sqeuclidean") for j in range(8)]
    for left, right in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
        r[left] += r[right]
    for k in range(end, lo + count):
        r[0] += cdist(a[:, k:k + 1], b[:, k:k + 1], "sqeuclidean")
    return r[0]


def _rbf(a: np.ndarray, b: np.ndarray, length_scale: float, signal_var: float) -> np.ndarray:
    kernel = _sq_dist(a, b, 0, a.shape[1])
    kernel *= -0.5
    kernel /= length_scale**2
    np.exp(kernel, out=kernel)
    kernel *= signal_var
    return kernel


class GaussianProcess:
    """GP regression over the unit hypercube."""

    def __init__(self, length_scale: float = 0.2, signal_var: float = 1.0,
                 noise_var: float = 1e-4):
        if length_scale <= 0 or signal_var <= 0 or noise_var < 0:
            raise ConfigurationError("GP hyper-parameters must be positive")
        self.length_scale = float(length_scale)
        self.signal_var = float(signal_var)
        self.noise_var = float(noise_var)
        self._x: np.ndarray | None = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._cho = None
        self._alpha: np.ndarray | None = None
        self._l_inv: np.ndarray | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        """Fit on observations (x in [0,1]^d, y arbitrary scale)."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64).ravel()
        if x.shape[0] != y.shape[0]:
            raise ConfigurationError(f"x/y length mismatch: {x.shape[0]} vs {y.shape[0]}")
        if x.shape[0] == 0:
            raise ConfigurationError("cannot fit a GP on zero observations")
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        y_norm = (y - self._y_mean) / self._y_std
        from scipy.linalg import cho_factor, cho_solve, lapack

        self._x = x
        k = _rbf(x, x, self.length_scale, self.signal_var)
        k[np.diag_indices_from(k)] += self.noise_var
        self._cho = cho_factor(k, lower=True)
        self._alpha = cho_solve(self._cho, y_norm)
        # ``cho_factor`` leaves K above the diagonal and ``dtrtri`` copies
        # that triangle through, so it inverts a clean lower factor.
        self._l_inv, _ = lapack.dtrtri(np.tril(self._cho[0]), lower=1)
        return self

    def predict(self, x_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at ``x_new``."""
        if self._l_inv is None:
            raise ConfigurationError("GP is not fitted")
        x_new = np.atleast_2d(np.asarray(x_new, dtype=np.float64))
        if x_new.shape[1] != self._x.shape[1]:
            raise ConfigurationError(
                f"GP was fitted on {self._x.shape[1]} coordinates, "
                f"got points with {x_new.shape[1]}")
        from scipy.linalg.blas import dtrmm

        k_star = _rbf(x_new, self._x, self.length_scale, self.signal_var)
        mean = k_star @ self._alpha
        # k** - k*^T K^-1 k* = signal_var - |L^-1 k*|^2 (GPML Alg. 2.1): one
        # triangular product with the inverse factor, written over k*.
        v = dtrmm(1.0, self._l_inv, k_star.T, lower=1, overwrite_b=True)
        var = self.signal_var - (v * v).sum(axis=0)
        var = np.maximum(var, 1e-12)
        return (
            mean * self._y_std + self._y_mean,
            np.sqrt(var) * self._y_std,
        )


def expected_improvement(mean: np.ndarray, std: np.ndarray, best: float) -> np.ndarray:
    """EI acquisition for maximisation, counting only improvement past
    ``best + _EI_MARGIN``.

    The standard normal cdf and pdf are written as ``scipy.stats.norm``
    computes them underneath, without its argument handling.
    """
    from scipy.special import ndtr

    improvement = mean - best - _EI_MARGIN
    z = improvement / std
    return improvement * ndtr(z) + std * (np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi))
