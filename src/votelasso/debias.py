"""Per-machine statistical engine: nodewise precision estimation, the
debiased lasso, and its standardized (unit-variance) form.

The precision matrix is built column by column: regress each design column
on all the others with an l1 penalty, normalize by the penalized residual
scale tau_i^2, and assemble rows of Omega_hat. All d nodewise problems share
one Gram matrix, so the whole estimate costs one X'X plus d active-set
coordinate-descent solves. Each solve touches only the few columns of its
working set, because the nodewise rows are very sparse.

Omega_hat is stored as compressed sparse rows (``SparseRows``), never as a
dense d x d array: the benchmark designs average 2.1 nonzeros per row and a
paper-scale machine (d=5000, n=250) about 2.9, so one machine's estimate
takes 0.15 MB instead of 200 MB. The debiasing step is a sparse mat-vec, and
the sandwich variance (Omega_hat Sigma_hat Omega_hat')_ii is computed row by
row as ||X omega_i||^2 / n from the design columns of row i's nonzeros,
without a Gram matrix.

For the residual scale two conventions are supported:

* ``"n"`` (default): tau_i^2 = ||x_i - X_{-i} g_i||^2 / n + lam * ||g_i||_1.
  At the l1 optimum this equals x_i'(x_i - X_{-i} g_i)/n, which makes
  (Omega_hat Sigma_hat)_ii = 1 exactly and is what the debiasing step
  requires to cancel the lasso bias.
* ``"2n"``: the same with a (2n)^-1 factor on the residual term. Kept as a
  configuration switch; it rescales Omega_hat rows (towards 2x in the
  orthonormal limit) and is not suitable for confidence intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lasso import fit_lasso_gram

RESIDUAL_SCALES = ("n", "2n")


@dataclass(frozen=True, eq=False)
class SparseRows:
    """A square matrix in compressed sparse row form, NumPy only.

    Row i holds the values ``data[indptr[i]:indptr[i + 1]]`` at the
    increasing columns ``indices[indptr[i]:indptr[i + 1]]``. Every row
    stores at least one entry (Omega_hat rows always store their diagonal)
    and no stored entry is zero. ``estimate_precision`` stores the index
    arrays in the smallest unsigned type that holds their values.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        if not (np.diff(self.indptr) > 0).all():
            raise ValueError("every row must store at least one entry")

    @property
    def nbytes(self) -> int:
        """Bytes of the three arrays."""
        return self.indptr.nbytes + self.indices.nbytes + self.data.nbytes

    def __ne__(self, other):
        """Compare the stored entries only, as ``scipy.sparse`` does, so
        ``(rows != 0).sum()`` is the number of nonzeros."""
        return self.data != other

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """The product with a vector."""
        return np.add.reduceat(self.data * v[self.indices], self.indptr[:-1])


@dataclass
class PrecisionEstimate:
    """Nodewise-regression precision matrix estimate.

    Row i of ``omega_hat`` is (1, -g_i) / tau_sq_i on the appropriate
    columns, where g_i is the nodewise lasso of column i on all others; so
    g_i is -tau_sq_i times the off-diagonal entries of row i.
    """

    omega_hat: SparseRows
    tau_sq: np.ndarray
    lambda_omega: float
    residual_scale: str = "n"


@dataclass
class LocalFit:
    """Everything one machine computes from its shard in round one."""

    machine_id: int
    theta_tilde: np.ndarray
    theta_hat: np.ndarray
    sigma_hat_sq_diag: np.ndarray
    xi_hat: np.ndarray
    lasso_converged: bool = True
    lasso_sweeps: int = 0
    lasso_kkt: float = 0.0


def empirical_covariance(X: np.ndarray) -> np.ndarray:
    """X'X / n."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    return X.T @ X / n


def estimate_precision(
    X: np.ndarray,
    lambda_omega: float,
    residual_scale: str = "n",
    gram: np.ndarray | None = None,
) -> PrecisionEstimate:
    """Fit the d nodewise lassos and assemble Omega_hat as sparse rows.

    Raises if any penalized residual scale tau_i^2 is not strictly positive
    (collinear columns or lambda_omega too small).
    """
    X = np.asarray(X, dtype=np.float64)
    if lambda_omega <= 0:
        raise ValueError("lambda_omega must be positive")
    if residual_scale not in RESIDUAL_SCALES:
        raise ValueError(f"residual_scale must be one of {RESIDUAL_SCALES}")
    d = X.shape[1]
    if d < 2:
        raise ValueError("need at least two columns")
    G = empirical_covariance(X) if gram is None else gram
    tau_sq = np.empty(d)
    cols, vals = [], []
    w = np.zeros(d)
    for i in range(d):
        c = np.ascontiguousarray(G[i])
        # Warm start from the previous column's solution.
        w, u, _, _, _ = fit_lasso_gram(G, c, lambda_omega, warm_start=w, skip=i)
        rss_n = G[i, i] - 2.0 * (c @ w) + w @ u
        l1 = np.abs(w).sum()
        if residual_scale == "2n":
            tau2 = 0.5 * rss_n + lambda_omega * l1
        else:
            tau2 = rss_n + lambda_omega * l1
        if not tau2 > np.finfo(np.float64).eps:
            raise ValueError(f"degenerate nodewise residual at column {i}")
        tau_sq[i] = tau2
        # w[i] is 0 (the fit skips column i), so the diagonal goes in place.
        row = -w / tau2
        row[i] = 1.0 / tau2
        nz = row.nonzero()[0]
        cols.append(nz)
        vals.append(row[nz])
    indices = np.concatenate(cols)
    indptr = np.cumsum([0] + [nz.size for nz in cols])
    omega = SparseRows(
        indptr=indptr.astype(np.min_scalar_type(indices.size)),
        indices=indices.astype(np.min_scalar_type(d - 1)),
        data=np.concatenate(vals),
    )
    return PrecisionEstimate(
        omega_hat=omega,
        tau_sq=tau_sq,
        lambda_omega=float(lambda_omega),
        residual_scale=residual_scale,
    )


def sandwich_diag(omega: SparseRows, X: np.ndarray) -> np.ndarray:
    """Diagonal of Omega_hat Sigma_hat Omega_hat' with Sigma_hat = X'X/n,
    row by row as ||X omega_i||^2 / n."""
    X = np.asarray(X, dtype=np.float64)
    start = omega.indptr[:-1].astype(np.intp)
    count = np.diff(omega.indptr)
    # Column i of Z is X omega_i. Pass s adds the s-th stored entry of every
    # row that has one: a few passes over n x d, as rows hold a few entries.
    Z = X[:, omega.indices[start]] * omega.data[start]
    for s in range(1, count.max()):
        rows = (count > s).nonzero()[0]
        k = start[rows] + s
        Z[:, rows] += X[:, omega.indices[k]] * omega.data[k]
    return np.einsum("ij,ij->j", Z, Z) / X.shape[0]


def debias(X: np.ndarray, y: np.ndarray, theta_tilde: np.ndarray, omega: SparseRows) -> np.ndarray:
    """One-step correction: theta_tilde + Omega_hat X'(y - X theta_tilde)/n."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    resid = y - X @ theta_tilde
    return theta_tilde + omega.matvec(X.T @ resid) / n


def standardize(theta_hat: np.ndarray, c_diag: np.ndarray, sigma: float, n: int) -> np.ndarray:
    """Scale each debiased coordinate to unit noise variance:
    xi_k = sqrt(n) theta_hat_k / (sigma * sqrt(c_kk)), where ``c_diag`` is
    the sandwich diagonal (``sandwich_diag``; fixed whenever the design is).
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    c_diag = np.asarray(c_diag, dtype=np.float64)
    if not (c_diag > 0).all():
        raise ValueError("invalid sandwich variance: nonpositive diagonal")
    return math.sqrt(n) * theta_hat / (sigma * np.sqrt(c_diag))
