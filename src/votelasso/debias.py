"""Per-machine statistical engine: nodewise precision estimation, the
debiased lasso, and its standardized (unit-variance) form.

The precision matrix is built row by row: regress each design column on
all the others with an l1 penalty, normalize by the penalized residual scale
tau_i^2, and assemble rows of Omega_hat. All d nodewise problems share one
Gram matrix, so the estimate costs one X'X plus one lockstep active-set
solve per chunk of rows (``fit_lasso_gram`` on a stack of rows):
each outer pass forms the gradients of all unfinished rows of the chunk at
once and runs coordinate descent over every row's working set together.
The working sets hold a few columns, because the nodewise rows are very
sparse, so a machine's estimate is a few passes of array operations on
chunk-sized arrays instead of d solver calls. Every row keeps its KKT
certificate: a row that does not converge raises ValueError, and the
estimate records the largest residual and the sweeps.

Omega_hat is stored as compressed sparse rows (``SparseRows``), never as a
dense d x d array: the benchmark designs average 2.1 nonzeros per row and a
paper-scale machine (d=5000, n=250) about 2.9, so one machine's estimate
takes 0.15 MB instead of 200 MB. The debiasing step (all machines of a
replication at once, stacked along a leading axis) is one sparse mat-vec
over the block diagonal of the machines' estimates (``block_diagonal``),
applied to the X'(y - X theta_tilde)/n that each machine's lasso solver
ended on. The sandwich variance (Omega_hat Sigma_hat Omega_hat')_ii is
computed row by row as ||X omega_i||^2 / n from the design columns of row
i's nonzeros, without a Gram matrix.

The residual scale is tau_i^2 = ||x_i - X_{-i} g_i||^2 / n + lam * ||g_i||_1,
the tau-hat^2 of van de Geer, Buhlmann, Ritov and Dezeure (2014, Ann.
Statist.). At the l1 optimum it equals x_i'(x_i - X_{-i} g_i)/n, which makes
(Omega_hat Sigma_hat)_ii = 1 exactly, so the one-step correction cancels the
lasso's shrinkage of coordinate i to first order; the z-score xi that each
machine compares with the vote threshold tau relies on that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .lasso import KKT_TOL, fit_lasso_gram

# Entries of one chunk of nodewise rows solved per lockstep call: 2 MiB per
# chunk-sized array, so the solve's transients are a few such arrays and never
# a second d x d (all 200 rows at d=200, 52 rows at the paper's d=5000, where
# larger chunks measured slower and 30 MiB larger).
NODEWISE_CHUNK_ENTRIES = 1 << 18


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
    ``nodewise_kkt`` is the largest KKT residual of the d fits and
    ``nodewise_sweeps`` their coordinate-descent sweeps summed.
    """

    omega_hat: SparseRows
    tau_sq: np.ndarray
    lambda_omega: float
    nodewise_kkt: float = 0.0
    nodewise_sweeps: int = 0


def empirical_covariance(X: np.ndarray) -> np.ndarray:
    """X'X / n."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    return X.T @ X / n


def estimate_precision(X: np.ndarray, lambda_omega: float) -> PrecisionEstimate:
    """Fit the d nodewise lassos and assemble Omega_hat as sparse rows.

    Raises ValueError naming the first column whose nodewise fit did not
    converge (its KKT residual, recomputed at the returned coefficients,
    exceeds ``KKT_TOL``), or whose penalized residual scale tau_i^2 is not
    strictly positive (collinear columns or lambda_omega too small).
    """
    X = np.asarray(X, dtype=np.float64)
    if not 0 < lambda_omega < math.inf:
        raise ValueError("lambda_omega must be finite and positive")
    d = X.shape[1]
    if d < 2:
        raise ValueError("need at least two columns")
    G = empirical_covariance(X)
    diag = G.diagonal()
    tau_sq = np.empty(d)
    cols, counts, vals = [], [], []
    sweeps, max_kkt = 0, 0.0
    step = max(1, NODEWISE_CHUNK_ENTRIES // d)
    for lo in range(0, d, step):
        rows = np.arange(lo, min(lo + step, d))
        C = G[lo : lo + rows.size]
        W, U, chunk_sweeps, kkt, converged = fit_lasso_gram(G, C, lambda_omega, skip=rows)
        idx, w = _kernels.nonzero_slots(W)
        if not converged:
            res = _kernels.kkt_residual_rows(C, idx, w, lambda_omega, rows, u=U)
            bad = (res > KKT_TOL).nonzero()[0]
            i = bad[0] if bad.size else res.argmax()
            raise ValueError(
                f"nodewise fit did not converge at column {rows[i]} (KKT residual {res[i]:.3g})"
            )
        sweeps += chunk_sweeps
        max_kkt = max(max_kkt, kkt)
        # Row sums over each fit's nonzeros: c'w, w'u and ||w||_1.
        r = np.arange(rows.size)[:, None]
        rss_n = diag[rows] - 2.0 * (C[r, idx] * w).sum(axis=1) + (U[r, idx] * w).sum(axis=1)
        l1 = np.abs(w).sum(axis=1)
        tau2 = rss_n + lambda_omega * l1
        bad = (~(tau2 > np.finfo(np.float64).eps)).nonzero()[0]
        if bad.size:
            raise ValueError(f"degenerate nodewise residual at column {rows[bad[0]]}")
        tau_sq[rows] = tau2
        # Row i: -w / tau_i^2 at the fit's nonzeros (column i is never one of
        # them) and 1 / tau_i^2 at column i, sorted by column. Padding slots
        # hold 0 and drop out, as does an entry that underflows to 0.
        row_cols = np.concatenate([idx, rows[:, None]], axis=1)
        row_vals = np.concatenate([-w / tau2[:, None], 1.0 / tau2[:, None]], axis=1)
        order = np.argsort(np.where(row_vals != 0.0, row_cols, d), axis=1)
        row_cols = np.take_along_axis(row_cols, order, 1)
        row_vals = np.take_along_axis(row_vals, order, 1)
        stored = row_vals != 0.0
        cols.append(row_cols[stored])
        counts.append(stored.sum(axis=1))
        vals.append(row_vals[stored])
    indices = np.concatenate(cols)
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    omega = SparseRows(
        indptr=indptr.astype(np.min_scalar_type(indices.size)),
        indices=indices.astype(np.min_scalar_type(d - 1)),
        data=np.concatenate(vals),
    )
    return PrecisionEstimate(
        omega_hat=omega,
        tau_sq=tau_sq,
        lambda_omega=float(lambda_omega),
        nodewise_kkt=max_kkt,
        nodewise_sweeps=sweeps,
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


def block_diagonal(omegas: list[SparseRows]) -> SparseRows:
    """The (M d) x (M d) block-diagonal matrix of M machines' d x d
    precision estimates, machine m's rows and columns at [m d, (m + 1) d).

    Its mat-vec with a flattened (M, d) array is every machine's mat-vec
    with its own row in one pass; each output entry sums the same products
    in the same order as ``omegas[m].matvec``, so the bits agree.
    """
    d = omegas[0].indptr.size - 1
    counts = np.array([omega.indices.size for omega in omegas])
    starts = np.concatenate([[0], np.cumsum(counts)])
    indptr = np.concatenate(
        [omega.indptr[:-1].astype(np.intp) + start for omega, start in zip(omegas, starts)]
        + [starts[-1:]]
    )
    indices = np.concatenate(
        [omega.indices.astype(np.intp) + m * d for m, omega in enumerate(omegas)]
    )
    return SparseRows(indptr=indptr, indices=indices, data=np.concatenate([o.data for o in omegas]))


def debias(theta_tilde: np.ndarray, grad: np.ndarray, omega: SparseRows) -> np.ndarray:
    """One-step correction of M machines at once, stacked along axis 0:
    row m is theta_tilde_m + Omega_m grad_m, where grad_m is machine m's
    X_m'(y_m - X_m theta_tilde_m)/n.

    ``theta_tilde`` and ``grad`` are (M, d) and ``omega`` is the
    ``block_diagonal`` of the M precision estimates (for one machine, its
    own estimate); returns (M, d). The lasso solver ends on that gradient
    (``LassoFit.gradient``, or c - u of a Gram fit), so debiasing forms no
    residual. Every row equals the single-machine product bit for bit, and
    the mat-vec is one pass over the block diagonal.
    """
    return theta_tilde + omega.matvec(grad.ravel()).reshape(grad.shape)


def standardize(theta_hat: np.ndarray, c_diag: np.ndarray, sigma: float, n: int) -> np.ndarray:
    """Scale each debiased coordinate to unit noise variance:
    xi_k = sqrt(n) theta_hat_k / (sigma * sqrt(c_kk)), where ``c_diag`` is
    the sandwich diagonal (``sandwich_diag``; fixed whenever the design is).
    Elementwise, so (M, d) arrays standardize M machines at once.

    Raises ValueError unless 0 < sigma < inf and 0 < c_kk < inf for every
    k: a NaN would make every xi NaN, and an infinite sigma or c_kk would
    make xi 0, so that nothing is ever voted for.
    """
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    c_diag = np.asarray(c_diag, dtype=np.float64)
    # Both bounds in one check of two reductions, no more passes than a
    # positivity test alone; a NaN propagates through both and fails.
    if not (0 < c_diag.min(initial=math.inf) and c_diag.max(initial=0.0) < math.inf):
        raise ValueError("invalid sandwich variance: diagonal not positive and finite")
    return math.sqrt(n) * theta_hat / (sigma * np.sqrt(c_diag))
