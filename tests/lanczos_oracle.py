"""ARPACK reference for the package's eigen solver, for tests only.

The package computes every ground pair by inverse iteration
(`fem.eigen_smallest`, `fem.refine_eigenpair`).  This independent Lanczos
solve checks it, gives more than one mode where a test needs them, and
supplies rough eigenvalues for shifts.
"""

import numpy as np
import scipy.sparse.linalg as spla

from dumbbell import fem


def lanczos_pairs(system: fem.AssembledSystem, count: int = 1,
                  tol: float = 1e-10) -> list[fem.EigenPair]:
    """The `count` smallest eigenpairs of K u = l M_p u, ascending, by
    Lanczos on the pencil (M_p, K): the largest mu of M_p u = mu K u give
    l = 1/mu, with K-inner products and one factor of K.  The start vector
    is all ones, so the result is the same in every process."""
    lu = fem.factor(system.K)
    n = system.K.shape[0]
    op_kinv = spla.LinearOperator((n, n), matvec=lu.solve)
    mu, vecs = spla.eigsh(system.Mp, k=count, M=system.K, Minv=op_kinv,
                          which="LM", tol=tol, maxiter=5000, v0=np.ones(n))
    pairs = []
    for idx in np.argsort(-mu):
        lam = 1.0 / mu[idx]
        v = vecs[:, idx]
        r = system.K @ v - lam * (system.Mp @ v)
        rel = np.linalg.norm(r) / np.linalg.norm(system.K @ v)
        pairs.append(fem.EigenPair(float(lam), fem.FieldSolution(
            system.disc, system.expand(v), float(rel))))
    return pairs
