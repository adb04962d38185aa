"""Long-double polish reference for the package's inverse iteration, for
tests only.

`fem.refine_eigenpair` runs every step as one plain float64 solve.  This
is the polish it replaced: plain steps, then two steps that each add a
correction solve against the residual taken in long double, on long-double
copies of K, M_p and K - sigma M_p.  Tests patch it in for
`fem.refine_eigenpair`, and for the iteration of `fem.refine_on_own_factor`
that gives a sweep entry's full pair, to check that the float64 steps keep
the digits the sweep reads.
"""

import numpy as np

from dumbbell import fem


def extended_refine_eigenpair(system: fem.AssembledSystem, start: np.ndarray,
                              steps: int) -> fem.EigenPair:
    """`steps` inverse-iteration steps on `system.lu()`, the last two (or
    all, if fewer) with one long-double correction solve each; the
    eigenvalue and residual are those of the returned vector, in long
    double.  Like `fem.refine_eigenpair`, it returns the vector signed so
    that its weighted sum 1^T M_p u is positive."""
    lu = system.lu()
    plain = max(steps - 2, 0)
    u = np.asarray(start, dtype=float)
    for _ in range(plain):
        y = lu.solve(system.Mp @ u)
        u = y / np.sqrt(y @ (system.Mp @ y))
    Kl = system.K.astype(np.longdouble)
    Ml = system.Mp.astype(np.longdouble)
    Al = Kl - np.longdouble(system.shift) * Ml
    u = u.astype(np.longdouble)
    for _ in range(steps - plain):
        rhs = np.asarray(Ml @ u, dtype=float)
        y = lu.solve(rhs).astype(np.longdouble)
        corr = lu.solve(rhs - np.asarray(Al @ y, dtype=float))
        y = y + corr.astype(np.longdouble)
        u = y / np.sqrt(y @ (Ml @ y))
    Ku, Mu = Kl @ u, Ml @ u
    lam = (u @ Ku) / (u @ Mu)
    r = Ku - lam * Mu
    res = float(np.sqrt(r @ r) / np.sqrt(Ku @ Ku))
    if Mu.sum() < 0:
        u = -u
    full = system.expand(np.asarray(u, dtype=float))
    return fem.EigenPair(float(lam), fem.FieldSolution(system.disc, full, res))
