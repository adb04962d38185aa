"""Sequential sweep entries, for tests only.

`pipeline.run_sweep` splits each entry over two threads: the main thread
builds the entry's system, solves its restricted reference and runs the
previous entry's readouts while a worker factors the full operator and
runs the full pair.  This composes the same four functions in turn, on
the calling thread, so tests can read one entry without the sweep and
check that the two-thread sweep writes the entries this would.  The
reference's factor is freed before the full operator's is made.
"""

from dumbbell import pipeline as pl


def sequential_eigenpair(cfg: pl.RunConfig, eps: float, lam_k0: float):
    """An entry's full pair and its lambda_ref: the system, its restricted
    reference, then the full pair started from the reference."""
    system = pl._entry_system(cfg, eps)
    ref = pl._restricted_reference(system, lam_k0)
    return pl._full_pair(system, lam_k0, lambda: ref)


def sequential_entry(cfg: pl.RunConfig, eps: float,
                     pset: pl.ProfileSet) -> dict:
    """One entry of the record: its eigen phase, then its readouts."""
    return pl._entry_readouts(cfg, pset, eps, *sequential_eigenpair(
        cfg, eps, pset.constants.lam_k0))


def sequential_sweep(cfg: pl.RunConfig, pset: pl.ProfileSet) -> list:
    """The sweep's entries, one after the other; an entry that raises
    keeps its eps and gets the sweep's error keys."""
    sweep = []
    for eps in map(float, cfg.eps_sweep):
        entry = {"eps": eps}
        try:
            entry.update(sequential_entry(cfg, eps, pset))
        except Exception as exc:
            entry.update(pl._error(exc))
        sweep.append(entry)
    return sweep
