"""The whole-mesh assembly that `fem._assemble_form` replaced, kept as the
reference its row-block build must match bit for bit.

Every triplet of the element blocks goes into one COO matrix over all
nodes, `tocsr()` sums the duplicates, and the Dirichlet system is that
all-node pair reduced through `AssembledSystem.clamped`.  The element
blocks themselves come from `fem._element_blocks`, which both paths share;
tests/test_fem.py checks them against a per-cell loop and sympy.
"""

import numpy as np
import scipy.sparse as sp

from dumbbell import fem


def assemble_form(disc, kind, coeff=None):
    """The all-node form as one whole-mesh COO-to-CSR conversion."""
    cells, local, pos = fem._element_blocks(disc, kind, coeff)
    nloc = cells.shape[1]
    local = np.take(local, pos.ravel(), axis=1)
    rows = np.repeat(cells, nloc, axis=1).ravel()
    cols = np.tile(cells, (1, nloc)).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)),
                        shape=(disc.n_nodes, disc.n_nodes)).tocsr()
    mat.sum_duplicates()
    return mat


def dirichlet_system(disc, K_full, Mp_full):
    """The all-node pair reduced to the nodes off the Dirichlet tags."""
    nodes = np.arange(disc.n_nodes)
    return fem.AssembledSystem(disc, K_full, Mp_full, nodes).clamped(
        disc.boundary_nodes(*disc.dirichlet_tags()))


def assemble(disc, weight):
    """`fem.assemble` by the whole-mesh path."""
    return dirichlet_system(disc, assemble_form(disc, "stiffness"),
                            assemble_form(disc, "mass", weight))


def dirichlet_load(disc, lift):
    """The load -K I(lift) of `fem.solve_dirichlet`, over all nodes, with
    the all-node stiffness."""
    return -(assemble_form(disc, "stiffness") @ lift(*disc.nodes.T))
