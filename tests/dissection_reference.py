"""Recursive reference for the nested-dissection order, shared by the test
modules.

Visits every block of the node grid: a block wider than
corrector._ND_LEAF nodes is bisected across its longer side by one line of
nodes, its two halves are visited, and the line is numbered after them;
a leaf is numbered row-major.  corrector._nested_dissection builds the
same order once per distinct block shape; the tests hold it to this one.
"""

import numpy as np

from halfbubble import corrector


def nested_dissection(n_i, n_j):
    """(order, label) of the n_i x n_j node grid, as the library returns
    them: order[k] is the row-major index of the k-th unknown, label[i, j]
    the position of node (i, j) in order."""
    parts = []

    def visit(block):
        h, w = block.shape
        if max(h, w) <= corrector._ND_LEAF:
            parts.append(block.ravel())
        elif h >= w:
            visit(block[:h // 2])
            visit(block[h // 2 + 1:])
            parts.append(block[h // 2])
        else:
            visit(block[:, :w // 2])
            visit(block[:, w // 2 + 1:])
            parts.append(block[:, w // 2])

    visit(np.arange(n_i * n_j).reshape(n_i, n_j))
    order = np.concatenate(parts)
    label = np.empty_like(order)
    label[order] = np.arange(order.size)
    return order, label.reshape(n_i, n_j)
