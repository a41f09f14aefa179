"""Matrix oracles for the gadget families, filled cell by cell from the
definitions with no grammar machinery.

``reference_bin``, ``reference_shiftbin`` and ``reference_cnm`` are the
matrices ``build_bin``, ``build_shiftbin`` and ``build_cnm`` must expand
to; the tests compare the two, so neither borrows from the other.
``distinct_blocks`` counts the distinct ``$b$`` words of a row, the count
behind the hardness argument.
"""

from __future__ import annotations

import numpy as np

from gridslp import cnm_block_exponent


def reference_bin(n: int) -> np.ndarray:
    """The 2^n x (n+2) matrix whose row i is the (i-1)-th n-bit word in $..$."""
    rows = 1 << n
    out = np.empty((rows, n + 2), dtype="<U1")
    for i in range(rows):
        word = format(i, f"0{n}b") if n else ""
        out[i, :] = list(f"${word}$")
    return out


def reference_shiftbin(n: int) -> np.ndarray:
    """The 2N x N(n+2) matrix of N copies of Bin, copy j shifted down j rows.

    N = 2^n.  Copy j occupies rows j+1..j+N of column block j; every other
    cell is '0'.
    """
    N = 1 << n
    blk = n + 2
    out = np.full((2 * N, N * blk), "0", dtype="<U1")
    bin_mat = reference_bin(n)
    for j in range(N):
        out[j : j + N, j * blk : (j + 1) * blk] = bin_mat
    return out


def reference_cnm(N: int, M: int) -> np.ndarray:
    """The N x M matrix with two offset strips of stacked ShiftBin copies.

    Left strip (columns 1..W, W = M'(m+2)): ⌊N/(2M')⌋ ShiftBin copies stacked
    from the top.  Right strip (columns W+1..2W): M' zero rows, then
    ⌊(N−M')/(2M')⌋ copies.  Everything else is '0'.
    """
    m = cnm_block_exponent(M)
    mp = 1 << m
    sb = reference_shiftbin(m)
    W = mp * (m + 2)
    out = np.full((N, M), "0", dtype="<U1")
    for i in range(N // (2 * mp)):
        out[2 * mp * i : 2 * mp * (i + 1), 0:W] = sb
    for i in range((N - mp) // (2 * mp)):
        out[mp + 2 * mp * i : mp + 2 * mp * (i + 1), W : 2 * W] = sb
    return out


def distinct_blocks(row: str, n: int) -> int:
    """Number of distinct n-bit words b such that ``$b$`` occurs in ``row``."""
    words = set()
    bits = {"0", "1"}
    for i in range(max(0, len(row) - n - 1)):
        if row[i] == "$" and row[i + n + 1] == "$":
            middle = row[i + 1 : i + n + 1]
            if all(ch in bits for ch in middle):
                words.add(middle)
    return len(words)
