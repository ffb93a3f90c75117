"""Motif (cyclic K-substring) counting, motif count matrices, and exact rank.

Motifs are label tuples ordered lexicographically.  Counts are taken over
states given as the rows of an ``(S, N)`` label array, a single state being a
one-row array, and come back as int64 arrays with one row per motif and one
column per state.  Rank computations use exact integer arithmetic, with
floats allowed only as cross-checks.  The independent rows of a count matrix,
whose number is its rank, come from Gauss-Jordan elimination modulo one
31-bit prime in int64, accepted only with an integer certificate: left-kernel
vectors Y with ``Y @ A == 0`` checked exactly under a stated overflow bound
(Dixon, Numer. Math. 40, 137 (1982)).  A matrix the certificate does not
cover falls back to fraction-free Bareiss elimination over the integers.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import product

import numpy as np

from .spinchain import (
    canonical_codes,
    enumerate_basis,
    partition_classes,
    translation_representatives,
)

Motif = tuple[int, ...]


def all_motifs(m: int, k: int) -> list[Motif]:
    return list(product(range(m), repeat=k))


def motif_index(motif: Motif, m: int) -> int:
    idx = 0
    for x in motif:
        idx = idx * m + x
    return idx


def conjugate(motif: Motif) -> Motif:
    """Label-swapped partner of an M=2 motif."""
    if any(x > 1 for x in motif):
        raise ValueError("conjugate is only defined for M=2 motifs")
    return tuple(1 - x for x in motif)


def _window_counts(
    states: np.ndarray, k: int, m: int, motif_codes: list[int] | None = None
) -> np.ndarray:
    """Cyclic motif counts of each row of an ``(S, N)`` label array, as an
    ``(m**k, S)`` int64 matrix, or only the rows of the distinct
    ``motif_codes`` (in that order) when given.

    Window i of a state has the base-m code of sites i..i+k-1 (cyclic), built
    with k ``np.roll`` steps; one ``np.bincount`` over (row, state) pairs
    fills every column at once.  Selected rows are found by ``searchsorted``,
    so no array of m**k entries is built for them.
    """
    n_states, n = states.shape
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= K <= N, got K={k}, N={n}")
    labels = states.astype(np.int64)
    codes = np.zeros_like(labels)
    for j in range(k):
        codes *= m
        codes += np.roll(labels, -j, axis=1)
    rows, n_rows = codes, m**k
    if motif_codes is not None:
        wanted = np.asarray(motif_codes, dtype=np.int64)
        order = np.argsort(wanted)
        slot = order[np.searchsorted(wanted, codes, sorter=order).clip(max=len(wanted) - 1)]
        rows, n_rows = np.where(wanted[slot] == codes, slot, -1), len(wanted)
    flat = rows * n_states + np.arange(n_states)[:, None]
    return np.bincount(flat[rows >= 0], minlength=n_rows * n_states).reshape(n_rows, n_states)


def motif_count_matrix(
    states: np.ndarray, k: int, m: int, max_entries: int = 200_000_000
) -> np.ndarray:
    """Cyclic K-motif counts of every row of an ``(S, N)`` label array: an
    ``(m**k, S)`` int64 matrix, rows in lexicographic motif order."""
    if m**k * len(states) > max_entries:
        raise MemoryError(f"motif count matrix {m**k} x {len(states)} exceeds cap")
    return _window_counts(states, k, m)


def motif_count_rows(states: np.ndarray, motifs: Sequence[Motif], m: int) -> np.ndarray:
    """The rows of the motif count matrix for the given distinct motifs of one
    length, as a ``(len(motifs), S)`` int64 array.  The other rows are never
    built, so memory scales with the S x N window codes, not with m**k."""
    if not motifs or len({len(mo) for mo in motifs}) > 1 or len(set(motifs)) < len(motifs):
        raise ValueError("need distinct motifs of one length")
    codes = [motif_index(mo, m) for mo in motifs]
    return _window_counts(states, len(motifs[0]), m, codes)


def _bareiss_pivots(rows: list[list[int]]) -> list[int]:
    """Indices of rows that form a basis of the row space over the rationals,
    via fraction-free Gaussian elimination; their number is the rank."""
    mat = [row[:] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    order = list(range(nrows))
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot_row = next((r for r in range(rank, nrows) if mat[r][col] != 0), None)
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        order[rank], order[pivot_row] = order[pivot_row], order[rank]
        piv = mat[rank][col]
        for r in range(rank + 1, nrows):
            row_r = mat[r]
            row_p = mat[rank]
            factor = row_r[col]
            for c in range(col, ncols):
                row_r[c] = (row_r[c] * piv - factor * row_p[c]) // prev
        prev = piv
        rank += 1
        if rank == nrows:
            break
    return order[:rank]


#: The prime of the modular elimination: below 2**31, so a product of two
#: residues stays below 2**62 in int64.
PRIME = 2147483629

#: Bound on every partial sum of the int64 certificate product ``Y @ A``.
_CERTIFIED_SUM = 2**62


def _left_kernel_mod_p(distinct: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Rank mod :data:`PRIME` of an integer matrix A, with a basis of its left
    kernel mod p.

    Gauss-Jordan runs on the residues of A^T.  Returns the rank, the pivot
    rows of A, and ``y_pivot``: the kernel vector of the i-th non-pivot row is
    1 there, 0 at the other non-pivot rows and ``y_pivot[i]`` at the pivot
    rows, with residues lifted to (-p/2, p/2).
    """
    p = PRIME
    red = np.ascontiguousarray(distinct.T) % p  # column j is row j of A
    n_eqs, n_vars = red.shape
    rank, pivots = 0, []
    for col in range(n_vars):
        if rank == n_eqs:
            break
        nonzero = np.flatnonzero(red[rank:, col])
        if not nonzero.size:
            continue
        top = rank + nonzero[0]
        if top != rank:
            red[[rank, top], col:] = red[[top, rank], col:]
        pivot_row = red[rank, col:] * pow(int(red[rank, col]), -1, p) % p
        red[rank, col:] = pivot_row
        others = np.flatnonzero(red[:, col])
        others = others[others != rank]
        if others.size:
            update = red[others, col, None] * pivot_row % p
            red[others, col:] = (red[others, col:] - update) % p
        pivots.append(col)
        rank += 1
    free = np.setdiff1d(np.arange(n_vars), pivots)
    y_pivot = (-red[:rank, free].T) % p
    y_pivot[y_pivot > p // 2] -= p
    return rank, np.asarray(pivots, dtype=np.intp), y_pivot


def independent_rows(matrix: np.ndarray) -> np.ndarray:
    """Sorted indices of rows of an integer matrix that form a basis of its
    row space over the rationals; their number is the rank.

    Repeated columns, repeated rows and zero rows are dropped first, a
    repeated row standing for its first occurrence.  The pivot rows modulo
    :data:`PRIME` are independent over Q: a minor that is nonzero mod p is
    nonzero over Z.  They are returned only when the rows - r_p left-kernel
    vectors Y of the elimination, lifted to small integers, satisfy
    ``Y @ A == 0`` exactly in int64 with every partial sum bounded by
    max|Y| * max|A| * (r_p + 1) < 2**62, so that the pivot rows span every
    row.  Otherwise the rows come from :func:`_bareiss_pivots`.
    """
    entries = np.asarray(matrix)
    distinct, first = np.unique(np.unique(entries, axis=1), axis=0, return_index=True)
    nonzero = distinct.any(axis=1)
    distinct, first = distinct[nonzero], first[nonzero]
    if not len(distinct):
        return first
    max_entry = max(int(distinct.max()), -int(distinct.min()))
    if entries.dtype.kind in "biu" and max_entry < _CERTIFIED_SUM:
        distinct = distinct.astype(np.int64)
        rank, pivots, y_pivot = _left_kernel_mod_p(distinct)
        free = np.setdiff1d(np.arange(len(distinct)), pivots)
        max_y = max(1, int(np.abs(y_pivot).max(initial=0)))
        if rank == len(distinct) or (max_y * max_entry * (rank + 1) < _CERTIFIED_SUM
                                     and not (distinct[free] + y_pivot @ distinct[pivots]).any()):
            return np.sort(first[pivots])
    return np.sort(first[_bareiss_pivots(distinct.tolist())])


def integer_rank(matrix: np.ndarray) -> int:
    """Exact rank over the rationals of an integer matrix: the number of
    :func:`independent_rows`."""
    return len(independent_rows(matrix))


def float_rank(matrix: np.ndarray, rtol: float = 1e-8) -> int:
    """Float-SVD numerical rank; cross-check only, never the source of truth."""
    svals = np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > rtol * svals[0]))


def rank_scan(n: int, m: int, k_max: int | None = None) -> tuple[int, list[int], int | None]:
    """Exact ranks of the K-motif count matrix of the (n, m) sector for
    K = 1, 2, ..., k_max, with the equivalence-class count and K*, the first K
    whose rank reaches that count (None when no scanned K does).  Without
    ``k_max`` the scan stops at K*.

    A state's motif counts do not change under translation, so the matrices
    are built on one state per translation orbit: the same distinct columns,
    hence the same rank, from N-fold fewer columns.
    """
    states = enumerate_basis(n, m)
    n_classes = len(partition_classes(states, m))
    representatives = translation_representatives(states, m)
    ranks: list[int] = []
    k_star = None
    for k in range(1, (k_max or n) + 1):
        ranks.append(integer_rank(motif_count_matrix(representatives, k, m)))
        if k_star is None and ranks[-1] >= n_classes:
            k_star = k
            if k_max is None:
                break
    return n_classes, ranks, k_star


def critical_kernel_size(n: int, m: int) -> int:
    """Smallest K whose motif count matrix rank reaches the equivalence-class count."""
    k_star = rank_scan(n, m)[2]
    if k_star is None:
        raise RuntimeError(f"no kernel size up to N={n} reaches the class count")
    return k_star


def ambiguous_pair(n: int, k: int, m: int = 2) -> np.ndarray:
    """Two valid states with identical K-motif counts that are not related by
    any symmetry, as the rows of a ``(2, n)`` uint8 label array.

    Built as A-x-A-y-A-z vs A-y-A-x-A-z with A an alternating prefix of length
    K-1; the segments x, y, z are chosen greedily (lexicographic tie-break) to
    restore zero magnetization.  Requires K < N/3.
    """
    if 3 * k >= n:
        raise ValueError(f"construction needs K < N/3, got K={k}, N={n}")
    if n % m != 0:
        raise ValueError(f"N={n} not divisible by M={m}")
    a = tuple(i % m for i in range(k - 1))
    rest = n - 3 * (k - 1)
    target = n // m
    for lx in range(1, rest - 1):
        for ly in range(1, rest - lx):
            lz = rest - lx - ly
            for x in product(range(m), repeat=lx):
                for y in product(range(m), repeat=ly):
                    if x == y:
                        continue
                    for z in product(range(m), repeat=lz):
                        s1 = a + x + a + y + a + z
                        if any(s1.count(lbl) != target for lbl in range(m)):
                            continue
                        pair = np.array([s1, a + y + a + x + a + z], dtype=np.uint8)
                        counts = motif_count_matrix(pair, k, m)
                        if not np.array_equal(counts[:, 0], counts[:, 1]):
                            continue
                        canonical = canonical_codes(pair, m)
                        if canonical[0] == canonical[1]:
                            continue
                        return pair
    raise RuntimeError(f"no ambiguous pair found for N={n}, K={k}, M={m}")


def motif_symmetry_classes(k: int, m: int) -> list[tuple[Motif, ...]]:
    """Orbits of motifs under label permutation and reflection about the window
    center (the symmetries of the entanglement Hamiltonian)."""
    from itertools import permutations

    seen: set[Motif] = set()
    classes: list[tuple[Motif, ...]] = []
    for mo in all_motifs(m, k):
        if mo in seen:
            continue
        members = set()
        for perm in permutations(range(m)):
            relabeled = tuple(perm[x] for x in mo)
            members.add(relabeled)
            members.add(relabeled[::-1])
        members_t = tuple(sorted(members))
        classes.append(members_t)
        seen.update(members_t)
    return classes
