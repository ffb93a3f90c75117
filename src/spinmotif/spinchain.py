"""Zero-magnetization spin-chain basis, symmetry group, and equivalence classes.

A state is a sequence of species labels in ``{0..M-1}`` with each label
appearing exactly ``N/M`` times.  A basis is one lex-sorted ``(S, N)`` uint8
label array, a single state is one row of such an array, and each row has a
base-M integer code.  The symmetry group is generated by cyclic translations,
reflections about any pivot, and permutations of the species labels; two rows
lie in one orbit exactly when their canonical codes, the smallest code in
each orbit, are equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import factorial

import numpy as np

#: Refuse to enumerate bases larger than this; bigger systems go through sampling.
DEFAULT_BASIS_CAP = 20_000_000


class BasisTooLargeError(ValueError):
    pass


def basis_size(n: int, m: int) -> int:
    """Multinomial count of balanced length-n strings over m labels."""
    _validate_sizes(n, m)
    size = factorial(n)
    for _ in range(m):
        size //= factorial(n // m)
    return size


def _validate_sizes(n: int, m: int) -> None:
    if m < 2:
        raise ValueError(f"need at least 2 species, got M={m}")
    if n < m:
        raise ValueError(f"need N >= M, got N={n}, M={m}")
    if n % m != 0:
        raise ValueError(f"N={n} not divisible by M={m}")


def enumerate_basis(n: int, m: int, cap: int = DEFAULT_BASIS_CAP) -> np.ndarray:
    """All zero-magnetization states as a lex-sorted ``(S, n)`` uint8 label array.

    Built one site at a time: every valid prefix is extended by each label it
    still has room for.  ``np.nonzero`` lists the (prefix, label) pairs in
    row-major order, so children of lex-ordered prefixes stay lex-ordered.
    Raises :class:`BasisTooLargeError` when the basis would exceed ``cap``.
    """
    size = basis_size(n, m)
    if size > cap:
        raise BasisTooLargeError(f"basis for N={n}, M={m} has {size} states > cap {cap}")
    remaining = np.full((1, m), n // m, dtype=np.int16)  # labels left per prefix
    steps = []  # per site: (parent prefix index, label) of every child prefix
    for _ in range(n):
        parent, label = np.nonzero(remaining)
        remaining = remaining[parent]
        remaining[np.arange(len(parent)), label] -= 1
        steps.append((parent, label))
    states = np.empty((size, n), dtype=np.uint8)
    idx = np.arange(size)
    for site in range(n - 1, -1, -1):
        parent, label = steps[site]
        states[:, site] = label[idx]
        idx = parent[idx]
    return states


def state_codes(states: np.ndarray, m: int, dtype: type = np.int64) -> np.ndarray:
    """Base-m code of each row, site 0 most significant, so code order is
    lexicographic order and a sorted basis has sorted codes.  Codes are int64
    unless a narrower ``dtype`` that holds them is asked for."""
    if float(m) ** states.shape[1] >= 2.0**63:
        raise BasisTooLargeError(f"{m}**{states.shape[1]} codes overflow int64")
    codes = np.zeros(len(states), dtype=dtype)
    for column in states.T:
        codes *= m
        codes += column
    return codes


@dataclass
class EquivalenceClassPartition:
    """Orbit partition of a lex-sorted basis: ``class_ids[i]`` is the class of
    basis state ``i``, and classes are ordered by their lex-min representative.
    ``codes`` are the basis states' codes, computed once for the partition."""

    class_ids: np.ndarray  # (S,) class index per basis state
    representatives: np.ndarray  # (C,) basis index of each lex-min member
    codes: np.ndarray  # (S,) int64 code per basis state, sorted

    def __len__(self) -> int:
        return len(self.representatives)


def _rotation_extremes(states: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest code among the N cyclic rotations of each row of
    a ``(S, N)`` label array, in one pass over the rotations.  The codes are
    int32, which halves the memory traffic, while code*M fits it, else int64."""
    n = states.shape[1]
    dtype = np.int32 if m ** (n + 1) < 2**31 else np.int64
    code = state_codes(states, m, dtype)
    # rotating code c with lead digit d gives c*m - d*(m**n - 1)
    wrap = dtype(m**n - 1)
    lo, hi = code.copy(), code.copy()
    shed = np.empty_like(code)
    for lead in states.T[:-1]:
        code *= m
        np.multiply(lead, wrap, out=shed)
        code -= shed
        np.minimum(lo, code, out=lo)
        np.maximum(hi, code, out=hi)
    return lo, hi


def rotation_min_codes(states: np.ndarray, m: int) -> np.ndarray:
    """Smallest code among the N cyclic rotations of each row of a ``(S, N)``
    label array: the code of the row's lexicographically smallest translate."""
    return _rotation_extremes(states, m)[0].astype(np.int64)


def translation_representatives(states: np.ndarray, m: int) -> np.ndarray:
    """The rows of a ``(S, N)`` label array that are the smallest member of
    their translation orbit, in their original order: one row per orbit when
    the array holds whole orbits, such as a sector basis."""
    return states[rotation_min_codes(states, m) == state_codes(states, m)]


#: Rows per block of :func:`canonical_codes`, so that its temporaries
#: stay in cache.
_BLOCK_ROWS = 8192


def canonical_codes(states: np.ndarray, m: int) -> np.ndarray:
    """Smallest code in each state's orbit: the minimum over relabelings,
    {identity, reflection} and the N cyclic rotations.

    The complement relabeling x -> M-1-x maps code c to M^N-1-c and commutes
    with rotation and reflection, so the complement of relabeling pi has its
    smallest rotation code at M^N-1 minus pi's largest.  Only the half of the
    relabelings with pi[0] < pi[M-1] are scanned, each for its rotation minimum
    and maximum, one block of rows at a time.
    """
    top = m ** states.shape[1] - 1  # the complement of code c is top - c
    best = np.empty(len(states), dtype=np.int64)
    perms = [np.asarray(p, dtype=np.uint8) for p in permutations(range(m)) if p[0] < p[-1]]
    for start in range(0, len(states), _BLOCK_ROWS):
        block = states[start:start + _BLOCK_ROWS]
        sites = np.ascontiguousarray(block.T)  # (N, B): one contiguous row per site
        low = np.full(len(block), np.iinfo(np.int64).max)
        high = np.full(len(block), -1, dtype=np.int64)
        for perm in perms:
            relabeled = perm[sites]
            for oriented in (relabeled, relabeled[::-1]):
                lo, hi = _rotation_extremes(oriented.T, m)
                np.minimum(low, lo, out=low)
                np.maximum(high, hi, out=high)
        np.minimum(low, top - high, out=best[start:start + _BLOCK_ROWS])
    return best


def partition_classes(states: np.ndarray, m: int) -> EquivalenceClassPartition:
    """Partition a lex-sorted basis that holds whole orbits (such as a sector
    basis) into orbits under translations, reflections and relabelings.

    Representatives are the lexicographically smallest members, the rows whose
    code is their canonical code; in a lex-sorted basis they come in order of
    that code, which is the class order, so each row's class is found by
    binary search of its canonical code among theirs.
    """
    canonical = canonical_codes(states, m)
    codes = state_codes(states, m)
    representatives = np.flatnonzero(canonical == codes)
    class_ids = np.searchsorted(canonical[representatives], canonical)
    return EquivalenceClassPartition(class_ids, representatives, codes)


def class_count_lower_bound(n: int, m: int) -> Fraction:
    """#states / #symmetries: N! / (2N * M! * ((N/M)!)^M), as an exact rational."""
    _validate_sizes(n, m)
    return Fraction(factorial(n), 2 * n * factorial(m) * factorial(n // m) ** m)


def marshall_signs(states: np.ndarray) -> np.ndarray:
    """Sign gauge (-1)^(# down spins on even sites) of every row of an
    ``(S, N)`` M=2 label array, as floats.

    The gauged Hamiltonian has non-positive off-diagonal entries, so the
    nondegenerate ground state can be taken strictly positive.
    """
    if states.size and states.max() > 1:
        raise ValueError("Marshall gauge is only defined for M=2")
    downs_on_even = states[:, ::2].sum(axis=1, dtype=np.int64)
    return 1.0 - 2.0 * (downs_on_even % 2)
