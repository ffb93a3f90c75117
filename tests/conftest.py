"""Helpers shared by the test modules: the tuple-loop and orientation-loop
reference implementations that the array code in ``spinmotif`` is checked
against, and the float cross-checks that the package does not need."""

from itertools import permutations

import numpy as np

from spinmotif.ansatz import _windows
from spinmotif.exact import _entanglement_eigh
from spinmotif.motif import all_motifs
from spinmotif.spinchain import state_codes


def motif_index(motif, m):
    """Base-m code of a label tuple, site 0 most significant."""
    idx = 0
    for x in motif:
        idx = idx * m + x
    return idx


def conjugate(motif):
    """Label-swapped partner of an M=2 label tuple."""
    if any(x > 1 for x in motif):
        raise ValueError("conjugate is only defined for M=2 motifs")
    return tuple(1 - x for x in motif)


def tuples(states):
    """The rows of an ``(S, N)`` label array as label tuples, the input of the
    tuple-loop reference implementations and of hypothesis ``sampled_from``."""
    return [tuple(row) for row in states.tolist()]


def generators(m):
    """Generators of the chain's symmetry group as maps of label tuples: the
    shift by one site, the reversal, and each adjacent label swap (which
    together generate all relabelings)."""
    gens = [lambda s: s[1:] + s[:1], lambda s: s[::-1]]
    for a in range(m - 1):
        swap = {a: a + 1, a + 1: a}
        gens.append(lambda s, swap=swap: tuple(swap.get(x, x) for x in s))
    return gens


def orbit(s, m):
    """Closure of the label tuple s under the symmetry group (BFS over the
    generators)."""
    gens = generators(m)
    seen = {s}
    frontier = [s]
    while frontier:
        nxt = []
        for t in frontier:
            for g in gens:
                u = g(t)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return seen


def rotation_min_codes_by_rotation(states, m):
    """Smallest code among the N cyclic rotations of each row of a label
    array, one rotation at a time."""
    n = states.shape[1]
    wrap = m**n - 1
    code = state_codes(states, m)
    best = code.copy()
    for lead in states.T[:-1]:
        code *= m
        code -= lead.astype(np.int64) * wrap
        np.minimum(best, code, out=best)
    return best


def canonical_codes_by_orientation(states, m):
    """Smallest code in each row's orbit, scanning every relabeling and both
    orientations of the whole array, with no complement pairing or blocks."""
    best = np.full(len(states), np.iinfo(np.int64).max)
    sites = np.ascontiguousarray(states.T)
    for perm in permutations(range(m)):
        relabeled = np.asarray(perm, dtype=np.uint8)[sites]
        for oriented in (relabeled, relabeled[::-1]):
            np.minimum(best, rotation_min_codes_by_rotation(oriented.T, m), out=best)
    return best


def marshall_sign(s):
    """Sign gauge (-1)^(# down spins on even sites) of one M=2 label tuple."""
    downs_on_even = sum(s[i] for i in range(0, len(s), 2))
    return -1 if downs_on_even % 2 else 1


def logpsi_gradient(p, s):
    """(d/dv, d/dw, d/db) of the CNN's ln psi at one label tuple s, by a loop
    over the windows.  ReLU subgradient at 0 is 0."""
    s_arr = np.asarray(s, dtype=np.intp)
    n = s_arr.shape[0]
    win = _windows(s_arr, p.k)  # (N, K)
    pre = p.w[np.arange(p.k), win].sum(axis=1) + p.b
    act = np.maximum(pre, 0.0)
    firing = pre > 0.0
    dv = float(act.sum())
    db = float(p.v * firing.sum())
    dw = np.zeros_like(p.w)
    for i in range(n):
        if firing[i]:
            dw[np.arange(p.k), win[i]] += p.v
    return dv, dw, db


def float_rank(matrix, rtol=1e-8):
    """Float-SVD numerical rank; a cross-check of the exact rank only."""
    svals = np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > rtol * svals[0]))


def cft_thermal_weights(k, beta, m=2):
    """Boltzmann weights exp(-beta * eps)/Z of the eigenvalues of H_K."""
    evals, _ = _entanglement_eigh(k, m)
    w = np.exp(-beta * (evals - evals.min()))
    return w / w.sum()


def entanglement_hamiltonian_by_tuples(k, m=2):
    """H_K with parabolic bond weights, built by a loop over label tuples and
    bonds: a like bond adds its weight on the diagonal, an unlike bond at the
    swapped tuple's row."""
    dim = m**k
    h = np.zeros((dim, dim))
    for col, s in enumerate(all_motifs(m, k)):
        for i in range(k - 1):
            coef = (i + 1) * (k - i - 1) / k
            if s[i] == s[i + 1]:
                h[col, col] += coef
            else:
                t = s[:i] + (s[i + 1], s[i]) + s[i + 2:]
                h[motif_index(t, m), col] += coef
    return h


def motif_symmetry_classes_by_tuples(k, m):
    """Orbits of label tuples under relabeling and reflection, each a sorted
    tuple, in order of their first member in lexicographic order."""
    seen = set()
    classes = []
    for mo in all_motifs(m, k):
        if mo in seen:
            continue
        members = set()
        for perm in permutations(range(m)):
            relabeled = tuple(perm[x] for x in mo)
            members.add(relabeled)
            members.add(relabeled[::-1])
        members = tuple(sorted(members))
        classes.append(members)
        seen.update(members)
    return classes
