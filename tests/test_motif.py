"""Motif counting, exact rank, ambiguity construction, operator selection."""

import numpy as np
import pytest
from conftest import (
    conjugate,
    float_rank,
    motif_index,
    motif_symmetry_classes_by_tuples,
    orbit,
    tuples,
)
from hypothesis import given, settings, strategies as st

from spinmotif import motif
from spinmotif.motif import (
    PRIME,
    _bareiss_pivots,
    _left_kernel_mod_p,
    all_motifs,
    ambiguous_pair,
    critical_kernel_size,
    independent_rows,
    integer_rank,
    motif_count_matrix,
    motif_count_rows,
    motif_symmetry_classes,
    rank_scan,
)
from spinmotif.spinchain import enumerate_basis, partition_classes


def reference_count_matrix(basis, k, m):
    """The per-state, per-window counting loop the vectorized counter replaced."""
    cols = []
    for s in basis:
        counts = np.zeros(m**k, dtype=np.int64)
        ext = s + s[: k - 1]
        for i in range(len(s)):
            counts[motif_index(ext[i : i + k], m)] += 1
        cols.append(counts)
    return np.stack(cols, axis=1)


def test_motif_ordering_and_index():
    motifs = all_motifs(2, 3)
    assert motifs[0] == (0, 0, 0)
    assert motifs[-1] == (1, 1, 1)
    for i, mo in enumerate(motifs):
        assert motif_index(mo, 2) == i
    assert motif_index((1, 0, 2), 3) == 9 + 2


@given(st.sampled_from(tuples(enumerate_basis(8, 2))), st.integers(1, 8))
def test_motif_vector_sums_to_n(s, k):
    vec = motif_count_matrix(np.array([s], dtype=np.uint8), k, 2)[:, 0]
    assert vec.sum() == len(s)
    assert (vec >= 0).all()


def test_motif_vector_by_hand():
    # 001011 has cyclic 2-windows 00,01,10,01,11,10
    vec = motif_count_matrix(np.array([(0, 0, 1, 0, 1, 1)], dtype=np.uint8), 2, 2)[:, 0]
    assert list(vec) == [1, 2, 2, 1]


@given(st.sampled_from(tuples(enumerate_basis(8, 2))), st.integers(1, 4))
def test_motif_vector_translation_invariant(s, k):
    counts = motif_count_matrix(np.array([s, s[1:] + s[:1]], dtype=np.uint8), k, 2)
    assert np.array_equal(counts[:, 0], counts[:, 1])


def test_conjugate():
    assert conjugate((0, 1, 1)) == (1, 0, 0)
    with pytest.raises(ValueError):
        conjugate((0, 2))


@pytest.mark.parametrize("n,m", [(2, 2), (4, 2), (6, 2), (8, 2), (10, 2), (3, 3), (6, 3), (9, 3)])
def test_motif_count_matrix_matches_window_loop(n, m):
    basis = enumerate_basis(n, m)
    for k in range(1, n + 1):
        # thin out the basis where m**k columns would make the matrix large
        states = basis[:: max(1, m**k * len(basis) // 2_000_000)]
        mcm = motif_count_matrix(states, k, m)
        expected = reference_count_matrix(tuples(states), k, m)
        assert mcm.dtype == np.int64
        assert np.array_equal(mcm, expected)
        assert np.array_equal(motif_count_matrix(states[-1:], k, m)[:, 0], expected[:, -1])
        picked = np.arange(m**k)[::-3]  # out of code order
        assert np.array_equal(motif_count_rows(states, picked, k, m), expected[picked])


def test_motif_count_rows_above_the_full_matrix_cap():
    # K = N = 28: the full count matrix of one class has 2**28 rows and is
    # refused, while a few selected rows of it are cheap
    rng = np.random.default_rng(7)
    s = tuple(int(x) for x in rng.permutation([0, 1] * 14))
    cls = tuple(sorted(orbit(s, 2)))
    members = np.array(cls, dtype=np.uint8)
    with pytest.raises(MemoryError):
        motif_count_matrix(members, 28, 2)
    picked = [s[3:] + s[:3], (0,) * 14 + (1,) * 14, cls[-1]]
    codes = np.array([motif_index(mo, 2) for mo in picked])
    counts = motif_count_rows(members, codes, 28, 2)
    expected = [[sum((t + t)[i : i + 28] == mo for i in range(28)) for t in cls]
                for mo in picked]
    assert np.array_equal(counts, expected)
    for bad in ([codes[0], codes[0]], [], [-1], [2**28]):
        with pytest.raises(ValueError):
            motif_count_rows(members, np.array(bad, dtype=np.int64), 28, 2)


def test_motif_count_matrix_checks_sizes():
    basis = enumerate_basis(6, 2)
    with pytest.raises(ValueError):
        motif_count_matrix(basis, 0, 2)
    with pytest.raises(ValueError):
        motif_count_matrix(basis, 7, 2)
    with pytest.raises(MemoryError):
        motif_count_matrix(basis, 3, 2, max_entries=8 * len(basis) - 1)


@st.composite
def redundant_integer_matrices(draw):
    """Small integer matrices built from repeated columns, repeated rows and
    zero rows of a random base (possibly empty).  Entries range from small
    counts to multiples of the elimination prime and values near 2**40; the
    base also holds a combination of its first two rows, so large entries
    come with rank deficiency."""
    n_rows, n_cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entry = st.one_of(st.integers(-3, 3), st.integers(-2**40, 2**40),
                      st.sampled_from([PRIME, -PRIME, 2 * PRIME, PRIME + 1]))
    cells = draw(st.lists(entry, min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    base = np.zeros((n_rows + 2, n_cols), dtype=np.int64)  # last row stays zero
    base[:n_rows] = np.reshape(cells, (n_rows, n_cols))
    base[n_rows] = a * base[0] + b * base[min(1, n_rows - 1)]
    rows = draw(st.lists(st.integers(0, n_rows + 1), max_size=8))
    cols = draw(st.lists(st.integers(0, n_cols - 1), max_size=8))
    return base[np.array(rows, dtype=np.intp)][:, np.array(cols, dtype=np.intp)]


@given(redundant_integer_matrices())
def test_integer_rank_equals_undeduplicated_elimination(mat):
    rank = len(_bareiss_pivots(mat.tolist()))
    assert integer_rank(mat) == rank
    rows = independent_rows(mat)
    assert len(rows) == rank == len(_bareiss_pivots(mat[rows].tolist()))
    rows = independent_rows(mat.astype(object))
    assert len(rows) == rank == len(_bareiss_pivots(mat[rows].tolist()))


def test_python_integer_entries_past_int64():
    mat = np.array([[2**70, 1], [2**71, 2], [0, 1]], dtype=object)
    assert integer_rank(mat) == 2
    rows = independent_rows(mat).tolist()
    assert rows in ([0, 2], [1, 2])


@pytest.fixture
def bareiss_calls(monkeypatch):
    """Counts the calls ``integer_rank`` makes to its Bareiss fallback."""
    calls = []

    def counting(rows):
        calls.append(len(rows))
        return _bareiss_pivots(rows)

    monkeypatch.setattr(motif, "_bareiss_pivots", counting)
    return calls


@pytest.mark.parametrize("mat, rank", [
    # the only entry vanishes mod p, so the rank mod p is 0 and Y = [[1]] fails
    pytest.param([[PRIME]], 1, id="vanishes-mod-p"),
    # the left kernel is spanned by (-3/2, 1): no small integer lift exists
    pytest.param([[2], [3]], 1, id="kernel-needs-denominator"),
    # the kernel vector (-2**29, -2**40, 1) lifts mod p to (-2**29, -9728, 1):
    # 2**29 times entries of 2**40 breaks the int64 bound
    pytest.param([[0, 1], [1, 0], [2**40, 2**29]], 2, id="overflow-bound"),
])
def test_uncertified_rank_falls_back_to_bareiss(bareiss_calls, mat, rank):
    mat = np.array(mat, dtype=np.int64)
    rows = independent_rows(mat)
    assert len(rows) == rank == len(_bareiss_pivots(mat[rows].tolist()))
    assert len(bareiss_calls) == 1
    rank_p, _, y_pivot = _left_kernel_mod_p(mat)
    assert rank_p < len(mat)
    max_entry = int(np.abs(mat).max())
    if max_entry > 2**32:
        assert int(np.abs(y_pivot).max()) * max_entry * (rank_p + 1) >= 2**62


def test_integer_rank_small_cases():
    assert integer_rank(np.array([[1, 2], [2, 4]], dtype=np.int64)) == 1
    assert integer_rank(np.array([[1, 0], [0, 1]], dtype=np.int64)) == 2
    assert integer_rank(np.zeros((3, 3), dtype=np.int64)) == 0
    assert integer_rank(np.zeros((0, 3), dtype=np.int64)) == 0
    assert integer_rank(np.zeros((3, 0), dtype=np.int64)) == 0
    # a case where float elimination with a fixed threshold could waver
    mat = np.array([[1, 1], [1, 1], [2, 2]], dtype=np.int64)
    assert integer_rank(mat) == 1


@given(st.integers(2, 4))
@settings(deadline=None)
def test_rank_law_n10(k):
    # the 2^(K-1) law holds below K = N/2; at K = N/2 the rank saturates
    # at the equivalence-class count instead
    basis = enumerate_basis(10, 2)
    mcm = motif_count_matrix(basis, k, 2)
    rank = integer_rank(mcm)
    assert rank == 2 ** (k - 1)
    assert float_rank(mcm) == rank


def test_rank_law_breaks_at_half_chain():
    # at K = N/2 the rank falls short of 2^(K-1) but still reaches the
    # class count, so K* = N/2 is attainable
    basis = enumerate_basis(10, 2)
    n_classes = len(partition_classes(basis, 2))
    rank = integer_rank(motif_count_matrix(basis, 5, 2))
    assert rank < 2**4
    assert rank >= n_classes


def test_critical_kernel_size_n8():
    # rank must reach the 7 equivalence classes; 2^(K-1) >= 7 first at K=4
    assert critical_kernel_size(8, 2) == 4


# K = 1..K* for M = 2; N = 16 was cross-checked once against Bareiss on the
# deduplicated matrices, which takes about 30 s
RANK_SEQUENCES = {
    8: (7, [1, 2, 4, 7]),
    10: (13, [1, 2, 4, 8, 14]),
    12: (35, [1, 2, 4, 8, 16, 30, 52]),
    14: (85, [1, 2, 4, 8, 16, 32, 61, 113]),
    16: (257, [1, 2, 4, 8, 16, 32, 64, 125, 239, 422]),
}


@pytest.mark.parametrize("n", sorted(RANK_SEQUENCES))
def test_rank_scan_is_certified_without_fallback(n, bareiss_calls):
    n_classes, ranks, k_star = rank_scan(n, 2)
    assert (n_classes, ranks) == RANK_SEQUENCES[n]
    assert k_star == len(ranks)
    assert not bareiss_calls


def test_rank_scan_runs_to_k_max_past_k_star():
    n_classes, ranks, k_star = rank_scan(8, 2, k_max=8)
    assert (n_classes, k_star) == (7, 4)
    assert ranks[:4] == [1, 2, 4, 7] and len(ranks) == 8
    n_classes, ranks, k_star = rank_scan(10, 2, k_max=3)
    assert (ranks, k_star) == ([1, 2, 4], None)


def test_rank_sequence_and_critical_kernel_size_n12():
    basis = enumerate_basis(12, 2)
    ranks = [integer_rank(motif_count_matrix(basis, k, 2)) for k in range(1, 8)]
    assert ranks == [1, 2, 4, 8, 16, 30, 52]
    assert critical_kernel_size(12, 2) == 7


# the rows ambiguous_pair returns, pinned so that a change in its search order shows
AMBIGUOUS_PAIRS = {
    (9, 2, 3): [[0, 1, 0, 2, 0, 1, 1, 2, 2], [0, 2, 0, 1, 0, 1, 1, 2, 2]],
    (12, 3, 2): [[0, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1, 1], [0, 1, 1, 0, 1, 0, 0, 1, 0, 0, 1, 1]],
    (15, 4, 3): [[0, 1, 2, 0, 0, 1, 2, 1, 0, 1, 2, 0, 1, 2, 2],
                 [0, 1, 2, 1, 0, 1, 2, 0, 0, 1, 2, 0, 1, 2, 2]],
    (16, 4, 2): [[0, 1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 0, 1, 1, 1, 1],
                 [0, 1, 0, 1, 0, 1, 0, 0, 0, 1, 0, 0, 1, 1, 1, 1]],
    (20, 5, 2): [[0, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 0, 0, 1, 1, 1],
                 [0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 1, 1, 1]],
}


@pytest.mark.parametrize("n,k,m", [(9, 2, 3), (12, 3, 2), (15, 4, 3), (16, 4, 2), (20, 5, 2)])
def test_ambiguous_pair_construction(n, k, m):
    pair = ambiguous_pair(n, k, m)
    assert pair.dtype == np.uint8 and pair.shape == (2, n)
    assert pair.tolist() == AMBIGUOUS_PAIRS[n, k, m]
    for label in range(m):
        assert ((pair == label).sum(axis=1) == n // m).all()
    counts = reference_count_matrix(tuples(pair), k, m)
    assert np.array_equal(counts[:, 0], counts[:, 1])
    s1, s2 = tuples(pair)
    assert s2 not in orbit(s1, m)


def test_ambiguous_pair_requires_small_k():
    with pytest.raises(ValueError):
        ambiguous_pair(9, 3, 3)


def test_motif_symmetry_classes_partition():
    for k in (2, 3, 4):
        classes = motif_symmetry_classes(k, 2)
        assert np.array_equal(np.sort(np.concatenate(classes)), np.arange(2**k))
        motifs = all_motifs(2, k)
        for cls in classes:
            for code in cls:
                assert motif_index(conjugate(motifs[code]), 2) in cls
                assert motif_index(motifs[code][::-1], 2) in cls


@pytest.mark.parametrize("m,k", [(2, k) for k in range(1, 9)] + [(3, k) for k in range(1, 6)])
def test_motif_symmetry_classes_match_tuple_loop(m, k):
    classes = motif_symmetry_classes(k, m)
    expected = motif_symmetry_classes_by_tuples(k, m)
    assert len(classes) == len(expected)
    for cls, members in zip(classes, expected):
        assert cls.dtype == np.int64
        assert cls.tolist() == [motif_index(mo, m) for mo in members]
