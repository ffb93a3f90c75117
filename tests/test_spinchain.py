"""Basis enumeration, symmetry group, equivalence classes, Marshall gauge."""

import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from conftest import (
    canonical_codes_by_orientation,
    generators,
    marshall_sign,
    orbit,
    rotation_min_codes_by_rotation,
    tuples,
)
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from spinmotif import spinchain
from spinmotif.spinchain import (
    BasisTooLargeError,
    basis_size,
    canonical_codes,
    class_count_lower_bound,
    enumerate_basis,
    marshall_signs,
    partition_classes,
    rotation_min_codes,
    state_codes,
    translation_representatives,
)

SIZES = st.sampled_from([(4, 2), (6, 2), (8, 2), (6, 3), (9, 3), (8, 4)])


def test_basis_size_matches_multinomial():
    assert basis_size(8, 2) == math.comb(8, 4)
    assert basis_size(12, 3) == math.factorial(12) // math.factorial(4) ** 3
    assert basis_size(6, 2) == 20


@given(SIZES)
def test_enumeration_count_and_order(size):
    n, m = size
    states = enumerate_basis(n, m)
    assert states.dtype == np.uint8 and states.shape == (basis_size(n, m), n)
    basis = tuples(states)
    assert basis == sorted(basis)
    assert len(set(basis)) == len(basis)
    for s in basis:
        for label in range(m):
            assert s.count(label) == n // m


def test_invalid_sizes_rejected():
    with pytest.raises(ValueError):
        enumerate_basis(7, 2)
    with pytest.raises(ValueError):
        enumerate_basis(4, 1)
    with pytest.raises(BasisTooLargeError):
        enumerate_basis(40, 2, cap=1000)


@st.composite
def _state(draw):
    n, m = draw(SIZES)
    basis = tuples(enumerate_basis(n, m))
    return m, draw(st.sampled_from(basis))


@given(_state())
def test_orbit_is_closed_and_contains_origin(sm):
    m, s = sm
    orb = orbit(s, m)
    assert s in orb
    for t in orb:
        for g in generators(m):
            assert g(t) in orb


@given(SIZES)
@settings(deadline=None)
def test_partition_is_a_partition(size):
    n, m = size
    states = enumerate_basis(n, m)
    part = partition_classes(states, m)
    ids = part.class_ids.tolist()
    assert len(ids) == len(states) and set(ids) == set(range(len(part)))
    # every class is closed under translation, reversal and relabeling
    codes = state_codes(states, m)
    images = [np.roll(states, 1, 1), states[:, ::-1]]
    images += [np.asarray(perm, dtype=np.uint8)[states] for perm in permutations(range(m))]
    for image in images:
        image_codes = state_codes(image, m)
        partner = np.searchsorted(codes, image_codes)
        assert np.array_equal(codes[partner], image_codes)
        assert np.array_equal(part.class_ids[partner], part.class_ids)
    # representatives (first members in the lex basis) come out in lex order
    first = np.unique(part.class_ids, return_index=True)[1]
    assert (np.diff(first) > 0).all()
    assert np.array_equal(part.representatives, first)


def reference_classes(basis, m):
    """Orbit-BFS partition: classes in order of first (lex-least) member."""
    classes, seen = [], set()
    for s in basis:
        if s not in seen:
            members = tuple(sorted(orbit(s, m)))
            seen.update(members)
            classes.append(members)
    return classes


@pytest.mark.parametrize("n,m", [(2, 2), (4, 2), (6, 2), (8, 2), (10, 2), (12, 2),
                                 (3, 3), (6, 3), (9, 3), (4, 4), (8, 4)])
def test_partition_matches_orbit_reference(n, m):
    states = enumerate_basis(n, m)
    basis = tuples(states)
    part = partition_classes(states, m)
    reference = reference_classes(basis, m)
    assert len(part) == len(reference)
    class_of = {s: idx for idx, cls in enumerate(reference) for s in cls}
    assert part.class_ids.tolist() == [class_of[s] for s in basis]


@pytest.mark.parametrize("n,m", [(2, 2), (4, 2), (8, 2), (10, 2), (12, 2),
                                 (3, 3), (6, 3), (9, 3), (12, 3)])
def test_translation_representatives_one_per_rotation_orbit(n, m):
    states = enumerate_basis(n, m)
    reps = translation_representatives(states, m)
    reference = sorted({min(s[i:] + s[:i] for i in range(n)) for s in tuples(states)})
    assert tuples(reps) == reference


@st.composite
def _label_rows(draw):
    """Unsorted rows of labels in 0..M-1 with no balance constraint, the kind
    of input ``sector_hamiltonian`` passes (swapped representatives)."""
    m = draw(st.integers(2, 4))
    n = draw(st.integers(1, 12))
    rows = draw(st.integers(1, 40))
    return m, draw(arrays(np.uint8, (rows, n), elements=st.integers(0, m - 1)))


@given(_label_rows())
@settings(deadline=None)
def test_canonical_codes_match_orientation_reference_on_label_rows(rows):
    m, states = rows
    assert np.array_equal(canonical_codes(states, m), canonical_codes_by_orientation(states, m))
    assert np.array_equal(rotation_min_codes(states, m),
                          rotation_min_codes_by_rotation(states, m))


@pytest.mark.parametrize("n,m", [(29, 2), (30, 2), (32, 2), (18, 3), (19, 3), (14, 4), (15, 4)])
def test_canonical_codes_match_reference_at_the_int32_limit(n, m):
    # the rotation scan runs in int32 while M^(N+1) < 2^31: sizes on both
    # sides of that limit per M, and N=32, whose codes no longer fit int32
    states = np.random.default_rng(n * m).integers(0, m, (300, n)).astype(np.uint8)
    assert np.array_equal(canonical_codes(states, m), canonical_codes_by_orientation(states, m))
    rotation_min = rotation_min_codes(states, m)
    assert rotation_min.dtype == np.int64
    assert np.array_equal(rotation_min, rotation_min_codes_by_rotation(states, m))


@pytest.mark.parametrize("n,m", [(16, 2), (18, 2), (12, 3)])
def test_canonical_codes_match_reference_across_blocks(n, m):
    states = enumerate_basis(n, m)
    # more than one block, and a short last block
    assert len(states) > spinchain._BLOCK_ROWS and len(states) % spinchain._BLOCK_ROWS
    assert np.array_equal(canonical_codes(states, m), canonical_codes_by_orientation(states, m))
    shuffled = states[np.random.default_rng(n).permutation(len(states))]
    assert np.array_equal(canonical_codes(shuffled, m),
                          canonical_codes_by_orientation(shuffled, m))


@pytest.mark.parametrize("n", [16, 18])
def test_partition_matches_unique_construction(n):
    states = enumerate_basis(n, 2)
    part = partition_classes(states, 2)
    codes, first, class_ids = np.unique(canonical_codes_by_orientation(states, 2),
                                        return_index=True, return_inverse=True)
    assert len(part) == len(codes)
    assert np.array_equal(part.class_ids, class_ids)
    assert np.array_equal(part.representatives, first)


def test_sector_states_match_permutation_reference():
    for n, m in [(2, 2), (8, 2), (6, 3), (8, 4)]:
        states = enumerate_basis(n, m)
        assert states.dtype == np.uint8
        labels = tuple(label for label in range(m) for _ in range(n // m))
        reference = sorted(set(permutations(labels)))
        assert tuples(states) == reference


def test_known_class_counts():
    # N=8, M=2: seven orbits of the 70-state sector
    basis = enumerate_basis(8, 2)
    assert len(partition_classes(basis, 2)) == 7


@given(SIZES)
@settings(deadline=None)
def test_class_count_lower_bound_holds(size):
    n, m = size
    basis = enumerate_basis(n, m)
    part = partition_classes(basis, m)
    bound = class_count_lower_bound(n, m)
    assert isinstance(bound, Fraction)
    assert Fraction(len(part)) >= bound


def test_marshall_sign_values():
    # downs on even sites: none, two (sites 0, 2), one (site 0)
    states = np.array([(0, 1, 0, 1), (1, 0, 1, 0), (1, 0, 0, 1)], dtype=np.uint8)
    assert marshall_signs(states).tolist() == [1, 1, -1]
    with pytest.raises(ValueError):
        marshall_signs(np.array([(0, 1, 2)], dtype=np.uint8))


def test_marshall_signs_match_scalar():
    states = enumerate_basis(10, 2)
    assert marshall_signs(states).tolist() == [marshall_sign(s) for s in tuples(states)]
    with pytest.raises(ValueError):
        marshall_signs(enumerate_basis(6, 3))


@given(st.sampled_from(tuples(enumerate_basis(8, 2))))
def test_marshall_sign_flips_on_unlike_adjacent_swap(s):
    row = np.array([s], dtype=np.uint8)
    n = len(s)
    for i in range(n):
        j = (i + 1) % n
        if s[i] != s[j]:
            swapped = row.copy()
            swapped[0, [i, j]] = swapped[0, [j, i]]
            assert marshall_signs(swapped)[0] == -marshall_signs(row)[0]
