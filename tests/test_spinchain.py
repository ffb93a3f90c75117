"""Basis enumeration, symmetry group, equivalence classes, Marshall gauge."""

import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from conftest import tuples
from hypothesis import given, settings, strategies as st

from spinmotif.spinchain import (
    BasisTooLargeError,
    Reflect,
    Relabel,
    Translate,
    apply_symmetry,
    basis_size,
    class_count_lower_bound,
    enumerate_basis,
    group_generators,
    inverse,
    marshall_sign,
    marshall_signs,
    orbit,
    partition_classes,
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


@given(_state(), st.integers(-10, 10))
def test_translation_is_a_shift(sm, shift):
    m, s = sm
    n = len(s)
    t = apply_symmetry(Translate(shift), s)
    assert t == tuple(s[(i + shift) % n] for i in range(n))


@given(_state(), st.integers(0, 10))
def test_symmetry_inverses(sm, pivot):
    m, s = sm
    ops = [Translate(3), Reflect(pivot % len(s)),
           Relabel(tuple(range(1, m)) + (0,))]
    for op in ops:
        assert apply_symmetry(inverse(op), apply_symmetry(op, s)) == s


@given(_state())
def test_symmetries_preserve_sector(sm):
    m, s = sm
    for g in group_generators(m):
        t = apply_symmetry(g, s)
        assert sorted(t) == sorted(s)


@given(_state())
def test_orbit_is_closed_and_contains_origin(sm):
    m, s = sm
    orb = orbit(s, m)
    assert s in orb
    for t in orb:
        for g in group_generators(m):
            assert apply_symmetry(g, t) in orb


@given(SIZES)
@settings(deadline=None)
def test_partition_is_a_partition(size):
    n, m = size
    states = enumerate_basis(n, m)
    part = partition_classes(states, m)
    ids = part.class_ids.tolist()
    assert len(ids) == len(states) and set(ids) == set(range(len(part)))
    # every class is closed under the group generators
    basis = tuples(states)
    index = {s: i for i, s in enumerate(basis)}
    for s, c in zip(basis, ids):
        for g in group_generators(m):
            assert ids[index[apply_symmetry(g, s)]] == c
    # representatives (first members in the lex basis) come out in lex order
    first = np.unique(part.class_ids, return_index=True)[1]
    assert (np.diff(first) > 0).all()


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
    assert marshall_sign((0, 1, 0, 1)) == 1  # downs on sites 0, 2: zero
    assert marshall_sign((1, 0, 1, 0)) == 1  # downs on sites 1, 3... on even: 2
    assert marshall_sign((1, 0, 0, 1)) == -1
    with pytest.raises(ValueError):
        marshall_sign((0, 1, 2))


def test_marshall_signs_match_scalar():
    states = enumerate_basis(10, 2)
    assert marshall_signs(states).tolist() == [marshall_sign(s) for s in tuples(states)]
    with pytest.raises(ValueError):
        marshall_signs(enumerate_basis(6, 3))


@given(st.sampled_from(tuples(enumerate_basis(8, 2))))
def test_marshall_sign_flips_on_unlike_adjacent_swap(s):
    n = len(s)
    for i in range(n):
        j = (i + 1) % n
        if s[i] != s[j]:
            lst = list(s)
            lst[i], lst[j] = lst[j], lst[i]
            assert marshall_sign(tuple(lst)) == -marshall_sign(s)
