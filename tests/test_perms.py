import pytest
from hypothesis import given, strategies as st

from treegrowth import perms


def perm_strategy(d):
    return st.permutations(list(range(d))).map(tuple)


def test_identity():
    assert perms.identity(4) == (0, 1, 2, 3)


def test_compose_order():
    # (p o q)(x) = p(q(x))
    p = (1, 2, 0)
    q = (0, 2, 1)
    assert perms.compose(p, q) == tuple(p[q[x]] for x in range(3))


def test_is_perm():
    assert perms.is_perm((1, 0, 2), 3)
    assert not perms.is_perm((1, 1, 2), 3)
    assert not perms.is_perm((1, 0), 3)


@given(perm_strategy(5))
def test_inverse_involution(p):
    assert perms.inverse(perms.inverse(p)) == p
    assert perms.compose(p, perms.inverse(p)) == perms.identity(5)


@given(perm_strategy(4), perm_strategy(4), perm_strategy(4))
def test_compose_associative(p, q, r):
    assert perms.compose(perms.compose(p, q), r) == \
        perms.compose(p, perms.compose(q, r))


def test_closure_cyclic():
    c = (1, 2, 0)
    assert len(perms.closure([c], 3)) == 3


def test_closure_symmetric():
    assert len(perms.closure([(1, 0, 2), (1, 2, 0)], 3)) == 6


def test_closure_cap():
    with pytest.raises(RuntimeError):
        perms.closure([(1, 0, 2), (1, 2, 0)], 3, cap=4)


def test_orbit_and_transitivity():
    swap01 = (1, 0, 2, 3)
    assert perms.orbit([swap01], 0, 4) == {0, 1}
    assert not perms.is_transitive([swap01], 4)
    assert perms.is_transitive([(1, 2, 3, 0)], 4)


def test_all_perms():
    assert len(perms.all_perms(4)) == 24
