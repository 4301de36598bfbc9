import re

import pytest

from treegrowth import catalog, perms
from treegrowth.catalog import (CatalogError, SpinalData, b_elements, b_neg,
                                hom_kernel, kernel_depth)


def test_b_arithmetic():
    orders = (2, 3)
    assert len(b_elements(orders)) == 6
    assert b_neg((1, 2), orders) == (1, 1)


def test_hom_kernel():
    a = (1, 2, 0)
    hom = (a,)                     # generator of Z/3 -> full cycle
    assert hom_kernel(hom, (3,)) == {(0,)}
    hom_triv = (perms.identity(3),)
    assert hom_kernel(hom_triv, (3,)) == {(0,), (1,), (2,)}


def test_kernel_depth_fg():
    spec = catalog.fabrykowski_gupta()
    assert spec.meta["kernel_depth"] == 0


def test_kernel_depth_grigorchuk():
    spec = catalog.first_grigorchuk()
    # each defining epimorphism alone has nontrivial kernel; two consecutive
    # ones intersect trivially
    assert spec.meta["kernel_depth"] == 1


def test_fg_purely_periodic_single_class():
    spec = catalog.fabrykowski_gupta()
    assert spec.num_classes == 1
    assert spec.degree == 3
    level = spec.level(0)
    assert sorted(g.name for g in level.zero_generators) == ["a120", "a201"]
    assert sorted(g.name for g in level.unit_generators) == ["b1", "b2"]


def test_first_grigorchuk_shape():
    spec = catalog.first_grigorchuk()
    assert spec.degree == 2
    assert spec.num_classes == 3
    for c in spec.classes():
        level = spec.level(c)
        assert len(level.zero_generators) == 1      # the rooted swap
        assert len(level.unit_generators) == 3      # b, c, d analogues


def test_gupta_sidki_classes():
    assert catalog.gupta_sidki().num_classes == 1


def test_sunic_class_counts():
    assert catalog.sunic(3, 2, (0,)).num_classes == 4
    assert catalog.sunic(3, 2, (1,)).num_classes == 6
    assert catalog.sunic(3, 2, (2,)).num_classes == 3


def test_sunic_coefficient_count():
    with pytest.raises(CatalogError):
        catalog.sunic(3, 2, ())


def test_sunic_rejects_empty_base():
    with pytest.raises(CatalogError, match="m at least 1, got 0"):
        catalog.sunic(3, 0, ())


@pytest.mark.parametrize("p", [0, 1])
def test_sunic_rejects_p_below_2(p):
    with pytest.raises(CatalogError, match=f"p at least 2, got {p}"):
        catalog.sunic(p, 1, ())


@pytest.mark.parametrize("p", [0, 1, -3])
def test_grigorchuk_p_rejects_p_below_2(p):
    with pytest.raises(CatalogError, match=re.escape(
            f"B = (Z/p)^2 needs p at least 2, got {p}")):
        catalog.grigorchuk_p(p, (), (0,))


@pytest.mark.parametrize("d", [0, 1, -3])
def test_ggs_rejects_d_below_2(d):
    with pytest.raises(CatalogError,
                       match=f"the tree T_d needs d at least 2, got {d}"):
        catalog.ggs(d, (1,))


@pytest.mark.parametrize("pre,offset", [((), 0), ((3,), 1)])
def test_kernel_condition_names_the_first_failing_offset(pre, offset):
    # over (Z/3)^2, index 0 alone has a kernel of size 3; index 3 in the
    # preperiod would meet it trivially, but only from offset 0
    with pytest.raises(CatalogError) as exc:
        catalog.grigorchuk_p(3, pre, (0,))
    assert str(exc.value) == (
        f"kernel_condition: homomorphisms from offset {offset} onward "
        f"have common kernel of size 3 > 1")


def test_kernel_depth_reads_the_level_kernels():
    a, e = (1, 0), (0, 1)
    homs = (((a, e),), ((a, a),), ((e, a),))     # first Grigorchuk's
    assert kernel_depth(SpinalData(2, (2, 2), (a,), (), homs)) == 1
    # one epimorphism of (Z/2)^2 onto Z/2 keeps a kernel of size 2
    assert kernel_depth(SpinalData(2, (2, 2), (a,), (), homs[:1])) is None


def test_ggs_rejects_zero_vector():
    with pytest.raises(CatalogError, match="gcd_condition"):
        catalog.ggs(3, (0, 0))


def test_ggs_rejects_gcd_violation():
    with pytest.raises(CatalogError, match="gcd_condition"):
        catalog.ggs(4, (2, 0, 2))


def test_ggs_length_check():
    with pytest.raises(CatalogError):
        catalog.ggs(3, (1,))


def test_spinal_rejects_kernel_violation():
    with pytest.raises(CatalogError, match="kernel_condition"):
        catalog.grigorchuk_p(3, (), (0,))


def test_grigorchuk_p3_valid():
    spec = catalog.grigorchuk_p(3, (), (0, 3))
    assert spec.degree == 3
    assert spec.meta["kernel_depth"] == 1


def test_nekrashevych_bits_checked():
    with pytest.raises(CatalogError):
        catalog.nekrashevych_D((), (2,))


def test_nekrashevych_gens():
    spec = catalog.nekrashevych_D((), (0, 1))
    assert spec.num_classes == 2
    names = sorted(g.name for g in spec.level(0).generators)
    assert names == ["alpha", "beta", "gamma"]


def test_neumann_pairs_count():
    pairs = catalog.neumann_pairs()
    assert len(pairs) == 360
    ident = perms.identity(6)
    assert sum(1 for a, x in pairs if a == ident) == 6


def test_neumann6_generators():
    spec = catalog.neumann6()
    level = spec.level(0)
    assert len(level.generators) == 354
    assert all(g.pseudolength == 1 for g in level.generators)
    # symmetric: the inverse of each generator is in the set
    names = {g.name for g in level.generators}
    assert all(g.inverse in names for g in level.generators)


def test_spinal_rejects_intransitive_roots():
    # homomorphism images generate only a point stabilizer, so the root
    # group of level 1 is intransitive
    swap01 = ((1, 0, 2),)
    data = SpinalData(3, (2,), ((1, 2, 0),),
                      (), ((swap01, swap01),))
    with pytest.raises(CatalogError, match="level_transitivity"):
        catalog.spinal(data)


def test_spinal_root_group_comes_from_the_homs_one_level_up():
    # over B = (Z/2)^2 the images of x generate the Klein four-group and
    # those of y a dihedral group of order 8, so the rooted generators of
    # a level tell which tuple sits one level up
    e, v1, v2 = (0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1)
    x = ((v1, v2), (e, e), (e, e))
    y = ((v1, (1, 0, 2, 3)), (v2, e), (e, e))
    spec = catalog.spinal(SpinalData(4, (2, 2), (v1, v2), (), (x, y)))
    assert [len(spec.level(c).zero_generators) for c in spec.classes()] \
        == [3, 3, 7]
