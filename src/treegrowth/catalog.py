"""Constructors for the standard families of tree automorphism groups.

All constructors return validated FamilySpec instances.  Spinal-type groups
are built from SpinalData: a finite abelian group B given as a product of
cyclic groups, a root group A inside Sym(d), and an eventually periodic
sequence of (d-1)-tuples of homomorphisms B -> Sym(d).  The letter b at one
level decomposes as (w_1(b), ..., w_{d-1}(b), b-at-next-level) with trivial
root permutation, and rooted letters decompose trivially.
"""

from dataclasses import dataclass, field
from itertools import accumulate, product

from . import perms
from .family import FamilyError, FamilySpec, GeneratorSpec, LevelSpec, validate


class CatalogError(ValueError):
    """A construction parameter violates a defining condition."""


def _validated(spec):
    """The spec itself, its validation report kept as meta["validation"],
    or CatalogError naming its first failed check."""
    report = spec.meta["validation"] = validate(spec)
    if not report.ok:
        bad = report.failures()[0]
        raise CatalogError(f"{bad.check}: {bad.detail or 'check failed'}")
    return spec


# -- finite abelian B and homomorphisms into Sym(d) ------------------------

def b_elements(orders):
    return list(product(*(range(n) for n in orders)))


def b_neg(x, orders):
    return tuple((-a) % n for a, n in zip(x, orders))


def perm_pow(p, k):
    q = perms.identity(len(p))
    for _ in range(k):
        q = perms.compose(q, p)
    return q


def apply_hom(hom, b):
    """hom is a tuple of image permutations of B's standard generators."""
    d = len(hom[0])
    out = perms.identity(d)
    for img, k in zip(hom, b):
        out = perms.compose(out, perm_pow(img, k))
    return out


def hom_kernel(hom, orders):
    d = len(hom[0])
    ident = perms.identity(d)
    return {b for b in b_elements(orders) if apply_hom(hom, b) == ident}


def perm_name(p):
    return "a" + "".join(str(x) for x in p)


def b_name(b):
    return "b" + "".join(str(x) for x in b)


@dataclass
class SpinalData:
    degree: int
    orders: tuple                 # cyclic factors of B
    a_perms: tuple                # generators of the root group at level 0
    omega_pre: tuple              # preperiod of (d-1)-tuples of homomorphisms
    omega_per: tuple              # period of (d-1)-tuples of homomorphisms
    name: str = ""
    meta: dict = field(default_factory=dict)

    @property
    def num_omega_classes(self):
        return len(self.omega_pre) + len(self.omega_per)

    def omega_at(self, k):
        p = len(self.omega_pre)
        return (self.omega_pre[k] if k < p
                else self.omega_per[(k - p) % len(self.omega_per)])


def _level_kernels(data):
    """Common kernel of each of the p+q homomorphism tuples: the elements of
    B that every homomorphism of omega_at(k) sends to the identity, all of B
    for an empty tuple.  One pass serves the kernel condition and
    kernel_depth."""
    orders = data.orders
    out = []
    for k in range(data.num_omega_classes):
        ker = set(b_elements(orders))
        for hom in data.omega_at(k):
            ker &= hom_kernel(hom, orders)
        out.append(ker)
    return out


def _depth(kernels):
    # every kernel holds the identity, so size 1 is trivial
    return next((l for l, ker in enumerate(accumulate(kernels, set.__and__))
                 if len(ker) == 1), None)


def kernel_depth(data):
    """Least l with the kernels of the first l+1 homomorphism tuples meeting
    trivially, or None if no such l exists within one preperiod+period;
    read off _level_kernels(data)."""
    return _depth(_level_kernels(data))


def spinal(data):
    """FamilySpec of the spinal group defined by SpinalData.

    The root group at level k >= 1 is generated by the images of the
    homomorphisms one level up, so that every child of a level-(k-1)
    generator is a generator at level k.
    """
    if not data.omega_per:
        raise CatalogError("period must be nonempty")
    d = data.degree
    orders = data.orders
    p, q = len(data.omega_pre), len(data.omega_per)
    kernels = _level_kernels(data)
    # offsets past p repeat offset p: the period wraps round
    for start in range(p + 1):
        ker = set.intersection(*kernels[start:])
        if len(ker) > 1:
            raise CatalogError(
                f"kernel_condition: homomorphisms from offset {start} onward "
                f"have common kernel of size {len(ker)} > 1")
    nlevels = p + q + 1  # preperiod p+1, then one full period

    ident = perms.identity(d)
    a_sets = []
    for k in range(nlevels):
        if k == 0:
            gens = [tuple(a) for a in data.a_perms]
        else:
            gens = [apply_hom(hom, b) for hom in data.omega_at(k - 1)
                    for b in b_elements(orders)]
        a_sets.append(sorted(perms.closure(gens, d)))

    levels = []
    for k in range(nlevels):
        gens = []
        for a in a_sets[k]:
            if a == ident:
                continue
            gens.append(GeneratorSpec(
                name=perm_name(a), pseudolength=0,
                inverse=perm_name(perms.inverse(a)),
                root=a, children=((),) * d))
        homs = data.omega_at(k)
        for b in b_elements(orders):
            if b == (0,) * len(orders):
                continue
            ch = []
            for j in range(d - 1):
                img = apply_hom(homs[j], b)
                ch.append(() if img == ident else (perm_name(img),))
            ch.append((b_name(b),))
            gens.append(GeneratorSpec(
                name=b_name(b), pseudolength=1,
                inverse=b_name(b_neg(b, orders)),
                root=ident, children=tuple(ch)))
        levels.append(LevelSpec(tuple(gens)))

    meta = dict(data.meta, kind="spinal", orders=orders,
                kernel_depth=_depth(kernels))
    # purely periodic input whose given root group matches the derived one
    # needs no preperiod seam; fewer level classes means smaller tables
    if p == 0 and levels[0] == levels[q]:
        spec = FamilySpec(d, (), tuple(levels[:q]), name=data.name, meta=meta)
    else:
        spec = FamilySpec(d, tuple(levels[:p + 1]), tuple(levels[p + 1:]),
                          name=data.name, meta=meta)
    return _validated(spec)


# -- named families --------------------------------------------------------

def _cycle(d):
    return tuple((x + 1) % d for x in range(d))


def grigorchuk_p(p, pre, per, name=""):
    """Group over B = (Z/p)^2 defined by an eventually periodic sequence of
    indices in {0..p}: index k < p selects (x,y) -> x+ky, index p selects
    (x,y) -> y as the epimorphism onto the cyclic root group."""
    if p < 2:
        raise CatalogError(f"B = (Z/p)^2 needs p at least 2, got {p}")
    a = _cycle(p)

    def hom_for(k):
        if not 0 <= k <= p:
            raise CatalogError(f"index {k} out of range 0..{p}")
        if k == p:
            first = perms.identity(p)
            second = a
        else:
            first = a
            second = perm_pow(a, k)
        trivial = (perms.identity(p), perms.identity(p))
        return ((first, second),) + (trivial,) * (p - 2)

    data = SpinalData(p, (p, p), (a,),
                      tuple(hom_for(k) for k in pre),
                      tuple(hom_for(k) for k in per),
                      name=name or f"grigorchuk_p({p},{list(pre)}+{list(per)})")
    return spinal(data)


def first_grigorchuk():
    return grigorchuk_p(2, (), (0, 1, 2), name="first_grigorchuk")


def _matmul(m1, m2, p):
    n = len(m1)
    return tuple(tuple(sum(m1[i][k] * m2[k][j] for k in range(n)) % p
                       for j in range(n)) for i in range(n))


def _mat_order(m, p):
    n = len(m)
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    acc = m
    for k in range(1, 10001):
        if acc == ident:
            return k
        acc = _matmul(acc, m, p)
    raise CatalogError("matrix order exceeds cap 10000")


def sunic(p, m, a_coeffs=(), name=""):
    """Spinal group over B = (Z/p)^m with defining sequence given by the
    row functional (0...0 1) composed with powers of the companion-style
    matrix whose first row is (0...0 -1) and last column (-1, a_1..a_{m-1})."""
    if p < 2:
        raise CatalogError(f"B = (Z/p)^m needs p at least 2, got {p}")
    if m < 1:
        raise CatalogError(f"B = (Z/p)^m needs m at least 1, got {m}")
    if len(a_coeffs) != m - 1:
        raise CatalogError(f"expected {m - 1} coefficients, got {len(a_coeffs)}")
    rho = []
    for i in range(m):
        row = [0] * m
        if i > 0:
            row[i - 1] = 1
        row[m - 1] = (-1) % p if i == 0 else a_coeffs[i - 1] % p
        rho.append(tuple(row))
    rho = tuple(rho)
    order = _mat_order(rho, p)

    a = _cycle(p)
    trivial_hom = tuple(perms.identity(p) for _ in range(m))

    homs = []
    mat = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
    for _ in range(order):
        # the row functional (0...0 1) picks the last row of mat
        first = tuple(perm_pow(a, e) for e in mat[m - 1])
        homs.append((first,) + (trivial_hom,) * (p - 2))
        mat = _matmul(mat, rho, p)

    data = SpinalData(p, (p,) * m, (a,), (), tuple(homs),
                      name=name or f"sunic({p},{m},{list(a_coeffs)})")
    return spinal(data)


def ggs(d, epsilon, name=""):
    """GGS group on T_d: constant spinal data with the j-th homomorphism
    sending the generator of B = Z/d to the rooted d-cycle raised to e_j."""
    import math
    if d < 2:
        raise CatalogError(f"the tree T_d needs d at least 2, got {d}")
    epsilon = tuple(e % d for e in epsilon)
    if len(epsilon) != d - 1:
        raise CatalogError(f"expected {d - 1} exponents, got {len(epsilon)}")
    if all(e == 0 for e in epsilon):
        raise CatalogError("gcd_condition: exponent vector is zero")
    if math.gcd(*epsilon, d) != 1:
        raise CatalogError(
            f"gcd_condition: gcd{epsilon + (d,)} = {math.gcd(*epsilon, d)} != 1")
    a = _cycle(d)
    homs = tuple((perm_pow(a, e),) for e in epsilon)
    data = SpinalData(d, (d,), (a,), (), (homs,),
                      name=name or f"ggs({d},{list(epsilon)})")
    return spinal(data)


def fabrykowski_gupta():
    return ggs(3, (1, 0), name="fabrykowski_gupta")


def gupta_sidki():
    return ggs(3, (1, 1), name="gupta_sidki")


def nekrashevych_D(pre, per, name=""):
    """Binary-tree family generated by the rooted swap and two involutions
    beta = (swap, gamma') and gamma = (beta', 1) or (1, beta') per the bit at
    each level of an eventually periodic 0/1 sequence."""
    swap = (1, 0)
    ident = perms.identity(2)
    bits = list(pre) + list(per)
    if any(b not in (0, 1) for b in bits):
        raise CatalogError("bits must be 0 or 1")

    def level_for(bit):
        alpha = GeneratorSpec("alpha", 0, "alpha", swap, ((), ()))
        beta = GeneratorSpec("beta", 1, "beta", ident, (("alpha",), ("gamma",)))
        gch = (("beta",), ()) if bit == 0 else ((), ("beta",))
        gamma = GeneratorSpec("gamma", 1, "gamma", ident, gch)
        return LevelSpec((alpha, beta, gamma))

    spec = FamilySpec(2, tuple(level_for(b) for b in pre),
                      tuple(level_for(b) for b in per),
                      name=name or f"nekrashevych_D({list(pre)}+{list(per)})",
                      meta={"kind": "nekrashevych"})
    return _validated(spec)


def neumann_pairs():
    """All (a, x) with a an even permutation of 6 points fixing x."""
    return [(a, x) for a in perms.all_perms(6)
            if sum(a[j] > a[i] for i in range(6) for j in range(i)) % 2 == 0
            for x in range(6) if a[x] == x]


def neumann6(name="neumann6"):
    """Self-similar group on T_6 generated by b_(a,x) = (1,..,b_(a,x),..,1)a
    over all even a fixing x.  The six pairs with trivial a define the
    identity automorphism and are omitted from the generating set."""
    ident = perms.identity(6)
    gens = []
    for a, x in neumann_pairs():
        if a == ident:
            continue
        nm = f"n{''.join(str(v) for v in a)}_{x}"
        inv = perms.inverse(a)
        ch = tuple((nm,) if y == x else () for y in range(6))
        gens.append(GeneratorSpec(
            name=nm, pseudolength=1,
            inverse=f"n{''.join(str(v) for v in inv)}_{x}",
            root=a, children=ch))
    spec = FamilySpec(6, (), (LevelSpec(tuple(gens)),), name=name,
                      meta={"kind": "neumann"})
    return _validated(spec)
