"""Incompressible elements: the depth-k filtration, its stabilization on
enumerated balls, minimal incompressible factorizations, the level function,
and the ternary geodesic normal-form analysis.

The depth-k set at one level class contains the elements whose section
lengths are additive down to k levels.  The infinite intersection is
approximated from above by the depth-K set; when consecutive depths agree on
every enumerated ball the approximation is exact there, because sections of
ball elements stay inside the next ball.

Everything here runs on the A×A double-coset representatives of the sphere
tables.  The factorization DP multiplies through the table's ZeroGroup,
which forms each product in one wreath step and finds its representative,
so it reads no engine internals and interns no witness.
"""

from dataclasses import dataclass, field


class NotTernarySpinal(ValueError):
    pass


@dataclass
class IncompressibilityReport:
    K: int
    counts: dict                 # class -> list over k of per-radius counts
    first_fail: dict             # class -> {rep: least k with rep outside I_k}
    final: dict                  # class -> {rep still in I_K: its sections}
    stabilization_depth: int = None   # least k with I_k = I_{k+1} on all balls
    tables: dict = None          # class -> SphereTable the reps belong to

    @property
    def exact(self):
        """True when the depth-K sets equal the incompressible sets on the
        enumerated balls."""
        return self.stabilization_depth is not None

    def fail_depth(self, c, g):
        """first_fail of a ball id, read through its representative; None
        when the id is in every depth-k set computed.  TableExhausted for
        an id outside the table's ball, whose depth is unknown."""
        return self.first_fail[c].get(self.tables[c].find(g)[0])

    def in_Ik(self, c, g, k):
        if k > self.K and not self.exact:
            raise ValueError(f"membership only known up to depth {self.K}")
        depth = self.fail_depth(c, g)
        return depth is None or depth > k


def approximate_I_infty(atlas, K):
    """The depth-k filtration of every enumerated table, k = 1..K, held as
    first_fail[c]: representative -> least k with it outside the depth-k
    set.

    It runs on representatives.  With A rooted the sections of a1·g·a3 are
    those of g permuted, and in general they are b·g_x·b' with b, b' in the
    successor class's A, because zero-length generators have zero-length
    sections.  So section lengths, and by induction on k membership in
    every depth-k set, are the same on the whole orbit, and a section's
    depth is read through its own representative.

    Round 1 drops the representatives whose section lengths do not add up.
    Round k drops those still alive with a section no longer alive, and the
    first round that drops nothing gives stabilization_depth = k-1.
    counts[c][k][n] is the radius-n sphere size less the orbit sizes of the
    radius-n representatives with first_fail at most k; final[c] maps each
    representative still alive to its sections' representatives.
    """
    if K < 1:
        raise ValueError(f"depth K must be at least 1, got {K}")
    classes = [c for c in atlas.spec.classes() if c in atlas.tables]
    succ = atlas.engine.succ
    for c in classes:
        if succ[c] not in atlas.tables:
            raise ValueError(
                f"class {succ[c]} needed for sections of class {c}")

    first_fail, alive = {}, {}
    for c in classes:
        table, nxt = atlas.table(c), atlas.table(succ[c])
        rep, next_lengths = nxt.representative, nxt.lengths
        is_rep = next_lengths.__contains__
        children = atlas.engine.tables[c].children
        first_fail[c], alive[c] = {}, {}
        for g, n in table.lengths.items():
            xs = children[g]
            if not all(map(is_rep, xs)):
                xs = tuple(map(rep, xs))
            if sum(map(next_lengths.__getitem__, xs)) == n:
                alive[c][g] = xs
            else:
                first_fail[c][g] = 1

    stab = None
    for k in range(2, K + 1):
        # every class is checked against the round k-1 sets before any drop
        dropped = {}
        for c in classes:
            live_next = alive[succ[c]]
            dropped[c] = [g for g, xs in alive[c].items()
                          if not all(map(live_next.__contains__, xs))]
        if not any(dropped.values()):
            stab = k - 1
            break
        for c in classes:
            for g in dropped[c]:
                del alive[c][g]
            first_fail[c].update(dict.fromkeys(dropped[c], k))

    counts = {}
    for c in classes:
        table, ff = atlas.table(c), first_fail[c]
        drops = [[0] * len(table.spheres) for _ in range(K + 1)]
        for n, (sphere, orbit) in enumerate(zip(table.spheres, table.orbits)):
            for g, size in zip(sphere, orbit):
                k = ff.get(g)
                if k is not None:
                    drops[k][n] += size
        counts[c] = [table.sphere_sizes()]
        for k in range(1, K + 1):
            counts[c].append([m - d for m, d in zip(counts[c][-1], drops[k])])
    return IncompressibilityReport(K, counts, first_fail, alive, stab,
                                   {c: atlas.table(c) for c in classes})


@dataclass
class LevelFunctionResult:
    value: int
    radius: int                  # ball radius actually inspected
    exact: bool                  # filtration stabilized, so value is exact
    lower_bound_only: bool       # requested radius exceeded the tables
    empty_family: bool = False   # no compressible element in the ball


def level_function(atlas, report, c, r):
    """Deepest level needed before every compressible element of the radius-r
    ball shows a section-length drop.

    When no compressible element exists in the ball, the value is 1 by
    convention and flagged.  When r exceeds the enumerated radius, the value
    computed on the available ball is a lower bound for the true one; any
    check monotone in the level stays conclusive with it.
    """
    table = atlas.table(c)
    r_eff = min(int(r), table.max_radius)
    fails = [k for g, k in report.first_fail[c].items()
             if table.length(g) <= r_eff]
    if not fails:
        return LevelFunctionResult(1, r_eff, report.exact,
                                   r_eff < int(r), empty_family=True)
    return LevelFunctionResult(max(fails), r_eff, report.exact,
                               r_eff < int(r))


def factorization_dp(atlas, report, c, max_n):
    """Minimal counts N of additive factorizations into depth-K elements,
    keyed by representative, for the whole radius-max_n ball, with one
    backpointer per representative.

    N is constant on every A×A double coset but A itself: if g = h1⋯hm is
    additive, so is a1·g·a3 = (a1·h1)⋯(hm·a3), and the depth-K set is a
    union of double cosets.  On A, N[0] = 0 stands for the identity alone.

    Layered BFS over double cosets: the j-th layer holds those of minimal
    count j, each by one witness element, and every additive factorization
    has additive prefixes.  From a witness w, the products w·a·h with a in
    A and h a depth-K representative of positive length reach the double
    coset of x·y for every x in w's double coset and y in the depth-K set.
    Only |w| + |h| <= R = min(max_n, table radius) can be additive in the
    ball, so every product is in the ball and its canonical form is
    interned already, rooted A or not (ZeroGroup).  A witness is held as its
    root and sections, not as an id.  back[q] = (p, a·h) with q's witness
    equal to p's witness times a·h.
    """
    table = atlas.table(c)
    R = min(max_n, table.max_radius)
    zero, lengths, final = table.zero, table.lengths, report.final[c]
    products, find, eng = zero.products, zero.find, atlas.engine
    steps = [zero.steps([(h, h) for h in sphere if h in final])
             for sphere in table.spheres[1:R + 1]]

    N, back = {0: 0}, {0: None}
    frontier = [(0, eng.root(c, 0), eng.children(c, 0))]
    j = 0
    while frontier:
        j += 1
        nxt = []
        for p, root, children in frontier:
            lp = lengths[p]
            for lh, bucket in enumerate(steps[:R - lp], 1):
                for step, wr, wch in products(root, children, bucket):
                    q = find(wr, wch)[0]
                    if q in N or lengths.get(q) != lp + lh:
                        continue
                    N[q] = j
                    back[q] = (p, step[2])
                    nxt.append((q, wr, wch))
        frontier = nxt
    return N, back


def factors_of(back, g):
    out = []
    while g != 0:
        g, h = back[g]
        out.append(h)
    out.reverse()
    return out


# -- ternary spinal geodesic data ------------------------------------------

# rooted exponent e of each power (0 1 2)^e of the full 3-cycle, e = 1, 2
_CYCLE_EXPONENTS = {(1, 2, 0): 1, (2, 0, 1): 2}


def is_ternary_spinal(spec):
    """The normal-form analysis and the polynomial bound apply only here: every
    class-0 zero-length generator must have a rooted exponent."""
    return (spec.degree == 3 and spec.meta.get("kind") == "spinal"
            and all(g.root in _CYCLE_EXPONENTS
                    for g in spec.level(0).zero_generators))


@dataclass
class TernaryGeodesicData:
    beta: list                   # spine letter names, in word order
    c: list                      # conjugation exponents mod 3
    s: int                       # trailing rooted exponent mod 3
    derivative: list             # successive differences of c, mod 3
    m_c: int = None              # switch position when the two-run law holds

    @property
    def two_run(self):
        """No zero differences and never a 1 followed by a 2."""
        dv = self.derivative
        if any(x == 0 for x in dv):
            return False
        return all(not (dv[i] == 1 and dv[i + 1] == 2)
                   for i in range(len(dv) - 1))


def _rooted_exponent(spec, c, name):
    e = _CYCLE_EXPONENTS.get(spec.level(c).gen(name).root)
    if e is None:
        raise NotTernarySpinal(
            f"root of {name} is not a power of the full cycle")
    return e


def extract_ternary_data(spec, table, spec_cls, g):
    """Parse the stored geodesic of g into conjugate normal form.

    The word a^{k_0} b_1 a^{k_1} ... b_m a^{k_m} is rewritten (with the
    convention x^y = y x y^{-1}) as b_1^{a^{c_1}} ... b_m^{a^{c_m}} a^s where
    c_j is the prefix sum of rooted exponents and s the total sum, mod 3.
    """
    if not is_ternary_spinal(spec):
        raise NotTernarySpinal(f"{spec.name or 'family'} is not ternary spinal")
    level = spec.level(spec_cls)
    beta, cs = [], []
    t = 0
    for name in table.geodesic(g):
        gen = level.gen(name)
        if gen.pseudolength == 0:
            t = (t + _rooted_exponent(spec, spec_cls, name)) % 3
        else:
            beta.append(name)
            cs.append(t)
    dv = [(cs[i + 1] - cs[i]) % 3 for i in range(len(cs) - 1)]
    data = TernaryGeodesicData(beta, cs, t, dv)
    if data.two_run:
        ones = [i for i, x in enumerate(dv) if x == 1]
        # positions are 1-based; all-2 runs put the switch past the end
        data.m_c = ones[0] + 1 if ones else len(dv) + 1
    return data


# -- polynomial bound on incompressible counts -----------------------------

@dataclass
class BoundCheck:
    l: int
    constant: int
    exponent: int
    rows: list = field(default_factory=list)  # (n, count, bound)

    @property
    def ok(self):
        return all(count <= bound for _, count, bound in self.rows)


def ternary_bound_params(spec):
    """Constant and exponent of the polynomial bound, from the least l with
    trivial joint kernel and the order of the defining group B."""
    if not is_ternary_spinal(spec):
        raise NotTernarySpinal(f"{spec.name or 'family'} is not ternary spinal")
    l = spec.meta.get("kernel_depth")
    if l is None:
        raise NotTernarySpinal("no finite joint-kernel depth")
    sizeB = 1
    for n in spec.meta["orders"]:
        sizeB *= n
    constant = 3 ** (3 ** (l + 2) - 1) * (sizeB - 1) ** ((3 ** (l + 1) - 1) // 2)
    exponent = (3 ** (l + 2) - 1) // 2
    return l, constant, exponent


def check_polynomial_bound(spec, report, c):
    l, constant, exponent = ternary_bound_params(spec)
    counts = report.counts[c][report.K]
    rows = [(n, counts[n], constant * n ** exponent)
            for n in range(1, len(counts))]
    return BoundCheck(l, constant, exponent, rows)
