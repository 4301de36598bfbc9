"""Finite checks behind the subexponential-growth criterion: partition of
spheres by minimal incompressible factorization count, pairing of factors,
the small-factor counting bound, and the fixed-level length reduction."""

from dataclasses import dataclass, field
from math import log

from . import incompressible as inc
from .growth import check_wreath_inequality


def partition(table, N, n, epsilon):
    """Split the radius-n representatives by the factorization-count
    threshold; one absent from N (no additive factorization) is in neither
    part.  N is constant on the orbit of each (n >= 1 puts it outside A),
    so each part is a union of orbits."""
    reached = [g for g in table.sphere(n) if g in N]
    return ([g for g in reached if N[g] > epsilon * n],
            [g for g in reached if N[g] <= epsilon * n])


def pair_factors(atlas, c, factors):
    """Representatives of the products of consecutive factors (ia, h) of a
    minimal additive factorization, as `factors_of` gives them; an odd last
    factor is left unpaired.  The pair (A[i1]·h1)·(A[i2]·h2) lies in the
    double coset of h1·A[i2]·h2, formed in one wreath step; being additive
    it is in the ball, so its canonical key is a representative's."""
    table = atlas.table(c)
    zero, pairs = table.zero, []
    for (_, h1), (ia, h2) in zip(factors[::2], factors[1::2]):
        [(_, key, *_)] = table.multiply(*table.element(h1), [
            zero.step(ia, h2, *table.element(h2))])
        pairs.append(table.index[key])
    return pairs


def check_small_factor_lower_bound(atlas, report, c, N, back, big, n,
                                   epsilon):
    """|S(g)| > (epsilon/8) n for every g in the big part, when n > 3/epsilon;
    S(g) holds g's pairs of factors no longer than 6/epsilon.  What is
    checked is what the bound follows from: g's witness has N[g] factors,
    and its pairs' lengths plus the unpaired last factor's sum to n.  Then
    g has floor(N/2) > (epsilon·n - 1)/2 pairs, fewer than epsilon·n/6 of
    them longer than 6/epsilon, so |S(g)| > epsilon·n/3 - 1/2 >=
    epsilon·n/8, as epsilon·n > 3.

    Returns the verdict (None below the threshold, where nothing is
    asserted) and every g of the big part whose factorization pairs two
    factors into the depth-K set, against its minimality."""
    if n <= 3 / epsilon:
        return None, []
    lengths, ok, not_minimal = atlas.table(c).lengths, True, []
    ff = report.first_fail[c]
    for g in big:
        factors = inc.factors_of(back, g)
        pairs = pair_factors(atlas, c, factors)
        if any(ff[h] < 0 for h in pairs):
            not_minimal.append(g)
        left = lengths[factors[-1][1]] if len(factors) % 2 else 0
        ok = ok and len(factors) == N[g] and \
            sum(map(lengths.__getitem__, pairs)) + left == n
    return ok, not_minimal


def level_section_sum(atlas, c, g, depth, memo):
    """The summed lengths of the representative g's level-`depth`
    sections, its own length at depth 0.  A section's sums are those of
    its representative, zero-length generators having zero-length
    sections, so each is read there, once per (class, representative,
    depth) held in memo."""
    if depth == 0:
        return atlas.table(c).lengths[g]
    if (c, g, depth) not in memo:
        sc = atlas.engine.succ[c]
        memo[c, g, depth] = sum(
            level_section_sum(atlas, sc, atlas.table(sc).find(x)[0],
                              depth - 1, memo)
            for x in atlas.table(c).element(g)[1])
    return memo[c, g, depth]


def check_level_reduction(atlas, big, c, n, epsilon, level):
    """Section lengths at the given level sum below (8-epsilon)/8 * n for
    every g in the big part; section sums never increase with depth, so a
    pass at one level holds at every deeper one.  While n < 8/epsilon it
    follows from the filtration, given `first_fail(g)` <= level: a big-part
    g has N > 1, so it is not depth-K, and its section sum at depth
    `first_fail(g)` is at most n - 1 (below n at depth 1; at depth k > 1
    the depth-1 sums add up and one section fails at k - 1), while
    (8 - epsilon)·n/8 > n - 1.  run_criterion passes as level the largest
    first_fail in the ball of radius min(6/epsilon, table radius), so the
    check cannot fail at n up to it, only at n > 6/epsilon: n >= 14 at
    epsilon = 0.45, which of the reference jobs first Grigorchuk r14 alone
    reaches."""
    if n <= 3 / epsilon:
        return None
    bound, memo = (8 - epsilon) / 8 * n, {}
    return all(level_section_sum(atlas, c, g, level, memo) < bound
               for g in big)


@dataclass
class CriterionReport:
    epsilon: float
    n_range: list
    level_used: int
    level_exact: bool
    partition_sizes: dict = field(default_factory=dict)  # n -> (big, small)
    small_factor_ok: dict = field(default_factory=dict)  # n -> bool or None
    level_reduction_ok: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures


def run_criterion(atlas, report, c, n_max, epsilon):
    """Full harness for one level class: partition, counting bound, and
    level reduction, for every radius up to n_max, on one representative
    per A×A double coset, each count weighted by its orbit size.

    One factorization per double coset asserts what one per element would.
    If g = h1·h2⋯hm is a minimal additive factorization, then so is
    (a1·h1)·h2⋯(hm·a3) of a1·g·a3: its factors lie in the depth-K set,
    which is a union of double cosets, and it is no longer than the
    minimum, which is the same on the orbit.  Its pairs are a1·(h1·h2),
    ..., (h_{m-1}·hm)·a3, with the same lengths and depth-K membership as
    g's, and its unpaired last factor hm·a3 has hm's length, so the count,
    exact-sum and not-minimal checks read the same.
    Section sums at a fixed level are the same on the orbit too, because
    zero-length generators have zero-length sections."""
    if not 0 < epsilon < 0.5:
        raise ValueError("epsilon must lie strictly between 0 and 1/2")
    lf = inc.level_function(atlas, report, c, 6 / epsilon)
    N, back = inc.factorization_dp(atlas, report, c, n_max)
    table = atlas.table(c)
    out = CriterionReport(epsilon, list(range(1, n_max + 1)),
                          lf.value, lf.exact and not lf.lower_bound_only)
    size = table.orbits.__getitem__
    for n in out.n_range:
        big, small = partition(table, N, n, epsilon)
        out.partition_sizes[n] = (sum(map(size, big)), sum(map(size, small)))
        unreached = table.sizes[n] - sum(out.partition_sizes[n])
        if unreached:
            out.failures.append(
                f"no additive factorization into depth-{report.K} elements "
                f"for {unreached} elements at n={n}")
        sf, not_minimal = check_small_factor_lower_bound(
            atlas, report, c, N, back, big, n, epsilon)
        out.small_factor_ok[n] = sf
        if sf is False:
            out.failures.append(f"small-factor bound fails at n={n}")
        if not_minimal:
            out.failures.append(
                f"factorization not minimal at n={n}: "
                f"{sum(map(size, not_minimal))} "
                f"elements pair two factors into the depth-{report.K} set")
        lr = check_level_reduction(atlas, big, c, n, epsilon, lf.value)
        out.level_reduction_ok[n] = lr
        if lr is False:
            out.failures.append(f"level reduction fails at n={n}")
    return out


@dataclass
class HypothesesReport:
    generators_incompressible: bool
    generator_bound: int
    envelope: list               # max |I_K(n)| over classes, n = 0..n_max
    poly_bound: object           # BoundCheck, or None off ternary spinal
    fit_exponent: float          # log-log slope of the envelope, or None
    wreath_ok: bool
    failures: list


def theorem_hypotheses_report(atlas, report, n_max):
    """Hypothesis audit across one full period of level classes: generators
    incompressible to depth K, uniform generating-set bound, polynomial
    envelope on incompressible counts (the ternary bound checked at class 0),
    and the wreath counting inequality."""
    spec = atlas.spec
    failures = []

    gens_ok = True
    bound = 0
    for c in spec.classes():
        if c not in atlas.tables:
            continue
        level = spec.level(c)
        bound = max(bound, len(level.generators))
        for g in level.generators:
            gid = atlas.engine.gen_id(c, g.name)
            if not report.in_Ik(c, gid, report.K):
                gens_ok = False
                failures.append(f"generator {g.name} leaves the depth-"
                                f"{report.K} set at class {c}")

    env = [0] * (n_max + 1)
    for c, per_k in report.counts.items():
        top = per_k[report.K]
        for n in range(1, min(n_max, len(top) - 1) + 1):
            env[n] = max(env[n], top[n])

    try:
        poly_bound = inc.check_polynomial_bound(spec, report, 0)
        if not poly_bound.ok:
            failures.append("polynomial bound violated")
    except inc.NotTernarySpinal:
        poly_bound = None

    fit_exponent = None
    pts = [(log(n), log(env[n])) for n in range(2, n_max + 1) if env[n] > 0]
    if len(pts) >= 2:
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        den = sum((x - mx) ** 2 for x, _ in pts)
        fit_exponent = (sum((x - mx) * (y - my) for x, y in pts) / den
                        if den else 0.0)

    wr_ok = True
    for c in spec.classes():
        if c not in atlas.tables or spec.succ_class(c) not in atlas.tables:
            continue
        for n in range(n_max + 1):
            if not check_wreath_inequality(atlas, c, n):
                wr_ok = False
                failures.append(f"wreath inequality fails at class {c}, n={n}")
    return HypothesesReport(gens_ok, bound, env, poly_bound, fit_exponent,
                            wr_ok, failures)
