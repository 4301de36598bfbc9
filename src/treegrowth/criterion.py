"""Finite checks behind the subexponential-growth criterion: partition of
spheres by minimal incompressible factorization count, pairing of factors,
the small-factor counting bound, and the fixed-level length reduction."""

from dataclasses import dataclass, field
from math import log

from . import incompressible as inc
from .growth import check_wreath_inequality


@dataclass
class PairData:
    h: list                      # ids of paired factors
    small: list                  # indices with |h_i| <= 6/epsilon
    large: list
    leftover: int = None         # unpaired last factor id when count is odd
    pairs_in_I: list = field(default_factory=list)  # violations: paired
                                                    # factors still additive
                                                    # to depth K


def partition(table, N, n, epsilon):
    """Split the radius-n sphere by the factorization-count threshold."""
    big, small = [], []
    for g in table.sphere(n):
        if N[g] > epsilon * n:
            big.append(g)
        else:
            small.append(g)
    return big, small


def pair_factors(atlas, report, c, factors, epsilon):
    """Pair consecutive factors of a minimal additive factorization and
    classify the pairs by length.  A pair lying in the depth-K set would
    contradict minimality; any such pair is reported."""
    eng = atlas.engine
    table = atlas.table(c)
    npairs = len(factors) // 2
    data = PairData([], [], [])
    for i in range(npairs):
        h = eng.mul(c, factors[2 * i], factors[2 * i + 1], store=False)
        data.h.append(h)
        if table.length(h) <= 6 / epsilon:
            data.small.append(i)
        else:
            data.large.append(i)
        if report.in_Ik(c, h, report.K):
            data.pairs_in_I.append(i)
    if len(factors) % 2:
        data.leftover = factors[-1]
    return data


def check_small_factor_lower_bound(atlas, report, c, back, big, n, epsilon):
    """|S(g)| > (epsilon/8) n for every g in the big part, when n > 3/epsilon.

    Returns the verdict (None below the threshold, where nothing is
    asserted) and the elements of the big part whose factorization pairs two
    factors into a product still in the depth-K set, which contradicts the
    minimality of that factorization."""
    if n <= 3 / epsilon:
        return None, []
    not_minimal = []
    for g in big:
        factors = inc.factors_of(back, g)
        data = pair_factors(atlas, report, c, factors, epsilon)
        if data.pairs_in_I:
            not_minimal.append(g)
        if not len(data.small) > (epsilon / 8) * n:
            return False, not_minimal
    return True, not_minimal


def sections_at_depth(atlas, c, g, depth):
    """Ids and classes of all level-`depth` sections of g."""
    spec = atlas.spec
    cur = [(c, g)]
    for _ in range(depth):
        nxt = []
        for cc, x in cur:
            sc = spec.succ_class(cc)
            nxt.extend((sc, y) for y in atlas.engine.children(cc, x))
        cur = nxt
    return cur


def level_section_sum(atlas, c, g, depth):
    return sum(atlas.table(cc).length(x)
               for cc, x in sections_at_depth(atlas, c, g, depth))


def check_level_reduction(atlas, big, c, n, epsilon, level):
    """Section lengths at the given level sum below (8-epsilon)/8 * n for
    every g in the big part.  Passing at a shallow level implies passing at
    any deeper one, because section sums never increase with depth."""
    if n <= 3 / epsilon:
        return None
    bound = (8 - epsilon) / 8 * n
    for g in big:
        if not level_section_sum(atlas, c, g, level) < bound:
            return False
    return True


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
    level reduction, for every radius up to n_max."""
    if not 0 < epsilon < 0.5:
        raise ValueError("epsilon must lie strictly between 0 and 1/2")
    table = atlas.table(c)
    lf = inc.level_function(atlas, report, c, 6 / epsilon)
    N, back = inc.factorization_dp(atlas, report, c, n_max)
    out = CriterionReport(epsilon, list(range(1, n_max + 1)),
                          lf.value, lf.exact and not lf.lower_bound_only)
    for n in out.n_range:
        big, small = partition(table, N, n, epsilon)
        out.partition_sizes[n] = (len(big), len(small))
        sf, not_minimal = check_small_factor_lower_bound(
            atlas, report, c, back, big, n, epsilon)
        out.small_factor_ok[n] = sf
        if sf is False:
            out.failures.append(f"small-factor bound fails at n={n}")
        if not_minimal:
            out.failures.append(
                f"factorization not minimal at n={n}: {len(not_minimal)} "
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


def theorem_hypotheses_report(atlas, report, n_max, bound_class=0):
    """Hypothesis audit across one full period of level classes: generators
    incompressible to depth K, uniform generating-set bound, polynomial
    envelope on incompressible counts, and the wreath counting inequality."""
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
        poly_bound = inc.check_polynomial_bound(spec, report, bound_class)
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
