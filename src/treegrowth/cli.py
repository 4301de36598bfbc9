"""Command-line interface.

Subcommands: define, spheres, incompressible, criterion, report.
Exit codes: 0 success, 1 domain error, 2 I/O or parse error, 3 the engine
budget (`--budget`, the one limit on a run) was exceeded, or memory ran
out before it was.

Each subcommand imports the modules it runs when it runs: `define` loads
no enumeration, and `spheres` no filtration or criterion.
"""

import argparse
import csv
import json
import sys
from itertools import accumulate

from . import store
from .catalog import CatalogError
from .engine import BudgetExceeded, Engine
from .family import FamilyError
from .store import ConfigError

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2
EXIT_BUDGET = 3


def build_parser():
    """Each subcommand takes only the flags it reads, and define --out."""
    ap = argparse.ArgumentParser(
        prog="treegrowth",
        description="exact growth and incompressibility computations for "
                    "groups acting on regular rooted trees")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("define", "spheres", "incompressible", "criterion", "report"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON group description")
        # define prints to stdout; it still takes --out because the
        # benchmark's define jobs pass it
        p.add_argument("--out", default=None)
        if name == "define":
            continue
        p.add_argument("--max-radius", type=int, default=6)
        p.add_argument("--budget", type=int, default=10_000_000)
        if name == "spheres":
            # the filtration needs every class, so only spheres can stop early
            p.add_argument("--levels", type=int, default=None,
                           help="number of level classes to enumerate "
                                "(default all)")
        else:
            p.add_argument("--k-depth", type=int, default=6)
        if name == "criterion":
            p.add_argument("--epsilon", type=float, default=0.45)
    return ap


def _spec_from(args):
    return store.build_spec(store.load_config(args.config))


def _setup(args):
    """The spec, its atlas to --max-radius and its depth-K filtration."""
    from . import growth
    from . import incompressible as inc
    spec = _spec_from(args)
    atlas = growth.build_atlas(spec, args.max_radius,
                               engine=Engine(spec, budget=args.budget))
    return spec, atlas, inc.approximate_I_infty(atlas, args.k_depth)


def _emit(args, payload):
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_define(args):
    # build_spec rejects a family that fails any check, so all pass in the
    # report it keeps
    print(_spec_from(args).meta["validation"].summary())
    return EXIT_OK


def cmd_spheres(args):
    """Writes the rows of every complete radius, counted by
    `growth.count_spheres`, which builds no table.  When the budget stops
    the run, those are the earlier classes whole and the radii done at the
    class it stopped in, and the budget error is raised after writing."""
    from . import growth
    spec = _spec_from(args)
    eng = Engine(spec, budget=args.budget)
    sizes, stop = {}, None
    try:
        for c in growth.level_classes(spec, args.max_radius, args.levels):
            sizes[c] = growth.count_spheres(eng, c, args.max_radius)
    except BudgetExceeded as e:
        stop = e
        if e.sizes is not None:
            sizes[e.cls] = e.sizes
    rows = []
    for c in sorted(sizes):
        gamma = list(accumulate(sizes[c]))
        for n, kp in enumerate(growth.kappa_estimates(sizes[c])):
            rows.append([c, n, sizes[c][n], gamma[n],
                         f"{kp:.6f}" if kp is not None else ""])
    out = args.out or "spheres.csv"
    with open(out, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["level", "n", "sphere_size", "gamma", "kappa_pointwise"])
        w.writerows(rows)
    if stop is not None:
        raise stop
    return EXIT_OK


def cmd_incompressible(args):
    from . import incompressible as inc
    spec, atlas, report = _setup(args)
    out = args.out or "incompressible"
    with open(out + ".csv", "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["level", "k", "n", "count"])
        for c in sorted(report.counts):
            for k, per_n in enumerate(report.counts[c]):
                for n, cnt in enumerate(per_n):
                    w.writerow([c, k, n, cnt])
    payload = {
        "k_depth": args.k_depth,
        "stabilization_depth": report.stabilization_depth,
        "exact_on_balls": report.exact,
        "counts": {str(c): report.counts[c] for c in report.counts},
    }
    try:
        bc = inc.check_polynomial_bound(spec, report, 0)
        payload["polynomial_bound"] = {
            "l": bc.l, "constant": bc.constant, "exponent": bc.exponent,
            "ok": bc.ok, "rows": bc.rows,
        }
    except inc.NotTernarySpinal:
        payload["polynomial_bound"] = "not applicable"
    audit = {"applicable": False}
    if inc.is_ternary_spinal(spec):
        # the geodesic of a1·g·a3 is a1·geodesic(g)·a3, which shifts every
        # conjugation exponent by one constant, so the derivative and its
        # verdict are the same on the whole orbit
        table, ff = atlas.table(0), report.first_fail[0]
        violations = checked = 0
        for n in range(1, table.max_radius + 1):
            for g in table.spheres[n]:
                if ff[g] < 0:
                    checked += table.orbits[g]
                    if not inc.extract_ternary_data(spec, table, 0, g).two_run:
                        violations += table.orbits[g]
        audit = {"applicable": True, "checked": checked,
                 "violations": violations}
    payload["derivative_audit"] = audit
    with open(out + ".json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return EXIT_OK


def cmd_criterion(args):
    from . import criterion as cr
    _, atlas, report = _setup(args)
    res = cr.run_criterion(atlas, report, 0, args.max_radius, args.epsilon)
    hyp = cr.theorem_hypotheses_report(atlas, report, args.max_radius)
    payload = {
        "epsilon": args.epsilon,
        "n_range": res.n_range,
        "level_used": res.level_used,
        "level_exact": res.level_exact,
        "partition_sizes": {str(n): v for n, v in res.partition_sizes.items()},
        "small_factor_ok": {str(n): v for n, v in res.small_factor_ok.items()},
        "level_reduction_ok": {str(n): v
                               for n, v in res.level_reduction_ok.items()},
        "failures": res.failures + hyp.failures,
        "generators_incompressible": hyp.generators_incompressible,
        "generator_bound": hyp.generator_bound,
        "envelope": hyp.envelope,
        "fit_exponent": hyp.fit_exponent,
        "wreath_ok": hyp.wreath_ok,
        "insufficient_n": [n for n in res.n_range
                           if res.small_factor_ok[n] is None],
    }
    # vacuous: no radius exceeds 3/epsilon, so nothing was asserted
    payload["verdict"] = (
        "fail" if payload["failures"] else
        "vacuous" if payload["insufficient_n"] == res.n_range else "pass")
    _emit(args, payload)
    return EXIT_OK if not payload["failures"] else EXIT_DOMAIN


def cmd_report(args):
    spec, atlas, report = _setup(args)
    payload = {
        "group": spec.name,
        "degree": spec.degree,
        "classes": spec.num_classes,
        "spheres": {str(c): atlas.table(c).sphere_sizes()
                    for c in sorted(atlas.tables)},
        "incompressible_counts": {str(c): report.counts[c][report.K]
                                  for c in sorted(report.counts)},
        "stabilization_depth": report.stabilization_depth,
    }
    _emit(args, payload)
    return EXIT_OK


COMMANDS = {
    "define": cmd_define,
    "spheres": cmd_spheres,
    "incompressible": cmd_incompressible,
    "criterion": cmd_criterion,
    "report": cmd_report,
}


def _check_flags(args):
    """Reject nonsense flag values before any table is enumerated."""
    if "k_depth" in args and args.k_depth < 1:
        raise ValueError(f"depth K must be at least 1, got {args.k_depth}")
    if "epsilon" in args and not 0 < args.epsilon < 0.5:
        raise ValueError("epsilon must lie strictly between 0 and 1/2")
    # the criterion reports the depth-K membership of every generator, and
    # the unit-length ones lie on sphere 1
    if args.command == "criterion" and args.max_radius < 1:
        raise ValueError(f"criterion needs max radius at least 1, got "
                         f"{args.max_radius}")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except (CatalogError, FamilyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    except BudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        # define parses one config; every other subcommand has a budget
        if "budget" not in args:
            raise
        print(f"error: out of memory before the engine budget of "
              f"{args.budget} was reached; lower --budget", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
