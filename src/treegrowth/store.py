"""Config parsing, stable hashing, and persisted sphere tables.

File formats are documented in FORMATS.md at the repository root and are
versioned; any change to the layout bumps FORMAT_VERSION.
"""

import csv
import json

from . import catalog
from .family import FamilyError, FamilySpec, GeneratorSpec, LevelSpec

FORMAT_VERSION = 1


class ConfigError(ValueError):
    pass


def group_hash(config):
    """Stable hash of the group-defining part of a config mapping.  Only
    `save_table` calls it, so hashlib, which maps libcrypto, is imported
    here and no subcommand pays for it."""
    import hashlib
    payload = {"kind": config.get("kind"),
               "parameters": config.get("parameters", {})}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _custom_spec(degree, preperiod, period, name):
    def levels(entries):
        return tuple(LevelSpec(tuple(
            GeneratorSpec(name=g["name"], pseudolength=g["pseudolength"],
                          inverse=g["inverse"], root=tuple(g["root"]),
                          children=tuple(tuple(w) for w in g["children"]))
            for g in lv)) for lv in entries)

    return catalog._validated(
        FamilySpec(degree, levels(preperiod), levels(period), name=name))


# each kind's constructor and its parameters in call order: name, entry
# type, number of lists around the entries (0 for a bare value) and, for a
# parameter that may be left out, its default; type None leaves the value
# unchecked (custom levels are checked against GENERATOR_FIELDS).  A kind
# takes no parameter that it does not list.
KINDS = {
    "spinal": (lambda *args: catalog.spinal(catalog.SpinalData(*args)),
               (("degree", int, 0), ("orders", int, 1), ("a_perms", int, 2),
                ("omega_pre", int, 4, ()), ("omega_per", int, 4),
                ("name", str, 0, "spinal"))),
    "grigorchuk_p": (catalog.grigorchuk_p, (("p", int, 0), ("pre", int, 1, ()),
                                            ("per", int, 1))),
    "sunic": (catalog.sunic, (("p", int, 0), ("m", int, 0),
                              ("a_coeffs", int, 1, ()))),
    "ggs": (catalog.ggs, (("d", int, 0), ("epsilon", int, 1))),
    "nekrashevych_D": (catalog.nekrashevych_D, (("pre", int, 1, ()),
                                                ("per", int, 1))),
    "neumann6": (catalog.neumann6, ()),
    "custom": (_custom_spec, (("degree", int, 0), ("preperiod", None, 0, ()),
                              ("period", None, 0, ()),
                              ("name", str, 0, "custom"))),
}
# each custom generator's fields: entry type, number of lists around entries
GENERATOR_FIELDS = {"name": (str, 0), "pseudolength": (int, 0),
                    "inverse": (str, 0), "root": (int, 1), "children": (str, 2)}
TYPE_NAMES = {int: ("an integer", "integers"), str: ("a string", "strings")}


def _is_nested(value, typ, depth):
    if depth == 0:
        return isinstance(value, typ) and not isinstance(value, bool)
    return isinstance(value, list) and all(_is_nested(x, typ, depth - 1)
                                           for x in value)


def _tuples(value):
    """The value with every list, at any depth, made a tuple."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _check_types(kind, params):
    if not isinstance(params, dict):
        raise ConfigError(
            f"malformed parameters for kind {kind}: parameters must be a "
            f"JSON object, got {json.dumps(params)}")
    for key in params if kind in KINDS else ():
        if key not in [name for name, *_ in KINDS[kind][1]]:
            raise ConfigError(f"unknown parameter {key!r} for kind {kind}")
    fields = [(key, params[key], typ, depth)
              for key, typ, depth, *_ in KINDS.get(kind, (None, ()))[1]
              if key in params and typ is not None]
    if kind == "custom":
        # a level or generator of the wrong shape is left to build_spec
        for key in ("preperiod", "period"):
            levels = params.get(key)
            for lv in levels if isinstance(levels, list) else ():
                for g in lv if isinstance(lv, list) else ():
                    if isinstance(g, dict):
                        fields += [(f"{name} of generator {g.get('name')}",
                                    g[name], typ, depth)
                                   for name, (typ, depth)
                                   in GENERATOR_FIELDS.items() if name in g]
    for key, value, typ, depth in fields:
        if not _is_nested(value, typ, depth):
            one, many = TYPE_NAMES[typ]
            shape = one if depth == 0 else (
                "a list of " + "lists of " * (depth - 1) + many)
            raise ConfigError(
                f"malformed parameters for kind {kind}: {key} must be "
                f"{shape}, got {json.dumps(value)}")


def build_spec(config):
    """FamilySpec from a parsed config mapping: its kind's constructor
    called with the parameters KINDS lists, lists made tuples."""
    kind = config.get("kind")
    params = config.get("parameters", {})
    try:
        _check_types(kind, params)
        if kind in KINDS:
            make, fields = KINDS[kind]
            return make(*[
                _tuples(params.get(key, *default) if default else params[key])
                for key, _, _, *default in fields])
    except KeyError as e:
        raise ConfigError(f"missing parameter {e} for kind {kind}")
    except (TypeError, IndexError) as e:
        # e.g. a string for a number or a permutation of the wrong degree
        raise ConfigError(f"malformed parameters for kind {kind}: {e}")
    raise ConfigError(f"unknown group kind: {kind!r}")


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    return config


# -- persisted sphere tables ----------------------------------------------

TABLE_COLUMNS = ["id", "radius", "parent", "generator", "flags"]
FLAG_BITS = 16      # depths 1..16 fit the flags column (FORMATS.md)


def flags_bitfield(report, c, rep):
    """Bit k-1 set when the orbit of representative rep is in the depth-k
    set, k = 1..FLAG_BITS: the bits below its first-fail depth, capped at K
    and FLAG_BITS."""
    top = min(report.K, FLAG_BITS)
    depth = report.first_fail[c][rep]
    return (1 << min(depth - 1 if depth > 0 else top, top)) - 1


def _parent_links(table):
    """(y, name) with y·name = x and |y| + |name| = |x| for every element x
    of the table's ball, None for the identity: the first product to reach
    x in one breadth-first pass, the radius-(n-1) elements times the
    unit-length generators, the new products closed under the zero-length
    ones.  The links have no cycle.  The pass interns every element, in its
    order, holding two spheres; it can be retried after a BudgetExceeded."""
    eng, c = table.zero.eng, table.cls
    level = eng.spec.level(c)
    unit, zero = ([(g.name, eng.gen_id(c, g.name)) for g in gens]
                  for gens in (level.unit_generators, level.zero_generators))
    parents, prev, sphere = {0: None}, [], [0]
    for _ in range(table.max_radius + 1):
        # with the sphere as its own sources the loop reaches the appended
        # elements too
        for sources, gens in ((prev, unit), (sphere, zero)):
            for u in sources:
                for name, s in gens:
                    w = eng.mul(c, u, s, store=False)
                    if w not in parents:
                        parents[w] = (u, name)
                        sphere.append(w)
        prev, sphere = sphere, []
    return parents


def save_table(path, config, table, report=None):
    """Write every element of the table, orbit by orbit: its id, radius,
    parent link (`_parent_links`) and the flags of its orbit.  A
    BudgetExceeded is raised before the file is opened."""
    header = {
        "format_version": FORMAT_VERSION,
        "group_hash": group_hash(config),
        "level": table.cls,
        "max_radius": table.max_radius,
        "truncated": False,     # v1 key; tables are exact to max_radius
    }
    parents = _parent_links(table)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("#" + json.dumps(header, sort_keys=True) + "\n")
        w = csv.writer(fh)
        w.writerow(TABLE_COLUMNS)
        for n, sphere in enumerate(table.spheres):
            for rep in sphere:
                flags = flags_bitfield(report, table.cls, rep) if report else 0
                for g in table.orbit(rep):
                    pid, name = parents[g] or ("", "")
                    w.writerow([g, n, pid, name, flags])
    return header


def load_table(path):
    """Header mapping plus row tuples (id, radius, parent, generator, flags)."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first.startswith("#"):
            raise ConfigError(f"{path}: missing table header line")
        header = json.loads(first[1:])
        if header.get("format_version") != FORMAT_VERSION:
            raise ConfigError(f"{path}: unsupported format version")
        rows = [(int(row["id"]), int(row["radius"]),
                 int(row["parent"]) if row["parent"] != "" else None,
                 row["generator"], int(row["flags"]))
                for row in csv.DictReader(fh)]
    return header, rows
