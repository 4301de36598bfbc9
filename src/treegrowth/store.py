"""Config parsing, stable hashing, and persisted sphere tables.

File formats are documented in FORMATS.md at the repository root and are
versioned; any change to the layout bumps FORMAT_VERSION.
"""

import csv
import hashlib
import json

from . import catalog
from .family import FamilyError, FamilySpec, GeneratorSpec, LevelSpec

FORMAT_VERSION = 1


class ConfigError(ValueError):
    pass


def group_hash(config):
    """Stable hash of the group-defining part of a config mapping."""
    payload = {"kind": config.get("kind"),
               "parameters": config.get("parameters", {})}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _custom_spec(params):
    def levels(key):
        out = []
        for lv in params.get(key, []):
            gens = []
            for g in lv:
                gens.append(GeneratorSpec(
                    name=g["name"], pseudolength=g["pseudolength"],
                    inverse=g["inverse"], root=tuple(g["root"]),
                    children=tuple(tuple(w) for w in g["children"])))
            out.append(LevelSpec(tuple(gens)))
        return tuple(out)

    return FamilySpec(params["degree"], levels("preperiod"), levels("period"),
                      name=params.get("name", "custom"))


# the integer parameters of each kind, with the number of lists the
# integers sit in (0 for a bare integer)
INTEGER_PARAMETERS = {
    "spinal": {"degree": 0, "orders": 1, "a_perms": 2, "omega_pre": 4,
               "omega_per": 4},
    "grigorchuk_p": {"p": 0, "pre": 1, "per": 1},
    "sunic": {"p": 0, "m": 0, "a_coeffs": 1},
    "ggs": {"d": 0, "epsilon": 1},
    "nekrashevych_D": {"pre": 1, "per": 1},
    "custom": {"degree": 0},
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


def _check_types(kind, params):
    if not isinstance(params, dict):
        raise ConfigError(
            f"malformed parameters for kind {kind}: parameters must be a "
            f"JSON object, got {json.dumps(params)}")
    fields = [(key, params[key], int, depth)
              for key, depth in INTEGER_PARAMETERS.get(kind, {}).items()
              if key in params]
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
    """FamilySpec from a parsed config mapping."""
    kind = config.get("kind")
    params = config.get("parameters", {})
    try:
        _check_types(kind, params)
        if kind == "spinal":
            data = catalog.SpinalData(
                degree=params["degree"],
                orders=tuple(params["orders"]),
                a_perms=tuple(tuple(p) for p in params["a_perms"]),
                omega_pre=_parse_omega(params.get("omega_pre", [])),
                omega_per=_parse_omega(params["omega_per"]),
                name=params.get("name", "spinal"))
            return catalog.spinal(data)
        if kind == "grigorchuk_p":
            return catalog.grigorchuk_p(params["p"], tuple(params.get("pre", ())),
                                        tuple(params["per"]))
        if kind == "sunic":
            return catalog.sunic(params["p"], params["m"],
                                 tuple(params.get("a_coeffs", ())))
        if kind == "ggs":
            return catalog.ggs(params["d"], tuple(params["epsilon"]))
        if kind == "nekrashevych_D":
            return catalog.nekrashevych_D(tuple(params.get("pre", ())),
                                          tuple(params["per"]))
        if kind == "neumann6":
            return catalog.neumann6()
        if kind == "custom":
            return catalog._validated(_custom_spec(params))
    except KeyError as e:
        raise ConfigError(f"missing parameter {e} for kind {kind}")
    except (TypeError, IndexError) as e:
        # e.g. a string for a number or a permutation of the wrong degree
        raise ConfigError(f"malformed parameters for kind {kind}: {e}")
    raise ConfigError(f"unknown group kind: {kind!r}")


def _parse_omega(entries):
    return tuple(
        tuple(tuple(tuple(img) for img in hom) for hom in entry)
        for entry in entries)


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


def flags_bitfield(report, c, g):
    """Bit k-1 set when the element is in the depth-k set, k = 1..FLAG_BITS:
    the bits below its first-fail depth, capped at K and FLAG_BITS."""
    top = min(report.K, FLAG_BITS)
    depth = report.fail_depth(c, g) or top + 1
    return (1 << min(depth - 1, top)) - 1


def save_table(path, config, table, report=None):
    """Write every element of the table, orbit by orbit: its id, radius,
    parent link in the table's expansion and the flags of its orbit."""
    header = {
        "format_version": FORMAT_VERSION,
        "group_hash": group_hash(config),
        "level": table.cls,
        "max_radius": table.max_radius,
        "truncated": False,     # v1 key; tables are exact to max_radius
    }
    parents = table.expand().parents
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
        rows = []
        for row in csv.DictReader(fh):
            rows.append((int(row["id"]), int(row["radius"]),
                         int(row["parent"]) if row["parent"] != "" else None,
                         row["generator"], int(row["flags"])))
    return header, rows
