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


def build_spec(config):
    """FamilySpec from a parsed config mapping."""
    kind = config.get("kind")
    params = config.get("parameters", {})
    try:
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


def flags_bitfield(report, c, g, cap=16):
    """Bit k set when the element is in the depth-k set, k = 1..cap."""
    bits = 0
    top = min(report.K, cap)
    for k in range(1, top + 1):
        if report.in_Ik(c, g, k):
            bits |= 1 << (k - 1)
    return bits


def save_table(path, config, table, report=None):
    header = {
        "format_version": FORMAT_VERSION,
        "group_hash": group_hash(config),
        "level": table.cls,
        "max_radius": table.max_radius,
        "truncated": table.truncated,
    }
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("#" + json.dumps(header, sort_keys=True) + "\n")
        w = csv.writer(fh)
        w.writerow(TABLE_COLUMNS)
        for n, sphere in enumerate(table.spheres):
            for g in sphere:
                parent = table.parents[g]
                pid, name = parent if parent is not None else ("", "")
                flags = flags_bitfield(report, table.cls, g) if report else 0
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
