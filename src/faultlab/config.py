"""Config documents: reading the JSON file and converting its values.

Every config value the CLI and the pipeline use passes through here, so a
value of the wrong type stops as a ConfigError (exit 2) instead of escaping
as a TypeError further down. `KEYS` gives each scalar key its kind and
default once, and `value` reads a key by it: int and float convert as
int() and float() would (`number`), so `"30"` and `30.0` read as 30; a seed
is a JSON integer >= 0. The injection plan and the synth profiles take JSON
numbers only (`io.json_number`) and keep them as written, because the plan
is echoed into label files. No kind reads a boolean as a number or accepts
NaN or an infinity."""

from __future__ import annotations

import math

from .errors import ConfigError
from .inject import InjectionPlan
from .io import json_fields, json_list, json_number, read_json
from .series import Modality, _shown

CONFIG_VERSION = 1

PLAN_NUMBERS = ("short_intensity", "short_fraction", "noise_multiplier",
                "noise_total_fraction")


class Seed(int):
    """The kind of `seed`: a JSON integer >= 0, never converted from text."""


# Each scalar config key by its path ("synth.train_days" is `train_days` of the
# synth object): its kind and its default, as README's "Config keys" table says.
KEYS = {
    "seed": (Seed, 0), "modality": (Modality, None), "smooth": (bool, True),
    "delta": (float, None), "multiplier": (float, None), "noise_window_len": (int, 18),
    "llse.percentile_p": (float, 95.0), "llse.vote_q": (int, 2), "llse.signed": (bool, False),
    "synth.train_days": (int, 0), "synth.test_days": (int, 90), "synth.n_events": (int, 21),
    "synth.train_events": (int, 0), "synth.interval_s": (float, 600.0),
    "synth.target": (str, None), "inject.base_sigma": (float, None),
    "data.node_id": (str, None),
}
SWEEP_MODALITY = Modality.BOX_TEMP  # what a sweep scores when no modality is set

_RULES = {  # kind: (test, what a value must be), for every kind `number` does not convert
    Seed: (lambda raw: type(raw) is int and raw >= 0, "a non-negative integer"),
    bool: (lambda raw: isinstance(raw, bool), "true or false"),
    str: (lambda raw: isinstance(raw, str) and raw != "", "a non-empty string"),
    Modality: (lambda raw: raw in [m.value for m in Modality], "box_temp or soil_moisture"),
}


def load_config(path: str | None) -> dict:
    if not path:
        return {}
    doc = read_json(path, ConfigError)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    if doc.get("version", CONFIG_VERSION) != CONFIG_VERSION:
        raise ConfigError(f"{path}: unsupported config version {doc.get('version')!r}")
    return doc


def section(block: dict, key: str) -> dict:
    """The object under `key`; an absent key reads as an empty object."""
    raw = block.get(key, {})
    if not isinstance(raw, dict):
        raise ConfigError(f"{key} must be an object, got {raw!r}")
    return raw


def number(raw, what: str, kind=float):
    """`raw` converted with `kind` (int or float); booleans, NaN, infinities
    and, for kind=int, integers outside int64 are refused."""
    if not isinstance(raw, bool):
        try:
            out = kind(raw)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if kind is int and not -2**63 <= out < 2**63:
                raise ConfigError(f"{what} must be an integer within int64, got {_shown(out)}")
            if kind is int or math.isfinite(out):
                return out
    raise ConfigError(f"{what} must be a finite number, got "
                      f"{_shown(raw) if isinstance(raw, int) else repr(raw)}")


def value(block: dict, path: str):
    """The key `path` names, read from `block` (the object holding it) by its kind; an
    absent key, null where there is no default, or a "" modality reads as the default."""
    kind, default = KEYS[path]
    raw = block.get(path.rpartition(".")[2], default)
    if raw is None and default is None or kind is Modality and raw == "":
        return None
    if kind in (int, float):
        return number(raw, path, kind)
    test, rule = _RULES[kind]
    if not test(raw):
        raise ConfigError(f"{path} must be {rule}, got "
                          f"{_shown(raw) if isinstance(raw, int) else repr(raw)}")
    return Modality(raw) if kind is Modality else raw


def json_numbers(raw, keys, what: str) -> dict:
    """An object of JSON numbers named in `keys`, kept as written."""
    block = json_fields(raw, what, keys, error=ConfigError)
    for key, value in block.items():
        json_number(value, f"{what}.{key}", error=ConfigError)
    return block


def injection_plan(inject: dict, seed: int) -> InjectionPlan:
    """The InjectionPlan of an `inject` block; other keys are ignored."""
    kwargs = json_numbers({k: v for k, v in inject.items() if k in PLAN_NUMBERS},
                          PLAN_NUMBERS, "inject")
    if "noise_burst_lengths" in inject:
        lengths = json_list(inject["noise_burst_lengths"], "inject.noise_burst_lengths",
                            ConfigError)
        kwargs["noise_burst_lengths"] = tuple(
            number(x, "inject.noise_burst_lengths", int) for x in lengths)
    return InjectionPlan(seed=seed, **kwargs)


def nodes_from_config(synth: dict) -> tuple[tuple[str, ...], tuple[float, ...], tuple[float, ...]]:
    """(ids, response scales, lags) of the synth `nodes` list."""
    nodes = synth.get("nodes", [{"id": "node1"}])
    if not isinstance(nodes, list) or not nodes:
        raise ConfigError(f"synth.nodes must be a non-empty list, got {nodes!r}")
    if not all(isinstance(nd, dict) and "id" in nd for nd in nodes):
        raise ConfigError("each synth node needs an 'id' and optional 'response_scale'/'lag_s'")
    ids = tuple(str(nd["id"]) for nd in nodes)
    for nd, node_id in zip(nodes, ids):  # ingest strips a node_id cell and refuses an empty one
        if type(nd["id"]) not in (str, int):  # a boolean is not an integer here
            raise ConfigError(f"synth node id {nd['id']!r} must be a JSON string or integer")
        if not node_id or node_id != node_id.strip():
            raise ConfigError(f"synth node id {node_id!r} must be non-empty, without "
                              "leading or trailing whitespace")
    scales = tuple(number(nd.get("response_scale", 1.0), "response_scale") for nd in nodes)
    lags = tuple(number(nd.get("lag_s", 0.0), "lag_s") for nd in nodes)
    return ids, scales, lags
