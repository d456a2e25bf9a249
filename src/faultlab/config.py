"""Config documents: reading the JSON file and converting its values.

Every config value the CLI and the pipeline use passes through here, so a
value of the wrong type stops as a ConfigError (exit 2) instead of escaping
as a TypeError further down. `number` converts with int() or float(), so
`"30"` and `30.0` still read as 30 where they always have; the injection
plan and the synth profiles take JSON numbers only (`io.json_number`) and
keep them as written, because the plan is echoed into label files. Neither
reads a boolean as a number or accepts NaN or an infinity, and `boolean`
takes only JSON true and false.
"""

from __future__ import annotations

import math

from .errors import ConfigError
from .inject import InjectionPlan
from .io import json_fields, json_list, json_number, read_json
from .series import Modality, _shown

CONFIG_VERSION = 1

PLAN_NUMBERS = ("short_intensity", "short_fraction", "noise_multiplier",
                "noise_total_fraction")


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
            value = kind(raw)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if kind is int and not -2**63 <= value < 2**63:
                raise ConfigError(f"{what} must be an integer within int64, got {_shown(value)}")
            if kind is int or math.isfinite(value):
                return value
    raise ConfigError(f"{what} must be a finite number, got "
                      f"{_shown(raw) if isinstance(raw, int) else repr(raw)}")


def boolean(raw, what: str) -> bool:
    """`raw` when it is a JSON true or false; anything else is refused."""
    if not isinstance(raw, bool):
        raise ConfigError(f"{what} must be true or false, got {raw!r}")
    return raw


def json_numbers(raw, keys, what: str) -> dict:
    """An object of JSON numbers named in `keys`, kept as written; empty or
    null reads as no entries."""
    block = json_fields(raw or {}, what, keys, error=ConfigError)
    for key, value in block.items():
        json_number(value, f"{what}.{key}", error=ConfigError)
    return block


def seed_of(cfg: dict) -> int:
    raw = cfg.get("seed", 0)
    if isinstance(raw, bool) or not isinstance(raw, int) or raw < 0:
        raise ConfigError(f"seed must be a non-negative integer, got "
                          f"{_shown(raw) if isinstance(raw, int) else repr(raw)}")
    return raw


def modality_of(cfg: dict, default: Modality | None = None) -> Modality | None:
    """The configured modality; an empty or absent one gives `default`."""
    raw = cfg.get("modality") or default
    if raw is None:
        return None
    try:
        return Modality(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"unknown modality {raw!r}") from None


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
    nodes = synth.get("nodes") or [{"id": "node1"}]
    if not isinstance(nodes, list) or not all(isinstance(nd, dict) and "id" in nd
                                              for nd in nodes):
        raise ConfigError("each synth node needs an 'id' and optional "
                          "'response_scale'/'lag_s'")
    ids = tuple(str(nd["id"]) for nd in nodes)
    for node_id in ids:  # ingest strips a node_id cell and refuses an empty one
        if not node_id or node_id != node_id.strip():
            raise ConfigError(f"synth node id {node_id!r} must be non-empty, without "
                              "leading or trailing whitespace")
    scales = tuple(number(nd.get("response_scale", 1.0), "response_scale") for nd in nodes)
    lags = tuple(number(nd.get("lag_s", 0.0), "lag_s") for nd in nodes)
    return ids, scales, lags
