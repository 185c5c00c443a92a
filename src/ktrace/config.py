"""Run configuration: one declarative JSON file, validated strictly.

Each section of the file is read into one dataclass, whose fields are the
section's keys: a field without a default is a required key, and a value
must match the field's type. Unknown keys are rejected at every level so
typos fail fast instead of silently running with defaults. Command-line
overrides (``--override a.b=v``) are applied to the raw dict before
validation, so flags win.
"""

from __future__ import annotations

import functools
import hashlib
import json
from collections.abc import Sequence
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union, get_args, get_origin, get_type_hints

from .dkt import TrainConfig
from .ingest import check_ratios
from .llmprobe import ProbeConfig
from .synth import GenerativeSpec


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


@dataclass
class DataConfig:
    raw_path: str
    delimiter: str = ","
    encoding: str = "utf-8"
    columns: Dict[str, str] = field(default_factory=dict)


@dataclass
class ProbeSection:
    probe: ProbeConfig
    tag: str = "llm"
    mastery_students: List[str] = field(default_factory=list)
    stability_check: bool = False

    def __post_init__(self):
        # each student gets one trajectory and one set of mastery dump rows
        seen = set()
        for user_id in self.mastery_students:
            if user_id in seen:
                raise ValueError(f"mastery_students lists {user_id!r} twice")
            seen.add(user_id)


@dataclass
class EvalSection:
    tags: List[str] = field(default_factory=lambda: ["dkt"])
    threshold: float = 0.5
    stage_macro: bool = False
    coherence_all_skills: bool = False
    heatmap_students: List[str] = field(default_factory=list)


@dataclass
class RunConfig:
    workspace: str
    seed: int = 0
    ratios: Tuple[float, float, float] = (0.8, 0.1, 0.1)
    data: Optional[DataConfig] = None
    dkt: TrainConfig = field(default_factory=TrainConfig)
    probe: Optional[ProbeSection] = None
    synth: Optional[GenerativeSpec] = None
    evaluate: EvalSection = field(default_factory=EvalSection)
    raw: dict = field(default_factory=dict)

    def __post_init__(self):
        check_ratios(self.ratios)
        # dkt and synth seed numpy generators, which take no negative seed
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")

    def config_hash(self) -> str:
        payload = json.dumps(self.raw, sort_keys=True).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


# string annotations are evaluated once per dataclass, not on every load
_type_hints = functools.cache(get_type_hints)


def _type_name(kind: Any) -> str:
    origin, args = get_origin(kind), get_args(kind)
    if origin is Union:
        return " or ".join(map(_type_name, args))
    if origin is tuple:
        return f"{len(args)}-element list"
    if origin is dict or is_dataclass(kind):
        return "object"
    if origin is not None:
        return f"list of {_type_name(args[0])}"
    return "null" if kind is type(None) else kind.__name__


def _value(value: Any, kind: Any, where: str) -> Any:
    """``value`` checked against the field type ``kind``. An int widens to
    float, true/false is no number, list items and mapping entries typed str
    (ids, column names) become str, and a section (a dataclass) must be an
    object, which ``build_config`` reads into it."""
    origin, args = get_origin(kind), get_args(kind)
    if origin is Union:
        for arm in args:
            try:
                return _value(value, arm, where)
            except ConfigError:
                pass
    elif origin is dict:
        if isinstance(value, dict):
            return {str(k): str(v) for k, v in value.items()}
    elif origin in (list, tuple, Sequence):
        if isinstance(value, list) and (origin is not tuple or len(value) == len(args)):
            items = [str(v) if args[0] is str else _value(v, args[0], where) for v in value]
            return tuple(items) if origin is tuple else items
    elif is_dataclass(kind):
        if isinstance(value, dict):
            return value
    elif kind is type(None):
        if value is None:
            return None
    elif isinstance(value, bool) and kind is not bool:
        pass
    elif isinstance(value, kind):
        return value
    elif kind is float and isinstance(value, int):
        return float(value)
    raise ConfigError(f"{where}: expected {_type_name(kind)}, got {type(value).__name__}")


def _section(cls, section: dict, where: str, **fixed):
    """``cls`` read from the config object ``section``. Its keys are the
    fields of ``cls`` that ``fixed`` does not set; a field without a default
    is required, and each value is checked against the field's type. A
    ``ValueError`` from ``cls`` itself becomes a ``ConfigError``."""
    keys = [f for f in fields(cls) if f.name not in fixed]
    unknown = set(section) - {f.name for f in keys}
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    hints = _type_hints(cls)
    values = dict(fixed)
    for f in keys:
        if f.name in section:
            values[f.name] = _value(section[f.name], hints[f.name], f"{where}.{f.name}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing required key {f.name!r} in {where}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _probe_section(section: dict, top: RunConfig) -> ProbeSection:
    """The flat ``probe`` object holds the keys of ``ProbeConfig`` and of
    ``ProbeSection`` plus the file-only ``cache`` switch, which puts the
    cache in the workspace. ``cache_dir`` is not read from the file."""
    client_keys = {f.name for f in fields(ProbeConfig)}
    rest = {k: v for k, v in section.items() if k not in client_keys}
    cache = _value(rest.pop("cache", True), bool, "config.probe.cache")
    client = _section(
        ProbeConfig,
        {k: v for k, v in section.items() if k in client_keys},
        "config.probe",
        cache_dir=str(Path(top.workspace) / "probe_cache") if cache else None,
    )
    return _section(ProbeSection, rest, "config.probe", probe=client)


def parse_override(expr: str) -> Tuple[List[str], Any]:
    """Parse ``a.b.c=value`` where value is a JSON literal when possible."""
    if "=" not in expr:
        raise ConfigError(f"override must look like path=value, got {expr!r}")
    path, raw_value = expr.split("=", 1)
    keys = [k for k in path.strip().split(".") if k]
    if not keys:
        raise ConfigError(f"empty override path in {expr!r}")
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    return keys, value


def apply_override(raw: dict, keys: List[str], value: Any) -> None:
    node = raw
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override path {'.'.join(keys)} crosses a non-object value")
    node[keys[-1]] = value


def build_config(raw: dict) -> RunConfig:
    """Read the top level, where a section is only checked to be an object,
    then read each section into its dataclass; ``dkt`` and ``synth`` take
    the top-level ``seed``."""
    top = _section(RunConfig, raw, "config", raw=raw)
    return replace(
        top,
        data=None if top.data is None else _section(DataConfig, top.data, "config.data"),
        dkt=_section(TrainConfig, raw.get("dkt", {}), "config.dkt", seed=top.seed),
        probe=None if top.probe is None else _probe_section(top.probe, top),
        synth=None
        if top.synth is None
        else _section(GenerativeSpec, top.synth, "config.synth", seed=top.seed),
        evaluate=_section(EvalSection, raw.get("evaluate", {}), "config.evaluate"),
    )


def load_config(path: str | Path, overrides: List[str] | None = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    for expr in overrides or []:
        keys, value = parse_override(expr)
        apply_override(raw, keys, value)
    return build_config(raw)
