"""Line-oriented configuration files with dotted section paths.

Format: one `section.key = value` per line, '#' starts a comment, blank
lines are ignored. Unknown and repeated keys are rejected; missing keys take
the defaults in SCHEMA, and `--set` style overrides win over the file (the
last of several overrides of one key wins).
"""

from __future__ import annotations

import enum
import re
import typing
from collections import defaultdict
from dataclasses import fields

from .cost import CostParams
from .errors import InvalidArgumentError
from .harness import RUN_KEYS, ExperimentConfig
from .model import ModelConfig
from .scheduler import ScheduleConfig, Strategy


class ConfigError(ValueError):
    """A configuration file or override failed validation."""


# cost.<CostParams field> -> default as text
_COST_DEFAULTS = dict(
    p="0.5", n="3", N="32", L_text="64", L_img="576", M="32", d="4096", m="11008"
)

# key -> (value type, default as text): the `run` keys from harness.RUN_KEYS,
# typed by their dataclass field, then one cost.* key per CostParams field.
SCHEMA: dict[str, tuple[type, str]] = {
    **{
        key: (typing.get_type_hints(owner)[name], default)
        for key, (owner, name, default) in RUN_KEYS.items()
    },
    **{
        f"cost.{name}": (kind, _COST_DEFAULTS[name])
        for name, kind in typing.get_type_hints(CostParams).items()
    },
}

# The dataclasses validate in field names; a `run` error names the key instead.
_FIELD_KEYS = {name: key for key, (_, name, _) in RUN_KEYS.items()}
_FIELD_NAMES = re.compile(r"\b(" + "|".join(_FIELD_KEYS) + r")\b")


def _parse_value(key: str, text: str):
    kind = SCHEMA[key][0]
    try:
        return kind(text)
    except ValueError as exc:
        reason = f"one of {sorted(m.value for m in kind)}" if issubclass(kind, enum.Enum) else exc
        raise ConfigError(f"bad value for {key}: {text!r} ({reason})") from exc


def parse_config_text(text: str) -> dict[str, str]:
    """Raw key -> value strings; rejects unknown keys, repeated keys and malformed lines."""
    values: dict[str, str] = {}
    key_lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in key_lines:
            raise ConfigError(f"line {lineno}: key {key!r} already set on line {key_lines[key]}")
        values[key], key_lines[key] = value, lineno
    return values


def parse_override(item: str) -> tuple[str, str]:
    """One '--set dotted.key=value' argument."""
    if "=" not in item:
        raise ConfigError(f"override {item!r} is not of the form key=value")
    key, _, value = item.partition("=")
    key, value = key.strip(), value.strip()
    if key not in SCHEMA:
        raise ConfigError(f"unknown key {key!r} in override")
    return key, value


def resolve(file_values: dict[str, str] | None = None, overrides=()) -> dict[str, str]:
    """Defaults, then file values, then overrides; returns raw text values."""
    resolved = {key: default for key, (_, default) in SCHEMA.items()}
    if file_values:
        resolved.update(file_values)
    for item in overrides:
        key, value = parse_override(item)
        resolved[key] = value
    return resolved


def load_config(path: str | None, overrides=()) -> dict[str, str]:
    file_values = None
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            file_values = parse_config_text(fh.read())
    return resolve(file_values, overrides)


def typed(resolved: dict[str, str]) -> dict:
    return {key: _parse_value(key, text) for key, text in resolved.items()}


def experiment_config_from(resolved: dict[str, str]) -> ExperimentConfig:
    """Build the experiment from resolved raw values; errors name the bad key."""
    values = typed(resolved)
    kwargs = defaultdict(dict)
    for key, (owner, name, _) in RUN_KEYS.items():
        kwargs[owner][name] = values[key]
    run = kwargs[ExperimentConfig]
    try:
        seq_len = run["num_system"] + run["num_visual"] + run["num_question"]
        # floored at 1 so that a bad count reaches ExperimentConfig's own check
        max_positions = max(1, seq_len + run["decode_steps"] + 1)
        model = ModelConfig(**kwargs[ModelConfig], max_positions=max_positions)
        schedule = ScheduleConfig(**kwargs[ScheduleConfig])
        # the vanilla baseline first, once
        strategies = tuple(dict.fromkeys((Strategy.VANILLA, schedule.strategy)))
        return ExperimentConfig(**run, model=model, schedule=schedule, strategies=strategies)
    except InvalidArgumentError as exc:
        message = _FIELD_NAMES.sub(lambda m: _FIELD_KEYS[m[1]], str(exc))
        raise ConfigError(message) from exc


def cost_params_from(resolved: dict[str, str], **flag_overrides) -> CostParams:
    """CostParams from the cost.* section, with CLI flags taking precedence."""
    values = typed(resolved)
    merged = {f.name: values[f"cost.{f.name}"] for f in fields(CostParams)}
    merged.update((name, value) for name, value in flag_overrides.items() if value is not None)
    try:
        return CostParams(**merged)
    except InvalidArgumentError as exc:
        raise ConfigError(str(exc)) from exc
