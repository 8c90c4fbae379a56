"""Line-oriented configuration files with dotted section paths.

Format: one `section.key = value` per line, '#' starts a comment, blank
lines are ignored. Unknown keys are rejected; missing keys take the
documented defaults below, and `--set` style overrides win over the file.
"""

from __future__ import annotations

from dataclasses import fields

from .cost import CostParams
from .errors import InvalidArgumentError
from .harness import ExperimentConfig
from .model import ModelConfig
from .scheduler import ScheduleConfig, Strategy


class ConfigError(ValueError):
    """A configuration file or override failed validation."""


_STRATEGY_NAMES = {s.value for s in Strategy}

# key -> (type tag, default as text)
SCHEMA: dict[str, tuple[str, str]] = {
    "model.layers": ("int", "4"),
    "model.hidden_dim": ("int", "32"),
    "model.heads": ("int", "4"),
    "model.mlp_dim": ("int", "64"),
    "model.vocab": ("int", "101"),
    "model.seed": ("int", "0"),
    "tokens.system": ("int", "4"),
    "tokens.visual": ("int", "16"),
    "tokens.question": ("int", "6"),
    "schedule.strategy": ("strategy", "ParVTSBatch"),
    "schedule.migration_depth": ("int", "2"),
    "schedule.alpha": ("float", "0.5"),
    "schedule.beta": ("float", "0.5"),
    "schedule.joint_prefix": ("int", "1"),
    "partition.keep_count": ("int", "8"),
    "partition.saliency": ("str", "toy"),
    "decode.steps": ("int", "4"),
    "cost.p": ("float", "0.5"),
    "cost.n": ("int", "3"),
    "cost.N": ("int", "32"),
    "cost.L_text": ("int", "64"),
    "cost.L_img": ("int", "576"),
    "cost.M": ("int", "32"),
    "cost.d": ("int", "4096"),
    "cost.m": ("int", "11008"),
}


def _parse_value(key: str, text: str):
    kind = SCHEMA[key][0]
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        if kind == "strategy":
            if text not in _STRATEGY_NAMES:
                raise ValueError(f"one of {sorted(_STRATEGY_NAMES)}")
            return Strategy(text)
        return text
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {text!r} ({exc})") from exc


def parse_config_text(text: str) -> dict[str, str]:
    """Raw key -> value strings; rejects unknown keys and malformed lines."""
    values: dict[str, str] = {}
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
        values[key] = value
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
    seq_len = (
        values["tokens.system"] + values["tokens.visual"] + values["tokens.question"]
    )
    try:
        model = ModelConfig(
            num_layers=values["model.layers"],
            hidden_dim=values["model.hidden_dim"],
            num_heads=values["model.heads"],
            mlp_dim=values["model.mlp_dim"],
            vocab_size=values["model.vocab"],
            max_positions=seq_len + values["decode.steps"] + 1,
            master_seed=values["model.seed"],
        )
        schedule = ScheduleConfig(
            strategy=values["schedule.strategy"],
            migration_depth=values["schedule.migration_depth"],
            alpha=values["schedule.alpha"],
            beta=values["schedule.beta"],
            joint_prefix_layers=values["schedule.joint_prefix"],
        )
        schedule.validate(model.num_layers)
        strategies = [values["schedule.strategy"]]
        if Strategy.VANILLA not in strategies:
            strategies.insert(0, Strategy.VANILLA)
        return ExperimentConfig(
            model=model,
            num_system=values["tokens.system"],
            num_visual=values["tokens.visual"],
            num_question=values["tokens.question"],
            saliency_source=values["partition.saliency"],
            keep_count=values["partition.keep_count"],
            schedule=schedule,
            decode_steps=values["decode.steps"],
            strategies=tuple(strategies),
        )
    except InvalidArgumentError as exc:
        raise ConfigError(str(exc)) from exc


def cost_params_from(resolved: dict[str, str], **flag_overrides) -> CostParams:
    """CostParams from the cost.* section, with CLI flags taking precedence."""
    values = typed(resolved)
    merged = {f.name: values[f"cost.{f.name}"] for f in fields(CostParams)}
    merged.update((name, value) for name, value in flag_overrides.items() if value is not None)
    try:
        return CostParams(**merged)
    except InvalidArgumentError as exc:
        raise ConfigError(str(exc)) from exc
