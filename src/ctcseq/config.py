"""Flat key-value config files with sections, mirroring the dataclass
fields of ModelConfig, TrainConfig and GenConfig one-to-one.

Every run writes back its fully resolved config so experiments are
reproducible from the artifacts alone.
"""
from __future__ import annotations

import configparser
import dataclasses
import typing
from pathlib import Path

from .data import GenConfig, read_utf8
from .model import ModelConfig
from .training import TrainConfig

SECTIONS = {"model": ModelConfig, "train": TrainConfig, "data": GenConfig}


def _format_value(value) -> str:
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    return str(value)


def _parse_value(text: str, annotation):
    text = text.strip()
    if annotation is int:
        return int(text)
    if annotation is float:
        return float(text)
    if annotation == tuple[int, int]:
        parts = [p for p in text.replace("x", ",").split(",") if p.strip()]
        if len(parts) != 2:
            raise ValueError(f"expected two integers, got {text!r}")
        return (int(parts[0]), int(parts[1]))
    return tuple(p.strip() for p in text.split(",") if p.strip())


def load_config(path) -> dict:
    """Read a config file into {'model': ModelConfig, 'train': TrainConfig,
    'data': GenConfig}; missing keys keep their dataclass defaults. A
    malformed file or value ends in a ValueError that names the file or the
    key."""
    parser = configparser.ConfigParser(interpolation=None)
    path = Path(path)
    try:
        parser.read_string(read_utf8(path), source=str(path))
    except configparser.Error as exc:  # its message names the file, over several lines
        raise ValueError(" ".join(str(exc).split())) from None
    out = {}
    for section, cls in SECTIONS.items():
        # annotations are strings under `from __future__ import annotations`
        types = typing.get_type_hints(cls)
        names = {f.name for f in dataclasses.fields(cls)}
        kwargs = {}
        if parser.has_section(section):
            for key, raw in parser.items(section):
                if key not in names:
                    raise ValueError(f"unknown config key [{section}] {key}")
                try:
                    kwargs[key] = _parse_value(raw, types[key])
                except ValueError as exc:
                    raise ValueError(f"[{section}] {key}: {exc}") from None
        out[section] = cls(**kwargs)
    return out


def default_config() -> dict:
    return {section: cls() for section, cls in SECTIONS.items()}


def save_config(configs: dict, path) -> None:
    """Write the fully resolved config (every field, defaults filled)."""
    parser = configparser.ConfigParser(interpolation=None)
    for section, cfg in configs.items():
        parser.add_section(section)
        for f in dataclasses.fields(cfg):
            parser.set(section, f.name, _format_value(getattr(cfg, f.name)))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
