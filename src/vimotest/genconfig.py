"""Generation configuration and its ``genconfig.json`` document format."""

from __future__ import annotations

import json

from .diagnostics import Record
from .model import is_identifier
from .names import KEYWORDS


class GenConfigError(ValueError):
    """The configuration document is malformed or inconsistent."""


class GenConfig(Record):
    target: str = "java"  # java | cpp
    commands_on_view_model: bool = True
    generate_view_controller: bool = False
    abstract_view_model: bool = True
    parameter_object: bool = False
    context_format: str = "multiline"  # multiline | json | xml
    context_delivery: str = "inline"  # inline | file
    java_package: str | None = None
    cpp_namespace: str | None = None

    def __post_init__(self):
        if self.commands_on_view_model == self.generate_view_controller:
            raise GenConfigError(
                "exactly one of commandsOnViewModel and generateViewController "
                "must be enabled")
        if self.target not in ("java", "cpp"):
            raise GenConfigError(f"unknown target {self.target!r}")
        if self.context_format not in ("multiline", "json", "xml"):
            raise GenConfigError(f"unknown contextFormat {self.context_format!r}")
        if self.context_delivery not in ("inline", "file"):
            raise GenConfigError(f"unknown contextDelivery {self.context_delivery!r}")
        # A package becomes a path below the output directory, so it must
        # not step out of it. The empty package or namespace means none.
        if self.java_package:
            _check_qualified_name("javaPackage", self.java_package, ".", "java", "Java")
        if self.cpp_namespace:
            _check_qualified_name("cppNamespace", self.cpp_namespace, "::", "cpp", "C++")


def _check_qualified_name(key: str, value: str, separator: str, target: str,
                          language: str) -> None:
    for part in value.split(separator):
        if not is_identifier(part):
            raise GenConfigError(f"{key} {value!r} must be identifiers joined by "
                                 f"{separator!r}; {part!r} is not one")
        if part in KEYWORDS[target]:
            raise GenConfigError(f"{key} {value!r} holds the {language} keyword {part!r}")


_KEY_MAP = {
    "target": ("target", str),
    "commandsOnViewModel": ("commands_on_view_model", bool),
    "generateViewController": ("generate_view_controller", bool),
    "abstractViewModel": ("abstract_view_model", bool),
    "parameterObject": ("parameter_object", bool),
    "contextFormat": ("context_format", str),
    "contextDelivery": ("context_delivery", str),
    "javaPackage": ("java_package", str),
    "cppNamespace": ("cpp_namespace", str),
}


def parse_genconfig(data: dict) -> GenConfig:
    if not isinstance(data, dict):
        raise GenConfigError("genconfig.json must hold a JSON object")
    kwargs = {}
    for key, value in data.items():
        if key not in _KEY_MAP:
            raise GenConfigError(f"unknown genconfig key {key!r}")
        field_name, expected = _KEY_MAP[key]
        if value is None and key in ("javaPackage", "cppNamespace"):
            continue
        if not isinstance(value, expected) or (expected is not bool
                                               and isinstance(value, bool)):
            raise GenConfigError(
                f"genconfig key {key!r} must be {expected.__name__}, got {value!r}")
        kwargs[field_name] = value
    # When only one command-home key is given, derive the other.
    if "commands_on_view_model" in kwargs and "generate_view_controller" not in kwargs:
        kwargs["generate_view_controller"] = not kwargs["commands_on_view_model"]
    if "generate_view_controller" in kwargs and "commands_on_view_model" not in kwargs:
        kwargs["commands_on_view_model"] = not kwargs["generate_view_controller"]
    return GenConfig(**kwargs)


def load_genconfig(path: str) -> GenConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise GenConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise GenConfigError(f"{path} is not valid JSON: {exc}") from exc
    return parse_genconfig(data)
