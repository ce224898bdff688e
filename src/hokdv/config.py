"""Flat key = value experiment configuration with typed schema validation.

The format is one `key = value` pair per line; `#` starts a comment.
Values stay text until `validate_config` parses each one once, by the kind
its schema field names: int, float (finite only), bool (true/false in any
case), str (kept as written), or comma-separated int_list / float_list.
Unknown, missing and unparsable keys are hard usage errors naming the
offending key, so a config file plus the command line always pins a run
completely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


class ConfigError(ValueError):
    """Invalid, missing, or unknown configuration key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"config key '{key}': {message}")
        self.key = key


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(line, f"line {lineno} is not a key = value pair")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(raw.strip(), f"empty key on line {lineno}")
        out[key] = value
    return out


def load_config(path: str | Path) -> dict[str, str]:
    return parse_config_text(Path(path).read_text())


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _bool(text: str) -> bool:
    lowered = text.lower()
    if lowered not in ("true", "false"):
        raise ValueError(text)
    return lowered == "true"


def _items(parse: Callable[[str], Any]) -> Callable[[str], list]:
    return lambda text: [parse(item.strip()) for item in text.split(",") if item.strip()]


# schema kind -> (parser of the value text, which raises ValueError, and what it expects)
PARSERS: dict[str, tuple[Callable[[str], Any], str]] = {
    "int": (int, "an integer"),
    "float": (_finite, "a finite number"),
    "bool": (_bool, "true or false"),
    "str": (str, "a string"),
    "int_list": (_items(int), "a comma-separated list of integers"),
    "float_list": (_items(_finite), "a comma-separated list of finite numbers"),
}


@dataclass(frozen=True)
class Field:
    """One schema entry: kind (a key of PARSERS), default (None means required)."""

    kind: str
    default: Any = None
    check: Callable[[Any], bool] | None = None
    help: str = ""


def validate_config(raw: dict[str, str], schema: dict[str, Field]) -> dict[str, Any]:
    for key in raw:
        if key not in schema:
            raise ConfigError(key, "unknown key")
    out: dict[str, Any] = {}
    for key, spec in schema.items():
        if key in raw:
            parse, expected = PARSERS[spec.kind]
            try:
                value = parse(raw[key])
            except ValueError:
                raise ConfigError(key, f"expected {expected}, got {raw[key]!r}") from None
        elif spec.default is None:
            raise ConfigError(key, "missing required key")
        else:
            value = spec.default
        if spec.check is not None and not spec.check(value):
            raise ConfigError(key, f"invalid value {value!r}" + (f" ({spec.help})" if spec.help else ""))
        out[key] = value
    return out
