"""Scenario configuration: a flat key-value text format with a fixed schema.

One config fully determines a simulation run (together with its adversary
script, which the ``adversary`` key names). Files are line-oriented
``key = value`` pairs; ``#`` starts a comment; unknown keys are errors so a
config can never silently misspell a knob.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

SCHEMA_VERSION = 1

# wire and field limits: node indices and x-coordinates are GF(256) elements
# sent as u8; provider indices and datum lengths are u16 record header fields
MAX_NODES = 255
MAX_PROVIDERS = 65_535
MAX_DATUM_SIZE = 65_535


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    n_nodes: int
    threshold: int
    max_faulty: int
    providers: int
    datum_size_bytes: int = 8
    price: int = 0  # 0 means n_nodes * 100
    preprocessing: str = "clamp"
    window: int = 1
    value_min: int = 0
    value_max: int = 100
    merged_query: bool = True
    shared_key: bool = False
    adversary: str = "HONEST"
    seed: int = 0
    timeout_blocks: int = 10
    node_fee: int = 0

    def resolved_price(self) -> int:
        return self.price if self.price else self.n_nodes * 100

    def validate(self) -> None:
        n, t, f = self.n_nodes, self.threshold, self.max_faulty
        if n < 1 or self.providers < 1:
            raise ConfigError("need at least one node and one provider")
        if n > MAX_NODES:
            raise ConfigError(f"n_nodes {n} exceeds {MAX_NODES} (one GF(256) x-coordinate each)")
        if self.providers > MAX_PROVIDERS:
            raise ConfigError(f"providers {self.providers} exceeds {MAX_PROVIDERS} (u16 index)")
        if not f < n / 2:
            raise ConfigError(f"max_faulty {f} must be < n/2 = {n / 2}")
        if not f < t <= n - f:
            raise ConfigError(f"threshold must satisfy {f} < t <= {n - f}, got {t}")
        if not 1 <= self.datum_size_bytes <= MAX_DATUM_SIZE:
            raise ConfigError(f"datum_size_bytes must lie in 1..{MAX_DATUM_SIZE}")
        if not 0 <= self.value_min <= self.value_max <= 255:
            raise ConfigError("value range must fit one byte")
        if self.preprocessing not in ("clamp", "moving_average", "fixed_width"):
            raise ConfigError(f"unknown preprocessing {self.preprocessing!r}")
        if self.window < 1:
            raise ConfigError("window must be >= 1")
        if self.resolved_price() % n:
            raise ConfigError("price must divide evenly across nodes")
        if self.timeout_blocks < 1:
            raise ConfigError("timeout_blocks must be >= 1")
        if not 0 <= self.node_fee <= self.resolved_price() // n:
            raise ConfigError("node_fee must fit within the per-session price")
        if self.shared_key and t - f < 1:
            raise ConfigError("shared_key needs a nonempty priority group")


_BOOL_KEYS = {"merged_query", "shared_key"}
_STR_KEYS = {"preprocessing", "adversary"}


def parse_config(text: str) -> ScenarioConfig:
    known = {f.name for f in fields(ScenarioConfig)}
    values: dict = {}
    version = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = (p.strip() for p in line.partition("="))
        if key == "schema_version":
            version = value
            continue
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in _BOOL_KEYS:
            if value.lower() not in ("true", "false"):
                raise ConfigError(f"line {lineno}: {key} must be true or false")
            values[key] = value.lower() == "true"
        elif key in _STR_KEYS:
            values[key] = value
        else:
            try:
                values[key] = int(value)
            except ValueError:
                raise ConfigError(f"line {lineno}: {key} must be an integer") from None
    if version is None:
        raise ConfigError("missing schema_version")
    if version != str(SCHEMA_VERSION):
        raise ConfigError(f"unsupported schema_version {version}")
    try:
        config = ScenarioConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
    config.validate()
    return config


def format_config(config: ScenarioConfig) -> str:
    lines = [f"schema_version = {SCHEMA_VERSION}"]
    for f in fields(ScenarioConfig):
        value = getattr(config, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def load_config(path: str) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())
