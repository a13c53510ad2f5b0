"""Flat key=value scenario files describing a bench configuration.

Keys are the dot-separated field paths of :class:`~biphoton.bench.BenchConfig`
(``det1.eta=0.45``, ``pockels.q=0.832``, ``tac.stop_delay_ns=9.3``, ...).
Lines starting with ``#`` are comments, unknown and duplicate keys are
rejected, and ``parse_config(render_config(cfg)) == cfg`` holds exactly.
The same grammar carries the count files consumed by the calibrate command.
"""

from __future__ import annotations

from dataclasses import replace

from .bench import (
    BenchConfig,
    ConfigError,
    DetectorParams,
    DriverPolicy,
    PockelsParams,
    PulseShape,
    TacParams,
)
from .polarization import Projector

_GROUP_TYPES = {
    "trigger_projector": Projector,
    "analyzer": Projector,
    "pockels": PockelsParams,
    "pulse": PulseShape,
    "driver": DriverPolicy,
    "det1": DetectorParams,
    "det2": DetectorParams,
    "tac": TacParams,
}

_STRING_KEYS = frozenset({"source_kind", "pockels.failure_model"})

CONFIG_KEYS = (
    "pair_rate_hz",
    "source_kind",
    "state_visibility",
    "idler_path_loss",
    "trigger_projector.angle_deg",
    "trigger_projector.transmittance",
    "analyzer.angle_deg",
    "analyzer.transmittance",
    "pockels.q",
    "pockels.failure_model",
    "pockels.rotation_angle_deg",
    "fiber_delay_ns",
    "electronic_delay_ns",
    "pulse.rise_ns",
    "pulse.flat_ns",
    "pulse.fall_ns",
    "driver.rate_threshold_hz",
    "driver.disable_duration_s",
    "det1.eta",
    "det1.dead_time_ns",
    "det1.dark_rate_hz",
    "det2.eta",
    "det2.dead_time_ns",
    "det2.dark_rate_hz",
    "tac.window_ns",
    "tac.stop_delay_ns",
    "background_rate_hz",
)


def parse_keyvalues(text: str) -> dict[str, str]:
    """Parse the generic grammar: one ``key=value`` per line, ``#`` comments."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def parse_counts(text: str, allowed_keys) -> dict[str, float]:
    """Parse a counts file; every value is a float, keys restricted to ``allowed_keys``."""
    kv = parse_keyvalues(text)
    allowed = set(allowed_keys)
    out = {}
    for key, raw in kv.items():
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r}")
        try:
            out[key] = float(raw)
        except ValueError:
            raise ConfigError(f"key {key!r}: {raw!r} is not a number") from None
    return out


def parse_config(text: str) -> BenchConfig:
    """Build a BenchConfig from scenario text; unset keys keep their defaults."""
    kv = parse_keyvalues(text)
    # Retired key of older scenario files, accepted and ignored: the rotation
    # is a plane rotation and acts identically in either linear basis.
    basis = kv.pop("pockels.basis", "hv")
    if basis not in ("hv", "diag"):
        raise ConfigError(f"key 'pockels.basis': {basis!r} not in ('hv', 'diag')")
    known = set(CONFIG_KEYS)
    for key in kv:
        if key not in known:
            raise ConfigError(f"unknown key {key!r}")

    top: dict[str, object] = {}
    groups: dict[str, dict[str, object]] = {name: {} for name in _GROUP_TYPES}
    for key, raw in kv.items():
        if key in _STRING_KEYS:
            value: object = raw
        else:
            try:
                value = float(raw)
            except ValueError:
                raise ConfigError(f"key {key!r}: {raw!r} is not a number") from None
        if "." in key:
            group, fieldname = key.split(".", 1)
            groups[group][fieldname] = value
        else:
            top[key] = value

    base = BenchConfig()
    updates = dict(top)
    for name, overrides in groups.items():
        if overrides:
            updates[name] = replace(getattr(base, name), **overrides)
    return replace(base, **updates)


def _format_value(value) -> str:
    if isinstance(value, str):
        return value
    return repr(float(value))


def render_config(cfg: BenchConfig) -> str:
    """Emit every key in canonical order; inverse of :func:`parse_config`."""
    lines = []
    for key in CONFIG_KEYS:
        obj = cfg
        for part in key.split("."):
            obj = getattr(obj, part)
        lines.append(f"{key}={_format_value(obj)}")
    return "\n".join(lines) + "\n"


def load_config(path) -> BenchConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
