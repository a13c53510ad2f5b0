"""Flat key=value scenario files describing a bench configuration.

Keys are the dot-separated field paths of :class:`~biphoton.bench.BenchConfig`
(``det1.eta=0.45``, ``pockels.q=0.832``, ``tac.stop_delay_ns=9.3``, ...), in
the dataclasses' field order; a field whose default is a string takes a
string, every other field a number.  Lines starting with ``#`` are comments,
unknown and duplicate keys are rejected, and
``parse_config(render_config(cfg)) == cfg`` holds exactly.  The same grammar
carries the count files consumed by the calibrate command.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass, replace

from .bench import BenchConfig, ConfigError


def _leaves(obj, prefix=""):
    """Yield ``(key, value)`` for each scalar field of dataclass ``obj``.

    Fields come in declaration order; a field holding a dataclass expands
    to its own fields as ``group.field``.
    """
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _leaves(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, value


_DEFAULTS = dict(_leaves(BenchConfig()))

CONFIG_KEYS = tuple(_DEFAULTS)


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


def _number(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: {raw!r} is not a number") from None


def _check_keys(kv: dict[str, str], allowed) -> None:
    for key in kv:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r}")


def parse_counts(text: str, allowed_keys) -> dict[str, float]:
    """Parse a counts file; every value is a float, keys restricted to ``allowed_keys``."""
    kv = parse_keyvalues(text)
    _check_keys(kv, set(allowed_keys))
    return {key: _number(key, raw) for key, raw in kv.items()}


def _with_values(obj, values: dict[str, object], prefix=""):
    """Copy of dataclass ``obj`` with the ``values`` keyed by its field paths."""
    updates = {}
    for f in fields(obj):
        key, value = prefix + f.name, getattr(obj, f.name)
        if is_dataclass(value):
            updates[f.name] = _with_values(value, values, key + ".")
        elif key in values:
            updates[f.name] = values[key]
    return replace(obj, **updates)


def parse_config(text: str) -> BenchConfig:
    """Build a BenchConfig from scenario text; unset keys keep their defaults."""
    kv = parse_keyvalues(text)
    # Retired key of older scenario files, accepted and ignored: the rotation
    # is a plane rotation and acts identically in either linear basis.
    basis = kv.pop("pockels.basis", "hv")
    if basis not in ("hv", "diag"):
        raise ConfigError(f"key 'pockels.basis': {basis!r} not in ('hv', 'diag')")
    _check_keys(kv, _DEFAULTS)
    values = {
        key: raw if isinstance(_DEFAULTS[key], str) else _number(key, raw)
        for key, raw in kv.items()
    }
    return _with_values(BenchConfig(), values)


def _format_value(value) -> str:
    if isinstance(value, str):
        return value
    return repr(float(value))


def render_config(cfg: BenchConfig) -> str:
    """Emit every key in canonical order; inverse of :func:`parse_config`."""
    lines = [f"{key}={_format_value(value)}" for key, value in _leaves(cfg)]
    return "\n".join(lines) + "\n"


def load_config(path) -> BenchConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
