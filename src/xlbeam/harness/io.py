"""Result serialization: fixed-format CSV, run manifests, config loading.

All numeric formatting is pinned so identical (config, seed) runs emit
byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from pathlib import Path


class ConfigError(Exception):
    """Invalid or incomplete run configuration; maps to exit code 2."""


def fmt_value(x) -> str:
    """Stable scalar formatting: 12 significant digits, inf/nan spelled out."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return format(x, ".12g")
    return str(x)


def write_csv(path, rows: list[dict], columns: list[str]) -> None:
    """Write rows under a fixed header; missing keys render empty."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(fmt_value(row[c]) if c in row else "" for c in columns))
    path.write_text("\n".join(lines) + "\n")


def config_digest(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def write_manifest(path, config: dict, seed: int, outputs: list[str]) -> None:
    """Record what produced the artifacts: config, its hash, seed, versions,
    and the host's CPU count and BLAS thread settings (which can change
    speed but never the numbers)."""
    import numpy

    from .. import __version__

    manifest = {
        "config": config,
        "config_sha256": config_digest(config),
        "seed": seed,
        "outputs": sorted(outputs),
        "versions": {"xlbeam": __version__, "numpy": numpy.__version__},
        "host": {"cpu_count": os.cpu_count(),
                 **{var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS}},
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def load_config(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        config = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config must be a JSON object, got {type(config).__name__}")
    return config


def require_keys(config: dict, paths: list[str], where: str = "") -> None:
    """Raise ConfigError naming the first missing dotted key path.

    ``config`` is the node at dotted path ``where`` (the root when empty),
    which the message prefixes; a node that is not a dict lacks every key.
    """
    prefix = f"{where}." if where else ""
    for keypath in paths:
        node = config
        for part in keypath.split("."):
            if not isinstance(node, dict) or part not in node:
                raise ConfigError(f"missing config key: {prefix}{keypath}")
            node = node[part]


def fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code
