"""Experiment configuration: INI-style sections with SI units throughout.

Sections: [pump], [crystal], [slits], [grid], [counting], [output].  KEYS
holds each key's default, reader and bounds; Resolver.get takes them from
there and records every value an experiment reads, defaults included, so the
run manifest can list the fully resolved parameter set.
"""

import configparser
import math
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import ConfigError, section_errors
from .interference import DEFAULT_SAMPLES
from .pump import PumpParams, csd_coefficients, require_coherence_range
from .spdc import DEFAULT_ALPHA, CrystalParams

__all__ = ["load_config", "Resolver", "pumps_from", "crystal_from", "KEYS",
           "RETIRED_KEYS"]

_REQUIRED = object()


def _finite(text: str) -> float:
    """A float config value; nan and +-inf are rejected."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _finite_list(text: str) -> list[float]:
    """A non-empty comma-separated list of finite floats."""
    value = [_finite(part) for part in text.split(",") if part.strip()]
    if not value:
        raise ValueError("empty list")
    return value


def _integer(text: str) -> int:
    """An integer config value: "2000" and "2e3" read as 2000, "2000.7" fails."""
    try:
        return int(text)
    except ValueError:
        value = float(text)
        if not value.is_integer():
            raise ValueError(f"{text!r} is not an integer") from None
        return int(value)


def _column_index(text: str) -> int:
    """A configured column index; the default -1 (auto) is never read."""
    value = _integer(text)
    if value < 0:
        raise ValueError(f"{text!r} is negative")
    return value


class Key(NamedTuple):
    """A key's default (_REQUIRED: none), reader and inclusive bounds."""

    default: object
    read: Callable[[str], object] = _finite
    low: float | None = None
    high: float | None = None


# Upper bounds of the sample counts, checked before anything is allocated
MAX_D12_SAMPLES = 10_000       # per a_s, each a row and a J1 evaluation
MAX_GRID_SAMPLES = 2048        # profile side; a samples^2 float grid is 34 MB
MAX_DETECTOR_SAMPLES = 10_000  # 4 KB of slit phases each at order 128: 41 MB
MAX_FRAMES = 100_000           # five full-scale stacks, 4 n_px bytes a frame
MAX_N_PX = 512                 # a 512 x 512 EMCCD's line; the joint is n_px^2
# mean pairs a frame: 8 MB of position draws a frame, and 15 times the
# counts one u16 pixel holds
MAX_PAIRS_PER_FRAME = 1_000_000

# Every key some experiment reads, per section; configparser lower-cases keys.
# Without a default: l_c, read only in place of a_values; frames_file, whose
# default (frames.bin in the output directory) coincidence passes; and the
# output directory, which the CLI resolves.  w0's default is a configuration
# choice, not a measured value; signal_px = -1 picks the brightest column.
KEYS = {
    "pump": {"lambda_p": Key(405e-9), "w0": Key(0.5e-3),
             "a_values": Key((0.9, 0.6, 0.3), _finite_list),
             "l_c": Key(_REQUIRED), "demag": Key(8.0), "f_char": Key(0.150),
             "a_s_values": Key((0.25e-3, 0.5e-3, 1.0e-3), _finite_list),
             "d12_max": Key(2.0e-3),
             "d12_samples": Key(64, _integer, 1, MAX_D12_SAMPLES)},
    "crystal": {"l": Key(2e-3), "kind": Key("II", str),
                "alpha": Key(DEFAULT_ALPHA), "theta_nc_deg": Key(3.0),
                "rho_p": Key(0.0), "rho_i": Key(0.0)},
    "slits": {"a": Key(0.15e-3),
              "d_values": Key((0.25e-3, 0.5e-3, 0.75e-3), _finite_list),
              "z": Key(0.10), "z1": Key(0.20)},
    "grid": {"samples": Key(256, _integer, 2, MAX_GRID_SAMPLES),
             "detector_samples": Key(DEFAULT_SAMPLES, _integer, 2,
                                     MAX_DETECTOR_SAMPLES),
             "extent": Key(0.0)},
    "counting": {"n_frames": Key(2000, _integer, 2, MAX_FRAMES),
                 "pairs_per_frame": Key(20.0, high=MAX_PAIRS_PER_FRAME),
                 "noise": Key(1e-3), "seed": Key(12345, _integer),
                 "n_px": Key(48, _integer, 2, MAX_N_PX), "f_collim": Key(0.200),
                 "frames_file": Key(_REQUIRED, str),
                 "signal_px": Key(-1, _column_index)},
    "output": {"directory": Key(_REQUIRED, str)},
}
# Keys no experiment reads any more, still accepted so older configs run.
RETIRED_KEYS = {"grid": {"order"}}


def load_config(path) -> dict:
    """Parse an INI config file into {section: {key: raw string}}.

    A section or key outside KEYS and RETIRED_KEYS is a ConfigError, so a
    misspelt key cannot silently fall back to its default.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
        raw = {name: dict(parser[name]) for name in parser.sections()}
    except configparser.InterpolationError as exc:  # e.g. a lone "%"
        raise ConfigError(f"bad value for [{exc.section}] {exc.option}: "
                          f"{exc.message}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    for section, block in raw.items():
        if section not in KEYS:
            raise ConfigError(f"unknown config section [{section}] in {path}")
        for key in block:
            if key not in KEYS[section] and \
                    key not in RETIRED_KEYS.get(section, ()):
                raise ConfigError(f"unknown config key [{section}] {key} "
                                  f"in {path}")
    return raw


class Resolver:
    """Typed access to the raw config that records every resolved value."""

    def __init__(self, raw: dict):
        self.raw = raw
        self.resolved = {}

    def section(self, name: str, *keys: str) -> list:
        """The values of keys in [name], a section the config must have."""
        if name not in self.raw:
            raise ConfigError(f"missing required config section [{name}]")
        return [self.get(name, key) for key in keys]

    def get(self, section: str, key: str, default=_REQUIRED):
        """[section] key, read and bounded as KEYS says; a default given here
        replaces the table's."""
        row = KEYS[section][key]
        text = self.raw.get(section, {}).get(key, "").strip()
        if text:
            try:
                value = row.read(text)
            except (TypeError, ValueError) as exc:
                raise ConfigError(
                    f"bad value for [{section}] {key}: {text!r}") from exc
        else:
            value = row.default if default is _REQUIRED else default
            if value is _REQUIRED:
                raise ConfigError(
                    f"missing required config key [{section}] {key}")
        if row.low is not None and value < row.low:
            raise ConfigError(f"[{section}] {key} must be >= {row.low}, "
                              f"got {value!r}")
        if row.high is not None and value > row.high:
            raise ConfigError(f"[{section}] {key} must be <= {row.high}, "
                              f"got {value!r}")
        self.resolved[f"{section}.{key}"] = value
        return value


def pumps_from(res: Resolver) -> list[PumpParams]:
    """Pump parameter set for each configured degree of coherence.

    [pump] accepts either `A_values` (list) or a single `l_c`.  The coherence
    width's 1 / w0^2 and 1 / l_c^2 are checked, and each pump's CSD
    coefficients computed once, here, so that a w0, l_c or A out of their
    range is named before any model overflows on it.
    """
    lambda_p, w0 = res.section("pump", "lambda_p", "w0")
    with section_errors("pump"):
        if "l_c" in res.raw["pump"]:
            l_c = res.get("pump", "l_c")
            pumps = [PumpParams(lambda_p=lambda_p, w0=w0, l_c=l_c)]
            require_coherence_range(w0=w0, l_c=l_c)
        else:
            pumps = [PumpParams.from_coherence(lambda_p, w0, a)
                     for a in res.get("pump", "a_values")]
        for pump in pumps:
            csd_coefficients(pump)
    return pumps


def crystal_from(res: Resolver) -> CrystalParams:
    kind, theta_deg = res.section("crystal", "kind", "theta_nc_deg")
    with section_errors("crystal"):
        return CrystalParams(
            L=res.get("crystal", "l"),
            kind=kind.upper(),
            alpha=res.get("crystal", "alpha"),
            theta_nc=math.radians(theta_deg),
            rho_p=res.get("crystal", "rho_p"),
            rho_i=res.get("crystal", "rho_i"),
        )
