"""Experiment configuration: INI-style sections with SI units throughout.

Sections: [pump], [crystal], [slits], [grid], [counting], [output].  Every
value an experiment reads, including defaults applied implicitly, is recorded
so the run manifest can list the fully resolved parameter set.
"""

import configparser
import math
from pathlib import Path

from .errors import ConfigError, section_errors
from .pump import PumpParams
from .spdc import CrystalParams

__all__ = ["load_config", "Resolver", "pumps_from", "crystal_from"]

_REQUIRED = object()


def load_config(path) -> dict:
    """Parse an INI config file into {section: {key: raw string}}."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return {name: dict(parser[name]) for name in parser.sections()}


def _finite(text: str) -> float:
    """A float config value; nan and +-inf are rejected."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


class Resolver:
    """Typed access to the raw config that records every resolved value."""

    def __init__(self, raw: dict):
        self.raw = raw
        self.resolved = {}

    def require_section(self, name: str):
        if name not in self.raw:
            raise ConfigError(f"missing required config section [{name}]")

    def get(self, section: str, key: str, default=_REQUIRED, cast=_finite):
        block = self.raw.get(section, {})
        if key in block and block[key].strip() != "":
            text = block[key].strip()
            try:
                value = cast(text)
            except (TypeError, ValueError) as exc:
                raise ConfigError(
                    f"bad value for [{section}] {key}: {text!r}") from exc
        elif default is _REQUIRED:
            raise ConfigError(f"missing required config key [{section}] {key}")
        else:
            value = default
        self.resolved[f"{section}.{key}"] = value
        return value

    def get_list(self, section: str, key: str, default=_REQUIRED, cast=_finite):
        """A non-empty comma-separated list, each item read by cast."""
        def items(text):
            value = [cast(part.strip()) for part in text.split(",")
                     if part.strip() != ""]
            if not value:
                raise ValueError("empty list")
            return value

        if default is not _REQUIRED:
            default = list(default)
        return self.get(section, key, default, cast=items)


def pumps_from(res: Resolver) -> list[PumpParams]:
    """Pump parameter set for each configured degree of coherence.

    [pump] accepts either `A_values` (list) or a single `l_c`; w0 defaults to
    0.5 mm, which is a configuration choice rather than a measured value.
    """
    res.require_section("pump")
    lambda_p = res.get("pump", "lambda_p", 405e-9)
    w0 = res.get("pump", "w0", 0.5e-3)
    block = res.raw.get("pump", {})
    with section_errors("pump"):
        if "l_c" in block:
            l_c = res.get("pump", "l_c")
            return [PumpParams(lambda_p=lambda_p, w0=w0, l_c=l_c)]
        a_values = res.get_list("pump", "a_values", [0.9, 0.6, 0.3])
        return [PumpParams.from_coherence(lambda_p, w0, a) for a in a_values]


def crystal_from(res: Resolver) -> CrystalParams:
    res.require_section("crystal")
    kind = res.get("crystal", "kind", "II", cast=str).strip().upper()
    theta_deg = res.get("crystal", "theta_nc_deg", 3.0)
    with section_errors("crystal"):
        return CrystalParams(
            L=res.get("crystal", "l", 2e-3),
            kind=kind,
            alpha=res.get("crystal", "alpha", 0.455),
            theta_nc=math.radians(theta_deg),
            rho_p=res.get("crystal", "rho_p", 0.0),
            rho_i=res.get("crystal", "rho_i", 0.0),
        )
