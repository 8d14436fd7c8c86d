"""Dimensions of the two-layer space R^{d1} x R^{d2}, and config errors."""

from __future__ import annotations

from dataclasses import dataclass


class ConfigError(ValueError):
    """A value that comes from a config does not parse or is out of range."""


class UnknownName(ConfigError, KeyError):
    """A name in a config that names nothing; raised by ``known_name``."""


def known_name(what: str, name, names):
    """``name`` if it is one of ``names``, else UnknownName listing them."""
    if name not in names:
        raise UnknownName(f"unknown {what} {name!r}; "
                          f"available: {tuple(names)}")
    return name


def config_value(cfg: dict, key: str, default):
    """``cfg[key]`` parsed from its text with the type of ``default`` (so 4.5
    is no int), else ``default``; ConfigError naming ``key`` if it fails."""
    try:
        return type(default)(str(cfg[key])) if key in cfg else default
    except ValueError:
        raise ConfigError(f"{key} must parse as {type(default).__name__}, "
                          f"got {cfg[key]!r}") from None


@dataclass(frozen=True)
class Dims:
    """The layer dimensions (d1, d2) and the derived dimensional constants.

    * ``total_dim``       -- d1 + d2, the topological dimension.
    * ``homogeneous_dim`` -- d1 + 2*d2, governs ball-volume doubling.
    * ``volume_dim``      -- max(d1 + d2, 2*d2), the larger volume branch.
    * ``threshold_dim``   -- min(volume_dim, d1 + d2 + 1), enters the
      smoothness thresholds in the non-Banach regions.
    """

    d1: int
    d2: int

    def __post_init__(self):
        if int(self.d1) != self.d1 or int(self.d2) != self.d2:
            raise ConfigError("d1, d2 must be integers")
        if self.d1 < 1 or self.d2 < 1:
            raise ConfigError(f"d1, d2 must be >= 1, got ({self.d1}, {self.d2})")

    @property
    def total_dim(self) -> int:
        return self.d1 + self.d2

    @property
    def homogeneous_dim(self) -> int:
        return self.d1 + 2 * self.d2

    @property
    def volume_dim(self) -> int:
        return max(self.d1 + self.d2, 2 * self.d2)

    @property
    def threshold_dim(self) -> int:
        return min(self.volume_dim, self.d1 + self.d2 + 1)
