"""Run configuration: one flat key = value file plus command-line overrides."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

__all__ = ["RunConfig", "parse_config_file"]


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return _is_int(v) or isinstance(v, float)


def _list_of(check):
    return lambda v: isinstance(v, (list, tuple)) and all(check(x) for x in v)


# field annotation -> (what a value must be, its check)
_TYPES = {
    "float": ("a number", _is_number),
    "int": ("an integer", _is_int),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "list[str]": ("a list of strings", _list_of(lambda v: isinstance(v, str))),
    "list[int]": ("a list of integers", _list_of(_is_int)),
    "list[float] | None": ("a list of numbers", lambda v: v is None or _list_of(_is_number)(v)),
}


@dataclass
class RunConfig:
    """All tunable pipeline parameters with their documented defaults."""

    sigma_vox: float = 1.0  # Gaussian smoothing, in mask pixels
    iso: float = 0.5
    max_area_mm2: float = 0.25
    min_angle_deg: float = 20.0
    n_samples: int = 100
    schemes: list[str] = field(default_factory=lambda: ["shape_aware"])
    fractions: list[float] | None = None  # None -> per-scheme defaults
    slab_width_mm: float = 5.0
    slab_spacing_mm: float = 0.0  # 0 -> smallest voxel size
    cc_labels: list[int] = field(default_factory=lambda: [251, 252, 253, 254, 255])
    threads: int = 1
    write_svg: bool = True
    template_seg: str = ""
    template_plane: str = ""

    def validate(self) -> "RunConfig":
        """Check every field's type, then its range; each ValueError names the key."""
        for f in dataclasses.fields(self):
            want, ok = _TYPES[f.type]
            value = getattr(self, f.name)
            if not ok(value):
                raise ValueError(f"config key {f.name!r} must be {want}, got {value!r}")
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"config key {f.name!r} must be finite, got {value!r}")
        if not self.sigma_vox > 0:
            raise ValueError("sigma_vox must be positive")
        if not (0.0 < self.iso < 1.0):
            raise ValueError("iso must lie in (0, 1)")
        if not self.max_area_mm2 > 0:
            raise ValueError("max_area_mm2 must be positive")
        if not 0.0 <= self.min_angle_deg < 34.0:  # refinement does not terminate above ~34 degrees
            raise ValueError("min_angle_deg must lie in [0, 34)")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if not (self.slab_width_mm > 0 and self.slab_spacing_mm >= 0):
            raise ValueError("slab geometry must be positive")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if 0 in self.cc_labels:  # the slab's CC mask is looked for among its non-zero voxels
            raise ValueError("cc_labels must not hold 0, the background label")
        fr = self.fractions or []
        if any(not (0.0 < x < 1.0) for x in fr) or any(b <= a for a, b in zip(fr, fr[1:])):
            raise ValueError("fractions must be strictly increasing within (0, 1)")
        from .subseg import SCHEME_KINDS

        for s in self.schemes:
            if s not in SCHEME_KINDS:
                raise ValueError(f"unknown sub-segmentation scheme {s!r}")
        return self

    def to_text(self) -> str:
        """Resolved config echo, one key = value per line (deterministic)."""
        lines = []
        for f in dataclasses.fields(self):
            lines.append(f"{f.name} = {json.dumps(getattr(self, f.name))}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "RunConfig":
        values = parse_config_file(path) if path else {}
        if overrides:
            values.update({k: v for k, v in overrides.items() if v is not None})
        return cls.from_dict(values)

    @classmethod
    def from_dict(cls, values: dict) -> "RunConfig":
        known = {f.name: f for f in dataclasses.fields(cls)}
        kwargs = {}
        for k, v in values.items():
            if k not in known:
                raise ValueError(f"unknown config key {k!r}")
            kwargs[k] = v
        return cls(**kwargs).validate()


def parse_config_file(path) -> dict:
    """Parse a flat TOML-style ``key = value`` file.

    Values are JSON literals (numbers, strings, booleans, lists); unquoted
    single words are taken as strings. ``#`` starts a comment.
    """
    out = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            try:
                out[key] = json.loads(val)
            except json.JSONDecodeError:
                out[key] = val
    return out
