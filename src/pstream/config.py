"""Experiment configuration and its JSON form.

The JSON document mirrors the dataclass fields in snake_case::

    {
      "source":    {"mean_photon_override": 0.012, ...},
      "optics":    {"intrinsic_visibility": 0.882, ..., "pzt": {...}},
      "detectors": [{...}, {...}],        # or one object applied to both
      "ccm":       {...},
      "scan":      {"n_points": 316, "seconds_per_point": 1.0,
                    "seed": 123456789, "asymmetric_walkoff": false}
    }

Unknown keys are rejected with the offending dotted path.  Each value must
match its field's annotation: a bool takes only true/false, an int an integer
(not a bool or a float), a float any finite number; null only where optional.
Times are in seconds, and those used as picoseconds must round to >= 1 ps.
``scan.n_points`` lies in [2, ``MAX_POINTS``].  Cross-field rules (counter
steps tile the dwell exactly in int picoseconds and hold at least one slot;
the power chain gives an occupancy below 1; a step is expected to hold at
most ``MAX_STEP_EVENTS`` occupied slots and dark counts; the phase is finite
at both ends of the piezo range) are checked when the config is built.  For a
new run, the PSTREAM_SEED environment variable overrides the config seed and
an explicit CLI flag wins over both (``seed_override``); reading a run back
keeps the seed it recorded.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from pathlib import Path
from typing import Any, get_args, get_origin, get_type_hints

from .coincidence import CcmConfig
from .detection import PS_PER_S, DetectorConfig, seconds_to_ps
from .errors import ConfigError, DomainError
from .interferometer import PztConfig, pzt_phase, voltage_to_displacement
from .source import SourceConfig

SEED_ENV_VAR = "PSTREAM_SEED"
# the most events a counter step may be expected to hold: its occupied slots
# plus both lanes' dark counts.  The committed configs hold about 5.4e4.  A
# step peaks at about 24 bytes per event (tracemalloc, a 1 s step of 5.4e5
# events), so a step at the cap holds about 240 MB.
MAX_STEP_EVENTS = 1e7
# the most points a scan or a reference curve may have.  Each scan point
# holds about 380 bytes (its ramp entry and its ScanPoint, tracemalloc), so
# a scan at the cap holds about 0.4 GB.
MAX_POINTS = 10**6


@dataclass(frozen=True)
class OpticsConfig:
    """Static optics parameters; the per-point phase and position are derived."""

    intrinsic_visibility: float = 0.882
    effective_coherence_length: float = 2e-6
    laser_coherence_length: float = 0.30
    pzt: PztConfig = field(default_factory=PztConfig)

    def __post_init__(self):
        if not 0.0 <= self.intrinsic_visibility <= 1.0:
            raise ConfigError("intrinsic_visibility must lie in [0, 1]")
        for name in ("effective_coherence_length", "laser_coherence_length"):
            length = getattr(self, name)
            # the envelope divides by the square of its width
            if not (length > 0 and length * length > 0):
                raise ConfigError(
                    f"{name} must be > 0 with a square that does not underflow, got {length}"
                )


@dataclass(frozen=True)
class ScanConfig:
    """Scan schedule: dwell per point, seeding, and the walk-off toggle.

    ``jitter_volts``, when nonzero, adds a slow seeded sinusoidal wobble to
    the voltage ramp as a loose stand-in for manual-scan nonuniformity.
    ``seed`` lies in [0, 2**64), which ``derive_seed`` mixes without aliasing.
    ``seconds_per_point_ps`` holds the dwell as int picoseconds, converted
    once when the config is built.
    """

    n_points: int = 316
    seconds_per_point: float = 1.0
    seed: int = 123456789
    asymmetric_walkoff: bool = False
    jitter_volts: float = 0.0

    def __post_init__(self):
        if not 2 <= self.n_points <= MAX_POINTS:
            raise ConfigError(f"n_points must lie in [2, {MAX_POINTS}], got {self.n_points}")
        if self.seconds_per_point <= 0:
            raise ConfigError("seconds_per_point must be > 0")
        object.__setattr__(
            self, "seconds_per_point_ps", seconds_to_ps(self.seconds_per_point, "seconds_per_point")
        )
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.jitter_volts < 0:
            raise ConfigError("jitter_volts must be >= 0")


@dataclass(frozen=True)
class ExperimentConfig:
    source: SourceConfig = field(default_factory=lambda: SourceConfig(mean_photon_override=0.012))
    optics: OpticsConfig = field(default_factory=OpticsConfig)
    detectors: tuple[DetectorConfig, DetectorConfig] = field(
        default_factory=lambda: (DetectorConfig(), DetectorConfig())
    )
    ccm: CcmConfig = field(default_factory=CcmConfig)
    scan: ScanConfig = field(default_factory=ScanConfig)

    def __post_init__(self):
        if len(self.detectors) != 2:
            raise ConfigError("exactly two detector configurations are required")
        # derived once: the slot width in int ps (here, because detection
        # imports source), the slots per counter step and the steps per point
        slot_ps = seconds_to_ps(self.source.dead_time, "source.dead_time")
        object.__setattr__(self, "slot_ps", slot_ps)
        if self.ccm.step_ps < slot_ps:
            raise ConfigError(
                f"ccm.step {self.ccm.step} s is shorter than one {self.source.dead_time} s slot"
            )
        dwell_ps, step_ps = self.scan.seconds_per_point_ps, self.ccm.step_ps
        if dwell_ps < step_ps or dwell_ps % step_ps:
            raise ConfigError(
                f"seconds_per_point must be a whole number of ccm steps: {dwell_ps} ps "
                f"is not a multiple of {step_ps} ps"
            )
        object.__setattr__(self, "slots_per_step", step_ps // slot_ps)
        object.__setattr__(self, "steps_per_point", dwell_ps // step_ps)
        occupied = self.slots_per_step * -math.expm1(-self.source.mean_photon())
        dark = sum(det.dark_rate for det in self.detectors) * step_ps / PS_PER_S
        if not occupied + dark <= MAX_STEP_EVENTS:
            raise ConfigError(
                f"a ccm step is expected to hold {occupied:.3g} occupied slots and {dark:.3g} "
                f"dark counts, more than {MAX_STEP_EVENTS:.0e} events"
            )
        # the scan's phase is monotonic in the voltage, so finite at both ends
        # of the range means finite at every scan point
        pzt = self.optics.pzt
        try:
            for volts in (pzt.voltage_min, pzt.voltage_max):
                pzt_phase(voltage_to_displacement(volts, pzt), self.source.wavelength)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, scan=replace(self.scan, seed=seed))


def _build(cls, data: Any, path: str):
    """Construct ``cls`` from a parsed JSON value by the rules of the module docstring.

    Dataclasses recurse; a tuple takes a list of its length or one object for all.
    """
    where = path or "<root>"
    if is_dataclass(cls):
        if not isinstance(data, dict):
            raise ConfigError(f"expected an object at {where}, got {type(data).__name__}")
        hints = get_type_hints(cls)
        kwargs = {}
        for key, value in data.items():
            child = f"{path}.{key}" if path else key
            if key not in hints:
                raise ConfigError(f"unknown key at {child}")
            kwargs[key] = _build(hints[key], value, child)
        try:
            return cls(**kwargs)
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    args = get_args(cls)
    if get_origin(cls) is tuple:
        if isinstance(data, dict):
            return tuple(_build(t, data, where) for t in args)
        if isinstance(data, (list, tuple)) and len(data) == len(args):
            return tuple(_build(t, v, f"{where}[{i}]") for i, (t, v) in enumerate(zip(args, data)))
        raise ConfigError(f"{where} must be one object or a list of exactly {len(args)}")
    if type(None) in args:
        if data is None:
            return None
        (cls,) = (t for t in args if t is not type(None))
    if cls is float and type(data) in (int, float) and abs(data) <= sys.float_info.max:
        return float(data)
    if cls is not float and type(data) is cls:
        return data
    expected = "a finite number" if cls is float else cls.__name__
    raise ConfigError(f"{where} must be {expected}, got {data!r:.40}")


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed JSON document."""
    return _build(ExperimentConfig, data, "")


def load_config(path: str | Path, seed_override: int | None = None) -> ExperimentConfig:
    """Load a JSON config file; ``seed_override``, when given, replaces its seed."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    cfg = config_from_dict(data)
    return cfg if seed_override is None else cfg.with_seed(seed_override)


def seed_override(flag: int | None) -> int | None:
    """The seed a new run puts in place of its config's: ``flag`` if given,
    else PSTREAM_SEED if set, else None (flag > env > file)."""
    env_seed = os.environ.get(SEED_ENV_VAR)
    if flag is not None or env_seed is None:
        return flag
    try:
        return int(env_seed)
    except ValueError as exc:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}") from exc


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Plain-dict echo of a config, suitable for JSON serialization."""
    return asdict(cfg)
