"""Experiment configuration: file format, presets, and derived quantities.

Configs live in a flat key = value text format whose keys mirror the CLI
flags (K, M, spacings, freq_ghz, snr_db, r, theta_deg, models, ...). Lines
starting with # and blank lines are ignored; inline comments follow the
value after a #. Three presets ship with the package:

    fig3      three 125-antenna subarrays, uniform gaps of 90 pitches,
              single target plus a 56-point range grid
    fig4-c1   five 75-antenna subarrays, 1.425 m aperture layout sweep
    fig4-c2   five 75-antenna subarrays, 1.675 m aperture layout sweep

The carrier wavelength defaults to c / f from freq_ghz but can be pinned
exactly with lambda_m; the presets pin 5 mm so that derived quantities
(pitch 2.5 mm, apertures, field boundaries) come out in round numbers.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from importlib import resources

from .crb import SensingSnr
from .errors import InvalidConfigurationError
from .geometry import ModularLayout, TargetPolar, build_layout
from .wavefront import MODEL_ORDER, WavefrontModel

__all__ = [
    "SPEED_OF_LIGHT",
    "PRESET_NAMES",
    "ExperimentConfig",
    "parse_config",
    "parse_models",
    "load_config",
    "serialize_config",
    "preset",
]

#: Vacuum speed of light, m/s, used to derive the wavelength from freq_ghz.
SPEED_OF_LIGHT = 299792458.0

#: Names accepted by preset(), each backed by a .cfg file in the package.
PRESET_NAMES = ("fig3", "fig4-c1", "fig4-c2")

_ALL_MODELS = tuple(m.value for m in MODEL_ORDER)

# Most grid points one sweep may have, range and layout sweeps alike: with
# four models that is 4e5 records, about 30 MB of CSV.
_MAX_GRID_POINTS = 100_000


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one experiment or sweep.

    Attributes:
        num_subarrays: Subarray count K (odd).
        subarray_size: Antennas per subarray M (odd).
        spacings: Length-K gap tuple in pitch units, center entry 0.
        freq_ghz: Carrier frequency in GHz; sets the wavelength unless
            lambda_m pins it explicitly.
        lambda_m: Optional exact carrier wavelength, meters.
        pitch_m: Optional antenna pitch, meters; defaults to half the
            wavelength.
        snr_db: Sensing SNR in dB.
        r_m: Target range, meters.
        theta_deg: Target angle in degrees from the array normal.
        models: Wavefront model tokens to evaluate, in evaluation order.
        r_start_m, r_stop_m, r_count: Range-sweep grid (inclusive ends),
            at most 100000 points.
        gamma_start, gamma_stop: Inner-gap sweep bounds for layout sweeps,
            at most 100000 values.
        gap_budget: Per-side sum of the two gaps in a layout sweep; the
            outer gap is gap_budget - gamma, keeping the aperture fixed.
        out, json_out, plot_out: Optional output paths.
    """

    num_subarrays: int = 3
    subarray_size: int = 125
    spacings: tuple[int, ...] = (90, 0, 90)
    freq_ghz: float = 60.0
    lambda_m: float | None = None
    pitch_m: float | None = None
    snr_db: float = 0.0
    r_m: float = 30.0
    theta_deg: float = 60.0
    models: tuple[str, ...] = _ALL_MODELS
    r_start_m: float = 1.0
    r_stop_m: float = 56.0
    r_count: int = 56
    gamma_start: int = 1
    gamma_stop: int = 95
    gap_budget: int = 100
    out: str | None = None
    json_out: str | None = None
    plot_out: str | None = None

    def __post_init__(self) -> None:
        if not self.models:
            raise InvalidConfigurationError("model list must not be empty")
        for token in self.models:
            WavefrontModel.parse(token)
        if self.lambda_m is None and self.freq_ghz <= 0:
            raise InvalidConfigurationError(
                f"freq_ghz must be positive, got {self.freq_ghz}"
            )
        if self.lambda_m is not None and self.lambda_m <= 0:
            raise InvalidConfigurationError(
                f"lambda_m must be positive, got {self.lambda_m}"
            )
        if self.pitch_m is not None and self.pitch_m <= 0:
            raise InvalidConfigurationError(
                f"pitch_m must be positive, got {self.pitch_m}"
            )
        if self.r_count < 1:
            raise InvalidConfigurationError(f"r_count must be >= 1, got {self.r_count}")
        if self.r_start_m <= 0 or self.r_stop_m < self.r_start_m:
            raise InvalidConfigurationError(
                f"range grid [{self.r_start_m}, {self.r_stop_m}] must be positive and ordered"
            )
        if self.gamma_start < 1 or self.gamma_stop < self.gamma_start:
            raise InvalidConfigurationError(
                f"gamma sweep [{self.gamma_start}, {self.gamma_stop}] must start at >= 1 and be ordered"
            )
        gamma_count = self.gamma_stop - self.gamma_start + 1
        for name, count in (("r_count", self.r_count), ("gamma sweep", gamma_count)):
            if count > _MAX_GRID_POINTS:
                raise InvalidConfigurationError(
                    f"{name} has {count} grid points, more than the {_MAX_GRID_POINTS} allowed"
                )

    @property
    def wavelength(self) -> float:
        """Carrier wavelength in meters (lambda_m override, else c / f)."""
        if self.lambda_m is not None:
            return self.lambda_m
        return SPEED_OF_LIGHT / (self.freq_ghz * 1e9)

    @property
    def pitch(self) -> float:
        """Antenna pitch in meters (pitch_m override, else wavelength / 2)."""
        if self.pitch_m is not None:
            return self.pitch_m
        return self.wavelength / 2.0

    def layout(self) -> ModularLayout:
        """Resolve the layout fields into a validated ModularLayout."""
        return build_layout(
            self.num_subarrays, self.subarray_size, self.spacings, self.pitch
        )

    def target(self) -> TargetPolar:
        """Target position with the angle converted to radians."""
        return TargetPolar(self.r_m, math.radians(self.theta_deg))

    def snr(self) -> SensingSnr:
        """Sensing SNR converted from dB."""
        return SensingSnr.from_db(self.snr_db)

    def model_list(self) -> tuple[WavefrontModel, ...]:
        """Parsed wavefront models in evaluation order."""
        return tuple(WavefrontModel.parse(token) for token in self.models)

    def range_grid(self) -> tuple[float, ...]:
        """Evenly spaced range values from r_start_m to r_stop_m inclusive."""
        if self.r_count == 1:
            return (self.r_start_m,)
        step = (self.r_stop_m - self.r_start_m) / (self.r_count - 1)
        return tuple(self.r_start_m + i * step for i in range(self.r_count))


# File keys in serialization order, mapped to (field, parser) pairs.
_KEY_FIELDS = {
    "K": ("num_subarrays", int),
    "M": ("subarray_size", int),
    "spacings": ("spacings", lambda v: tuple(int(p) for p in v.split(","))),
    "freq_ghz": ("freq_ghz", float),
    "lambda_m": ("lambda_m", float),
    "pitch_m": ("pitch_m", float),
    "snr_db": ("snr_db", float),
    "r": ("r_m", float),
    "theta_deg": ("theta_deg", float),
    "models": ("models", lambda v: parse_models(v)),
    "r_start": ("r_start_m", float),
    "r_stop": ("r_stop_m", float),
    "r_count": ("r_count", int),
    "gamma_start": ("gamma_start", int),
    "gamma_stop": ("gamma_stop", int),
    "gap_budget": ("gap_budget", int),
    "out": ("out", str),
    "json_out": ("json_out", str),
    "plot_out": ("plot_out", str),
}

_FIELD_KEYS = {field: key for key, (field, _) in _KEY_FIELDS.items()}


def parse_models(value: str) -> tuple[str, ...]:
    """Parse a comma-separated model list; "all" expands to every model."""
    tokens = tuple(t.strip() for t in value.split(",") if t.strip())
    if tokens == ("all",):
        return _ALL_MODELS
    return tuple(WavefrontModel.parse(t).value for t in tokens)


def parse_config(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse flat key = value text into an ExperimentConfig.

    Args:
        text: Config file contents.
        source: Name used in error messages (usually the file path).

    Returns:
        The parsed, validated config.

    Raises:
        InvalidConfigurationError: On unknown keys, bad values, or
            duplicate keys, with line diagnostics.
    """
    values: dict[str, object] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfigurationError(
                f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}"
            )
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEY_FIELDS:
            raise InvalidConfigurationError(
                f"{source}:{lineno}: unknown key {key!r}"
            )
        if key in seen:
            raise InvalidConfigurationError(
                f"{source}:{lineno}: duplicate key {key!r} (first set on line {seen[key]})"
            )
        seen[key] = lineno
        field, convert = _KEY_FIELDS[key]
        try:
            values[field] = convert(value)
        except InvalidConfigurationError as exc:
            raise InvalidConfigurationError(f"{source}:{lineno}: {exc}") from None
        except ValueError:
            raise InvalidConfigurationError(
                f"{source}:{lineno}: bad value {value!r} for key {key!r}"
            ) from None
    try:
        return ExperimentConfig(**values)
    except InvalidConfigurationError as exc:
        raise InvalidConfigurationError(f"{source}: {exc}") from None


def load_config(path: str) -> ExperimentConfig:
    """Read and parse a config file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read(), source=path)


def _format_value(value: object) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(config: ExperimentConfig) -> str:
    """Render a config back to its file format.

    Floats use repr, which round-trips exactly, so
    parse_config(serialize_config(c)) == c for any valid config.
    """
    lines = []
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if value is None:
            continue
        lines.append(f"{_FIELD_KEYS[field.name]} = {_format_value(value)}")
    return "\n".join(lines) + "\n"


def preset(name: str) -> ExperimentConfig:
    """Load one of the packaged preset configs by name."""
    if name not in PRESET_NAMES:
        valid = ", ".join(PRESET_NAMES)
        raise InvalidConfigurationError(
            f"unknown preset {name!r}; expected one of {valid}"
        )
    text = (
        resources.files("modcrb").joinpath(f"presets/{name}.cfg").read_text("utf-8")
    )
    return parse_config(text, source=f"preset:{name}")
