"""Scenario files and the named object registries behind them.

A scenario is a flat text file of `key = value` lines describing one
experiment: codebook, PAM sizing, channel, detector list, Eb/N0 grid and
stopping rule. Parse errors carry the file name and line number.

This module only parses and forwards.  Each key the file sets goes, typed,
to the library object that owns it (PamConfig, square_grid_geometry,
LambertianParams, SimConfig); a key left out takes that object's default.
A Scenario builds one analysis.SimConfig per detector, and SimConfig's
checks are the checks of every run setting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .analysis import SimConfig
from .channel import (
    FIXTURES,
    ChannelMatrix,
    LambertianParams,
    apply_blockage,
    build_channel,
    square_grid_geometry,
)
from .codebook import Codebook, combine_codebooks, enumerate_weight_w, permutation_table
from .detectors import RcConfig, SmConfig
from .txcodec import PamConfig


class ConfigError(Exception):
    """Bad scenario file or inconsistent experiment description."""


# Eight-codeword comparison books with distinct iterative-walk behaviour:
# the first concentrates pairwise support distances, the second interleaves
# near neighbours.
CB1_PERMS = ((4, 3, 2, 1), (4, 1, 3, 2), (3, 1, 2, 4), (3, 4, 1, 2),
             (2, 4, 3, 1), (2, 1, 4, 3), (2, 3, 1, 4), (1, 3, 4, 2))
CB2_PERMS = ((1, 2, 3, 4), (2, 1, 3, 4), (2, 1, 4, 3), (3, 2, 1, 4),
             (3, 1, 2, 4), (3, 2, 4, 1), (1, 3, 4, 2), (1, 4, 3, 2))

# weight-2 selection of eight matrices: any two differ in at least 8 of the
# 16 cells (52 of the 56 ordered pairs at 8, 4 at 16), and the 16 slot
# components are all distinct, which the assignment-walk decoder pays for
# with extra iterations
W2SEL_IDX = (2, 17, 28, 38, 45, 59, 65, 80)


def _build_full24() -> Codebook:
    return enumerate_weight_w(4, 1)


def _build_pm16() -> Codebook:
    return enumerate_weight_w(4, 1).subset(range(16), label="pm16")


def _build_w2lex8() -> Codebook:
    return enumerate_weight_w(4, 2).subset(range(8), label="w2lex8")


def _build_w2sel8() -> Codebook:
    return enumerate_weight_w(4, 2).subset(W2SEL_IDX, label="w2sel8")


def _build_combined32() -> Codebook:
    return combine_codebooks([_build_full24(), _build_w2sel8()], label="combined32")


CODEBOOKS = {
    "full24": _build_full24,
    "pm16": _build_pm16,
    "w2lex8": _build_w2lex8,
    "w2sel8": _build_w2sel8,
    "combined32": _build_combined32,
    "cb1": lambda: enumerate_weight_w(4, 1).subset(map(permutation_table(4)[1].index, CB1_PERMS), "cb1"),
    "cb2": lambda: enumerate_weight_w(4, 1).subset(map(permutation_table(4)[1].index, CB2_PERMS), "cb2"),
}


def named_codebook(name: str) -> Codebook:
    try:
        return CODEBOOKS[name]()
    except KeyError:
        raise ConfigError(
            f"unknown codebook {name!r}; available: {', '.join(sorted(CODEBOOKS))}") from None


def scheme_label(codebook: Codebook, pam: PamConfig) -> str:
    ws = codebook.weights_present
    w = str(ws[0]) if len(ws) == 1 else "{" + ",".join(str(v) for v in ws) + "}"
    return f"P({codebook.L},{codebook.size},{pam.M},{w})"


_GEOMETRY_KEYS = ("tx_spacing", "rx_spacing", "height", "phi_half", "psi_fov",
                  "a_pd", "rx_offset_x", "rx_offset_y", "blockage")


def _parse_grid(value: str) -> tuple[float, ...]:
    value = value.strip()
    try:
        if ":" in value:
            parts = [float(v) for v in value.split(":")]
            if len(parts) != 3:
                raise ValueError
            start, stop, step = parts
            if not all(map(math.isfinite, parts)) or step <= 0 or stop < start:
                raise ValueError
            out = []
            x = start
            while x <= stop + 1e-9:
                out.append(round(x, 10))
                x += step
            return tuple(out)
        return tuple(float(v) for v in value.split(","))
    except ValueError:
        raise ValueError(f"bad grid {value!r}; use start:stop:step or v1,v2,...") from None


def _parse_blockage(value: str):
    pairs = []
    for token in value.split(","):
        token = token.strip()
        if not token:
            continue
        bits = token.split("-")
        if len(bits) != 2:
            raise ValueError(f"blockage pair {token!r} is not tx-rx")
        try:
            pairs.append((int(bits[0]), int(bits[1])))
        except ValueError:
            raise ValueError(f"blockage pair {token!r} is not numeric") from None
    return tuple(pairs)


# Every scenario key: the object it sets, that object's parameter and the
# parser of its text.  A key the file leaves out is not passed, so the
# object's own default applies.  channel and blockage are read by
# _resolve_channel.
_KEYS = {
    "name": ("scenario", "name", str),
    "codebook": ("scenario", "codebook", named_codebook),
    "detectors": ("scenario", "detectors",
                  lambda v: tuple(d.strip().lower() for d in v.split(",") if d.strip())),
    "ebn0_db": ("scenario", "ebn0_grid", _parse_grid),
    "errors_target": ("scenario", "errors_target", int),
    "block_cap": ("scenario", "block_cap", int),
    "seed": ("scenario", "seed", int),
    "weight_mode": ("scenario", "weight_mode", str),
    "e_max": ("scenario", "e_max", int),
    "calibration": ("scenario", "calibration", str),
    "rc_m": ("scenario", "rc_m", int),
    "sm_m": ("scenario", "sm_m", int),
    "m": ("pam", "M", int),
    "channel": ("channel", None, None),
    "tx_spacing": ("geometry", "tx_spacing", float),
    "rx_spacing": ("geometry", "rx_spacing", float),
    "height": ("geometry", "height", float),
    "rx_offset_x": ("geometry", "rx_offset_x", float),
    "rx_offset_y": ("geometry", "rx_offset_y", float),
    "phi_half": ("lambertian", "phi_half_deg", float),
    "psi_fov": ("lambertian", "psi_fov_deg", float),
    "a_pd": ("lambertian", "area_pd", float),
    "blockage": ("channel", None, None),
}


def _typed(kv: dict[str, str], target: str) -> dict:
    """The keys of kv that set `target`, parsed and named as its parameters."""
    out = {}
    for key, value in kv.items():
        dest, param, parse = _KEYS[key]
        if dest == target:
            try:
                out[param] = parse(value)
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
    return out


@dataclass
class Scenario:
    """One experiment.  A setting the scenario leaves unset takes the
    default of the library config that owns it, and `configs` holds the
    checked SimConfig of each detector, in order; a bad setting raises
    ConfigError when the scenario is built or replaced."""

    name: str
    detectors: tuple[str, ...]
    ebn0_grid: tuple[float, ...]
    channel: ChannelMatrix
    channel_desc: str
    codebook: Codebook | None = None
    pam: PamConfig = field(default_factory=PamConfig)
    errors_target: int = SimConfig.errors_target
    block_cap: int = SimConfig.block_cap
    seed: int = SimConfig.seed
    weight_mode: str = SimConfig.weight_mode
    e_max: int | None = SimConfig.e_max
    calibration: str = "blind"
    rc_m: int = RcConfig.M
    sm_m: int = SmConfig.M
    scheme: str = field(init=False, default="")
    configs: tuple[SimConfig, ...] = field(init=False, repr=False)

    def __post_init__(self):
        # the name is the stem of every CSV the run writes into --out-dir
        if self.name in ("", ".", "..") or any(sep in self.name for sep in "/\\"):
            raise ConfigError(f"name must be a single path component, not {self.name!r}")
        if not self.detectors:
            raise ConfigError("scenario lists no detectors")
        if len(set(self.detectors)) != len(self.detectors):
            raise ConfigError(f"detectors repeat: {', '.join(self.detectors)}")
        if self.calibration not in ("blind", "csi"):
            raise ConfigError(f"calibration must be blind or csi, not {self.calibration!r}")
        if self.codebook is not None:
            self.scheme = scheme_label(self.codebook, self.pam)
        try:
            self.configs = tuple(_sim_config(self, d) for d in self.detectors)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def _sim_config(scenario: Scenario, detector: str) -> SimConfig:
    # the one place a scenario's rc and sm sizes become RcConfig and SmConfig
    L = scenario.channel.H.shape[1]
    scheme, rc, sm = scenario.scheme, None, None
    if detector == "rc":
        scheme, rc = f"RC({L},{scenario.rc_m})", RcConfig(L=L, M=scenario.rc_m)
    if detector == "sm":
        scheme, sm = f"SM({L},{scenario.sm_m})", SmConfig(L=L, M=scenario.sm_m)
    return SimConfig(
        scheme=scheme,
        detector=detector,
        ebn0_grid=scenario.ebn0_grid,
        channel=scenario.channel,
        codebook=scenario.codebook,
        pam=scenario.pam,
        rc=rc,
        sm=sm,
        errors_target=scenario.errors_target,
        block_cap=scenario.block_cap,
        seed=scenario.seed,
        weight_mode=scenario.weight_mode,
        calibration=scenario.channel.H if scenario.calibration == "csi" else None,
        e_max=scenario.e_max,
    )


def _resolve_channel(kv: dict, source: str) -> tuple[ChannelMatrix, str]:
    name = kv.get("channel", "h02").strip()
    geometry_used = [k for k in _GEOMETRY_KEYS if k in kv]
    if name in FIXTURES:
        if geometry_used:
            raise ConfigError(
                f"{source}: channel={name} conflicts with geometry keys {geometry_used}")
        return FIXTURES[name](), name
    if name != "geometry":
        raise ConfigError(
            f"{source}: channel must be one of {', '.join(sorted(FIXTURES))} or 'geometry'")
    try:
        channel = build_channel(square_grid_geometry(**_typed(kv, "geometry")),
                                LambertianParams(**_typed(kv, "lambertian")))
    except ValueError as exc:
        raise ConfigError(f"{source}: bad geometry value ({exc})") from None
    if "blockage" in kv:
        try:
            channel = apply_blockage(channel, _parse_blockage(kv["blockage"]))
        except ValueError as exc:
            raise ConfigError(f"{source}: bad blockage ({exc})") from None
    # every key the scenario sets, so distinct geometries print distinct lines
    return channel, " ".join(["geometry", *(f"{k}={kv[k]}" for k in geometry_used)])


def parse_scenario(text: str, source: str = "<scenario>") -> Scenario:
    kv: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in kv:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{source}:{lineno}: empty value for {key!r}")
        kv[key] = value

    for key in ("detectors", "ebn0_db"):
        if key not in kv:
            raise ConfigError(f"{source}: missing required key {key!r}")
    channel, channel_desc = _resolve_channel(kv, source)
    try:
        fields = {"name": Path(source).stem if source != "<scenario>" else "scenario",
                  **_typed(kv, "scenario")}
        return Scenario(**fields, channel=channel, channel_desc=channel_desc,
                        pam=PamConfig(**_typed(kv, "pam")))
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{source}: {exc}") from None


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from None
    return parse_scenario(text, source=str(path))
