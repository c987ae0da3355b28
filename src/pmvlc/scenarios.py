"""Scenario files and the named object registries behind them.

A scenario is a flat text file of `key = value` lines describing one
experiment: codebook, PAM sizing, channel, detector list, Eb/N0 grid and
stopping rule. Parse errors carry the file name and line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .channel import (
    FIXTURES,
    ChannelMatrix,
    LambertianParams,
    apply_blockage,
    build_channel,
    square_grid_geometry,
)
from .codebook import Codebook, Codeword, CodewordMatrix, combine_codebooks, enumerate_weight_w
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

# weight-2 selection whose support metric separates every codeword pair as
# far as the ML metric allows; slot components are all distinct, which the
# assignment-walk decoder pays for with extra iterations
W2SEL_IDX = (2, 17, 28, 38, 45, 59, 65, 80)


def codebook_from_permutations(perms, label: str = "") -> Codebook:
    entries = tuple(CodewordMatrix.from_components((Codeword(tuple(p)),)) for p in perms)
    return Codebook(L=len(perms[0]), entries=entries, label=label)


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
    "cb1": lambda: codebook_from_permutations(CB1_PERMS, label="cb1"),
    "cb2": lambda: codebook_from_permutations(CB2_PERMS, label="cb2"),
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

_KNOWN_KEYS = {
    "name", "scheme", "codebook", "m", "i", "channel", "detectors", "ebn0_db",
    "errors_target", "block_cap", "seed", "weight_mode", "e_max",
    "calibration", "rc_m", "sm_m", *_GEOMETRY_KEYS,
}

DETECTOR_NAMES = ("ml", "bf", "iterative", "bb", "rc", "sm", "guess")


@dataclass
class Scenario:
    name: str
    detectors: tuple[str, ...]
    ebn0_grid: tuple[float, ...]
    channel: ChannelMatrix
    channel_desc: str
    codebook: Codebook | None = None
    pam: PamConfig = field(default_factory=PamConfig)
    scheme: str = ""
    errors_target: int = 200
    block_cap: int = 10_000_000
    seed: int = 0
    weight_mode: str = "genie"
    e_max: int | None = None
    calibration: str = "blind"
    rc_m: int = 16
    sm_m: int = 4

    def __post_init__(self):
        if not self.detectors:
            raise ConfigError("scenario lists no detectors")
        for d in self.detectors:
            if d not in DETECTOR_NAMES:
                raise ConfigError(f"unknown detector {d!r}")
        coded = [d for d in self.detectors if d not in ("rc", "sm")]
        if coded and self.codebook is None:
            raise ConfigError(f"detectors {coded} need a codebook")
        if "bb" in self.detectors and self.codebook is not None:
            if tuple(self.codebook.weights_present) != (1,):
                raise ConfigError("bb detector requires a weight-1 codebook")
        if not self.ebn0_grid:
            raise ConfigError("empty ebn0_db grid")
        if not all(map(math.isfinite, self.ebn0_grid)):
            raise ConfigError(f"ebn0_db values must be finite, got {self.ebn0_grid}")
        if list(self.ebn0_grid) != sorted(self.ebn0_grid):
            raise ConfigError("ebn0_db grid must be ascending")
        if not self.scheme and self.codebook is not None:
            self.scheme = scheme_label(self.codebook, self.pam)
        if self.weight_mode not in ("genie", "joint"):
            raise ConfigError(f"unknown weight_mode {self.weight_mode!r}")
        if self.calibration not in ("blind", "csi"):
            raise ConfigError(f"calibration must be blind or csi, not {self.calibration!r}")
        for key in ("errors_target", "block_cap", "e_max"):
            value = getattr(self, key)
            if value is not None and value < 1:
                raise ConfigError(f"{key} must be at least 1, got {value}")
        L = self.channel.H.shape[1]
        for det, config in (("rc", RcConfig(L, self.rc_m)), ("sm", SmConfig(L, self.sm_m))):
            if det in self.detectors:
                try:
                    config.bits  # raises for sizes that give no whole, positive bit count
                except ValueError as exc:
                    raise ConfigError(f"{det}_m = {config.M}: {exc}") from None


def _parse_grid(value: str, where: str) -> tuple[float, ...]:
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
        raise ConfigError(f"{where}: bad grid {value!r}; use start:stop:step or v1,v2,...") from None


def _parse_blockage(value: str, where: str):
    pairs = []
    for token in value.split(","):
        token = token.strip()
        if not token:
            continue
        bits = token.split("-")
        if len(bits) != 2:
            raise ConfigError(f"{where}: blockage pair {token!r} is not tx-rx")
        try:
            pairs.append((int(bits[0]), int(bits[1])))
        except ValueError:
            raise ConfigError(f"{where}: blockage pair {token!r} is not numeric") from None
    return tuple(pairs)


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
        geo = square_grid_geometry(
            tx_spacing=float(kv.get("tx_spacing", 0.2)),
            rx_spacing=float(kv.get("rx_spacing", 0.1)),
            height=float(kv.get("height", 1.75)),
            rx_offset=(float(kv.get("rx_offset_x", 0.0)), float(kv.get("rx_offset_y", 0.0))),
        )
        params = LambertianParams(
            phi_half_deg=float(kv.get("phi_half", 15.0)),
            psi_fov_deg=float(kv.get("psi_fov", 15.0)),
            area_pd=float(kv.get("a_pd", 1e-4)),
        )
    except ValueError as exc:
        raise ConfigError(f"{source}: bad geometry value ({exc})") from None
    channel = build_channel(geo, params)
    if kv.get("blockage"):
        try:
            channel = apply_blockage(channel, _parse_blockage(kv["blockage"], source))
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
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in kv:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{source}:{lineno}: empty value for {key!r}")
        kv[key] = value

    def _int(key, default):
        if key not in kv:
            return default
        try:
            return int(kv[key])
        except ValueError:
            raise ValueError(f"field {key!r} must be an integer, got {kv[key]!r}") from None

    def _float(key, default):
        if key not in kv:
            return default
        try:
            return float(kv[key])
        except ValueError:
            raise ValueError(f"field {key!r} must be a number, got {kv[key]!r}") from None

    if "detectors" not in kv:
        raise ConfigError(f"{source}: missing required key 'detectors'")
    if "ebn0_db" not in kv:
        raise ConfigError(f"{source}: missing required key 'ebn0_db'")

    detectors = tuple(d.strip().lower() for d in kv["detectors"].split(",") if d.strip())
    grid = _parse_grid(kv["ebn0_db"], source)
    channel, channel_desc = _resolve_channel(kv, source)
    codebook = named_codebook(kv["codebook"]) if "codebook" in kv else None

    try:
        return Scenario(
            name=kv.get("name", Path(source).stem if source != "<scenario>" else "scenario"),
            detectors=detectors,
            ebn0_grid=grid,
            channel=channel,
            channel_desc=channel_desc,
            codebook=codebook,
            pam=PamConfig(M=_int("m", 1), I=_float("i", 1.0)),
            scheme=kv.get("scheme", ""),
            errors_target=_int("errors_target", 200),
            block_cap=_int("block_cap", 10_000_000),
            seed=_int("seed", 0),
            weight_mode=kv.get("weight_mode", "genie"),
            e_max=_int("e_max", None),
            calibration=kv.get("calibration", "blind"),
            rc_m=_int("rc_m", 16),
            sm_m=_int("sm_m", 4),
        )
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{source}: {exc}") from None


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from None
    return parse_scenario(text, source=str(path))
