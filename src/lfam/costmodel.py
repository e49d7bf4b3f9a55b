"""Analytic FLOP accounting for global versus windowed attention.

Counting conventions, fixed so tests can assert exact integers: one
multiply-add is 2 flops; softmax costs 5 flops per element (max scan,
subtract, exp, sum share, divide).  Score and aggregation products each
take (pixels)^2 * d multiply-adds globally, or m^4 * d per window locally
with N = ceil(h/m) * ceil(w/m) windows.  Padded window pixels are counted,
keeping the local closed form exactly N * m^4 shaped.

All arithmetic stays in Python ints; nothing here touches numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError

MULADD_FLOPS = 2
SOFTMAX_FLOPS_PER_ELEMENT = 5

# Aggregate attention-cost ratio reported externally for the reference
# geometry below.  Its derivation is unspecified (it likely folds in
# whole-network convolution cost), so reports print it for comparison and
# never assert against it.
EXTERNAL_REFERENCE_RATIO = 0.0466


def _check_dims(h: int, w: int, d: int) -> None:
    if h < 1 or w < 1 or d < 1:
        raise ConfigError(f"dimensions must be positive, got h={h} w={w} d={d}")


@dataclass(frozen=True)
class AttnCost:
    """Flop counts for one attention evaluation, split by stage."""

    logits: int
    values: int
    softmax: int

    @property
    def matmul(self) -> int:
        return self.logits + self.values

    @property
    def total(self) -> int:
        return self.logits + self.values + self.softmax


def n_windows(h: int, w: int, m: int) -> int:
    if m < 1:
        raise ConfigError(f"local range must be >= 1, got {m}")
    return (-(-h // m)) * (-(-w // m))


def attention_cost_global(h: int, w: int, d: int) -> AttnCost:
    _check_dims(h, w, d)
    pixels = h * w
    pairs = pixels * pixels
    return AttnCost(logits=MULADD_FLOPS * pairs * d,
                    values=MULADD_FLOPS * pairs * d,
                    softmax=SOFTMAX_FLOPS_PER_ELEMENT * pairs)


def attention_cost_local(h: int, w: int, d: int, m: int) -> AttnCost:
    _check_dims(h, w, d)
    pairs = n_windows(h, w, m) * m ** 4
    return AttnCost(logits=MULADD_FLOPS * pairs * d,
                    values=MULADD_FLOPS * pairs * d,
                    softmax=SOFTMAX_FLOPS_PER_ELEMENT * pairs)


def attention_flops_global(h: int, w: int, d: int) -> int:
    """Total flops for all-pairs attention over an h*w map at width d."""
    return attention_cost_global(h, w, d).total


def attention_flops_local(h: int, w: int, d: int, m: int) -> int:
    """Total flops for windowed attention with local range m."""
    return attention_cost_local(h, w, d, m).total


@dataclass(frozen=True)
class FusionLevel:
    """One attention site: spatial extent, projection width, window side."""

    height: int
    width: int
    channels: int
    local_range: int


def reference_levels(local_range: int = 7) -> tuple[FusionLevel, ...]:
    """The four fusion sites of the reference 256x256 network.

    Spatial sizes halve per level while channels follow the reference
    ladder 64/256/512/1024 (not a pure doubling).
    """
    sizes = (256, 128, 64, 32)
    channels = (64, 256, 512, 1024)
    return tuple(FusionLevel(s, s, c, local_range) for s, c in zip(sizes, channels))


def fusion_levels(cfg, input_size: int) -> dict[int, FusionLevel]:
    """Attention sites of a UNetConfig-like object on a square input, keyed by level.

    Level i is input_size >> i on a side and projects to proj_channels, or
    to its own width base_channels << i.  Like forward, the input side must
    be a positive multiple of 2**depth.
    """
    factor = 1 << cfg.depth
    if input_size < 1 or input_size % factor:
        raise ConfigError(f"input size {input_size} must be a positive multiple of "
                          f"2**depth = {factor}")
    return {i: FusionLevel(input_size >> i, input_size >> i,
                           skip.lfam.proj_channels or cfg.base_channels << i,
                           skip.lfam.local_range)
            for i, skip in enumerate(cfg.skips) if skip.kind == "lfam"}


@dataclass(frozen=True)
class LevelCost:
    level: FusionLevel
    windows: int
    cost_global: AttnCost
    cost_local: AttnCost

    @property
    def ratio(self) -> float:
        return self.cost_local.total / self.cost_global.total


@dataclass(frozen=True)
class CostReport:
    levels: tuple[LevelCost, ...]
    total_global: int
    total_local: int

    @property
    def ratio(self) -> float:
        return self.total_local / self.total_global


def cost_report(levels) -> CostReport:
    if not levels:
        raise ConfigError("cost report needs at least one fusion level")
    rows = []
    for lv in levels:
        rows.append(LevelCost(level=lv,
                              windows=n_windows(lv.height, lv.width, lv.local_range),
                              cost_global=attention_cost_global(lv.height, lv.width, lv.channels),
                              cost_local=attention_cost_local(lv.height, lv.width, lv.channels,
                                                              lv.local_range)))
    return CostReport(levels=tuple(rows),
                      total_global=sum(r.cost_global.total for r in rows),
                      total_local=sum(r.cost_local.total for r in rows))


def network_cost_report(cfg, input_size: int) -> CostReport:
    """Cost report over the attention fusion levels of a UNetConfig-like object."""
    levels = fusion_levels(cfg, input_size)
    if not levels:
        raise ConfigError("config has no attention fusion levels to cost")
    return cost_report(tuple(levels.values()))


def render_cost_table(report: CostReport) -> str:
    """Aligned text table, one row per level plus aggregate lines."""
    header = f"{'level':>5} {'size':>9} {'chan':>5} {'m':>3} {'windows':>8} {'global':>16} {'local':>14} {'ratio':>10}"
    lines = [header, "-" * len(header)]
    for i, row in enumerate(report.levels):
        lv = row.level
        lines.append(f"{i:>5} {lv.height:>4}x{lv.width:<4} {lv.channels:>5} {lv.local_range:>3} "
                     f"{row.windows:>8} {row.cost_global.total:>16} {row.cost_local.total:>14} "
                     f"{row.ratio:>10.3e}")
    lines.append("-" * len(header))
    lines.append(f"aggregate: local {report.total_local} / global {report.total_global} "
                 f"= {report.ratio:.6e}")
    lines.append(f"externally reported network-level ratio for the reference geometry: "
                 f"{EXTERNAL_REFERENCE_RATIO} (shown for comparison, not asserted)")
    return "\n".join(lines)


def report_record(report: CostReport) -> dict:
    """JSON-ready view of a report."""
    return {
        "levels": [
            {
                "height": r.level.height,
                "width": r.level.width,
                "channels": r.level.channels,
                "local_range": r.level.local_range,
                "windows": r.windows,
                "flops_global": r.cost_global.total,
                "flops_local": r.cost_local.total,
                "matmul_global": r.cost_global.matmul,
                "matmul_local": r.cost_local.matmul,
                "ratio": r.ratio,
            }
            for r in report.levels
        ],
        "total_global": report.total_global,
        "total_local": report.total_local,
        "ratio": report.ratio,
        "external_reference_ratio": EXTERNAL_REFERENCE_RATIO,
    }
