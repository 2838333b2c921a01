"""Tiny static SVG plotter for traces and Bode pairs.

Deliberately minimal: polylines, axes, ticks, a legend, optional
vertical markers.  Good enough to eyeball a simulation or an FRF without
pulling in a plotting stack.  Output is a standalone .svg file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Curve", "plot_lines", "plot_bode"]

_PALETTE = ("#1b6ca8", "#d1495b", "#2e933c", "#8a4fff", "#e0851e", "#555555")
_MAX_POINTS = 1500  # decimate beyond this; plots are for inspection only
_WIDTH = 880  # canvas size in px, as the heights below
_LINES_HEIGHT = 420
_BODE_HEIGHT = 640


@dataclass(frozen=True, eq=False)  # array fields make generated __eq__ ambiguous
class Curve:
    x: np.ndarray
    y: np.ndarray
    label: str = ""
    dash: bool = False


def _nice_step(span: float) -> float:
    if span <= 0.0 or not math.isfinite(span):
        return 1.0
    raw = span / 5.0
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _linear_ticks(lo: float, hi: float) -> list[float]:
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list[float]:
    ticks = []
    d = math.floor(math.log10(lo))
    while 10.0**d <= hi * 1.0001:
        if 10.0**d >= lo * 0.9999:
            ticks.append(10.0**d)
        d += 1
    return ticks or [lo, hi]


def _fmt(v: float) -> str:
    if v == 0.0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.0e}"
    return f"{v:g}"


def _decimate(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if len(x) <= _MAX_POINTS:
        return x, y
    stride = int(math.ceil(len(x) / _MAX_POINTS))
    # Always keep the final sample so the curve reaches the edge.
    idx = np.arange(0, len(x), stride)
    if idx[-1] != len(x) - 1:
        idx = np.append(idx, len(x) - 1)
    return x[idx], y[idx]


class _Panel:
    """One axes rectangle inside the SVG canvas."""

    def __init__(self, x0, y0, w, h, xlim, ylim, xlog):
        self.x0, self.y0, self.w, self.h = x0, y0, w, h
        self.xlog = xlog
        self.xa, self.xb = (math.log10(xlim[0]), math.log10(xlim[1])) if xlog else xlim
        self.ya, self.yb = ylim

    def px(self, v: float) -> float:
        t = math.log10(v) if self.xlog else v
        return self.x0 + (t - self.xa) / (self.xb - self.xa) * self.w

    def py(self, v: float) -> float:
        return self.y0 + self.h - (v - self.ya) / (self.yb - self.ya) * self.h


def _limits(values: list[np.ndarray], log: bool = False) -> tuple[float, float]:
    lo = min(float(np.min(v)) for v in values)
    hi = max(float(np.max(v)) for v in values)
    if log:
        return lo, hi
    if hi == lo:
        pad = 1.0 if hi == 0.0 else 0.1 * abs(hi)
    else:
        pad = 0.06 * (hi - lo)
    return lo - pad, hi + pad


def _panel_svg(
    panel: _Panel,
    curves: list[Curve],
    xlabel: str,
    ylabel: str,
    vlines: list[tuple[float, str]],
    show_xticklabels: bool = True,
) -> list[str]:
    p = panel
    parts = [
        f'<rect x="{p.x0}" y="{p.y0}" width="{p.w}" height="{p.h}" '
        'fill="none" stroke="#888" stroke-width="1"/>'
    ]
    xticks = (
        _log_ticks(10.0**p.xa, 10.0**p.xb) if p.xlog else _linear_ticks(p.xa, p.xb)
    )
    for tv in xticks:
        px = p.px(tv)
        parts.append(
            f'<line x1="{px:.1f}" y1="{p.y0}" x2="{px:.1f}" '
            f'y2="{p.y0 + p.h}" stroke="#ddd" stroke-width="1"/>'
        )
        if show_xticklabels:
            parts.append(
                f'<text x="{px:.1f}" y="{p.y0 + p.h + 16}" font-size="11" '
                f'text-anchor="middle" fill="#333">{_fmt(tv)}</text>'
            )
    for tv in _linear_ticks(p.ya, p.yb):
        py = p.py(tv)
        parts.append(
            f'<line x1="{p.x0}" y1="{py:.1f}" x2="{p.x0 + p.w}" '
            f'y2="{py:.1f}" stroke="#ddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{p.x0 - 6}" y="{py + 4:.1f}" font-size="11" '
            f'text-anchor="end" fill="#333">{_fmt(tv)}</text>'
        )
    for fx, label in vlines:
        if not (min(10.0**p.xa if p.xlog else p.xa, 1e308) <= fx):
            continue
        px = p.px(fx)
        if not (p.x0 <= px <= p.x0 + p.w):
            continue
        parts.append(
            f'<line x1="{px:.1f}" y1="{p.y0}" x2="{px:.1f}" y2="{p.y0 + p.h}" '
            'stroke="#999" stroke-width="1" stroke-dasharray="3,3"/>'
        )
        if label:
            parts.append(
                f'<text x="{px + 4:.1f}" y="{p.y0 + 14}" font-size="11" '
                f'fill="#555">{label}</text>'
            )
    for i, c in enumerate(curves):
        xs, ys = _decimate(np.asarray(c.x, float), np.asarray(c.y, float))
        pts = " ".join(
            f"{p.px(xv):.2f},{p.py(yv):.2f}"
            for xv, yv in zip(xs, ys)
            if math.isfinite(xv) and math.isfinite(yv)
        )
        dash = ' stroke-dasharray="6,4"' if c.dash else ""
        parts.append(
            f'<polyline points="{pts}" fill="none" '
            f'stroke="{_PALETTE[i % len(_PALETTE)]}" stroke-width="1.6"{dash}/>'
        )
    if xlabel:
        parts.append(
            f'<text x="{p.x0 + p.w / 2:.1f}" y="{p.y0 + p.h + 34}" '
            f'font-size="12" text-anchor="middle" fill="#000">{xlabel}</text>'
        )
    if ylabel:
        cx, cy = p.x0 - 44, p.y0 + p.h / 2
        parts.append(
            f'<text x="{cx}" y="{cy:.1f}" font-size="12" text-anchor="middle" '
            f'transform="rotate(-90 {cx} {cy:.1f})" fill="#000">{ylabel}</text>'
        )
    labeled = [(i, c) for i, c in enumerate(curves) if c.label]
    for j, (i, c) in enumerate(labeled):
        ly = p.y0 + 14 + 16 * j
        lx = p.x0 + p.w - 150
        dash = ' stroke-dasharray="6,4"' if c.dash else ""
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{_PALETTE[i % len(_PALETTE)]}" stroke-width="1.6"{dash}/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-size="11" fill="#333">{c.label}</text>'
        )
    return parts


def _write_svg(path: str, width: int, height: int, title: str, body: list[str]) -> None:
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        head.append(
            f'<text x="{width / 2:.0f}" y="18" font-size="13" '
            f'text-anchor="middle" font-weight="bold" fill="#000">{title}</text>'
        )
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(head + body + ["</svg>"]) + "\n")


def plot_lines(
    path: str,
    curves: list[Curve],
    xlabel: str = "",
    ylabel: str = "",
    title: str = "",
) -> None:
    """Write a single-axes line plot of the given curves, on a linear x axis."""
    if not curves:
        raise ValueError("need at least one curve")
    xlim = _limits([c.x for c in curves])
    ylim = _limits([c.y for c in curves])
    panel = _Panel(64, 30, _WIDTH - 64 - 18, _LINES_HEIGHT - 30 - 48, xlim, ylim, False)
    body = _panel_svg(panel, curves, xlabel, ylabel, [])
    _write_svg(path, _WIDTH, _LINES_HEIGHT, title, body)


def plot_bode(
    path: str,
    mag_curves: list[Curve],
    phase_curves: list[Curve],
    title: str = "",
    vlines: list[tuple[float, str]] | None = None,
) -> None:
    """Write a stacked magnitude/phase pair sharing a log frequency axis."""
    if not mag_curves or not phase_curves:
        raise ValueError("need magnitude and phase curves")
    xlim = _limits([c.x for c in mag_curves + phase_curves], log=True)
    panel_h = (_BODE_HEIGHT - 30 - 48 - 30) // 2
    top = _Panel(64, 30, _WIDTH - 64 - 18, panel_h,
                 xlim, _limits([c.y for c in mag_curves]), True)
    bot = _Panel(64, 30 + panel_h + 30, _WIDTH - 64 - 18, panel_h,
                 xlim, _limits([c.y for c in phase_curves]), True)
    body = _panel_svg(top, mag_curves, "", "magnitude (dB)", vlines or [],
                      show_xticklabels=False)
    body += _panel_svg(bot, phase_curves, "frequency (Hz)", "phase (deg)",
                       vlines or [])
    _write_svg(path, _WIDTH, _BODE_HEIGHT, title, body)
