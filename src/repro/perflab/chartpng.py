"""Dependency-free PNG line charts for the perf-lab trend report.

``repro bench report`` draws its trend curves here with numpy and the
stdlib only, so it needs no plotting library.  It renders a plain
multi-series line chart — white canvas, gridlines, numeric y-tick
labels from a tiny built-in 5x7 glyph font, one colored polyline plus
markers per series — and writes it as an 8-bit RGB PNG via zlib.

The markdown report carries the series-to-color legend (this renderer
has no general text), so the PNG stays readable without one.
"""

from __future__ import annotations

import struct
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Series palette (dark, distinguishable on white), cycled in order.
PALETTE: "Tuple[Tuple[int, int, int], ...]" = (
    (31, 119, 180),   # blue
    (214, 39, 40),    # red
    (44, 160, 44),    # green
    (148, 103, 189),  # purple
    (255, 127, 14),   # orange
    (23, 190, 207),   # cyan
    (140, 86, 75),    # brown
    (227, 119, 194),  # pink
)

_BG = (255, 255, 255)
_AXIS = (40, 40, 40)
_GRID = (225, 225, 225)
_TEXT = (70, 70, 70)

# 5x7 glyphs for numeric tick labels; '#' is ink.
_GLYPHS = {
    "0": (".###.", "#...#", "#..##", "#.#.#", "##..#", "#...#", ".###."),
    "1": ("..#..", ".##..", "..#..", "..#..", "..#..", "..#..", ".###."),
    "2": (".###.", "#...#", "....#", "...#.", "..#..", ".#...", "#####"),
    "3": (".###.", "#...#", "....#", "..##.", "....#", "#...#", ".###."),
    "4": ("...#.", "..##.", ".#.#.", "#..#.", "#####", "...#.", "...#."),
    "5": ("#####", "#....", "####.", "....#", "....#", "#...#", ".###."),
    "6": (".###.", "#....", "####.", "#...#", "#...#", "#...#", ".###."),
    "7": ("#####", "....#", "...#.", "..#..", "..#..", "..#..", "..#.."),
    "8": (".###.", "#...#", "#...#", ".###.", "#...#", "#...#", ".###."),
    "9": (".###.", "#...#", "#...#", ".####", "....#", "....#", ".###."),
    ".": (".....", ".....", ".....", ".....", ".....", "..##.", "..##."),
    "-": (".....", ".....", ".....", ".###.", ".....", ".....", "....."),
    "+": (".....", "..#..", "..#..", "#####", "..#..", "..#..", "....."),
    "e": (".....", ".....", ".###.", "#...#", "#####", "#....", ".###."),
    "k": ("#....", "#....", "#..#.", "#.#..", "##...", "#.#..", "#..#."),
    "M": ("#...#", "##.##", "#.#.#", "#...#", "#...#", "#...#", "#...#"),
}


def format_tick(value: float) -> str:
    """Short numeric label: 1500000 -> '1.5M', 226000 -> '226k'."""
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1_000_000:
        text = f"{value / 1_000_000:.3g}M"
    elif magnitude >= 1_000:
        text = f"{value / 1_000:.3g}k"
    elif magnitude >= 1:
        text = f"{value:.3g}"
    else:
        text = f"{value:.3g}"
    return text


def _draw_text(canvas: np.ndarray, x: int, y: int, text: str,
               color: "Tuple[int, int, int]" = _TEXT) -> None:
    """Stamp ``text`` with the 5x7 font at (x, y) = top-left."""
    height, width, _ = canvas.shape
    for char in text:
        glyph = _GLYPHS.get(char)
        if glyph is None:  # unknown char: advance, draw nothing
            x += 6
            continue
        for row, bits in enumerate(glyph):
            for col, bit in enumerate(bits):
                if bit == "#":
                    py, px = y + row, x + col
                    if 0 <= py < height and 0 <= px < width:
                        canvas[py, px] = color
        x += 6


def _draw_line(canvas: np.ndarray, x0: float, y0: float, x1: float,
               y1: float, color: "Tuple[int, int, int]") -> None:
    """A 2px-thick line segment, sampled densely (no AA)."""
    height, width, _ = canvas.shape
    steps = int(max(abs(x1 - x0), abs(y1 - y0))) + 1
    xs = np.linspace(x0, x1, steps).round().astype(int)
    ys = np.linspace(y0, y1, steps).round().astype(int)
    for dy in (0, 1):
        for dx in (0, 1):
            px = np.clip(xs + dx, 0, width - 1)
            py = np.clip(ys + dy, 0, height - 1)
            canvas[py, px] = color


def _draw_marker(canvas: np.ndarray, x: int, y: int,
                 color: "Tuple[int, int, int]") -> None:
    height, width, _ = canvas.shape
    y0, y1 = max(y - 2, 0), min(y + 3, height)
    x0, x1 = max(x - 2, 0), min(x + 3, width)
    canvas[y0:y1, x0:x1] = color


def _ticks(lo: float, hi: float, count: int = 5) -> "List[float]":
    if hi <= lo:
        return [lo]
    raw_step = (hi - lo) / max(count - 1, 1)
    scale = 10.0 ** np.floor(np.log10(raw_step))
    for multiple in (1, 2, 2.5, 5, 10):
        step = multiple * scale
        if step >= raw_step:
            break
    first = np.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-9 * step:
        ticks.append(float(value))
        value += step
    return ticks or [lo]


def line_chart(
    series: "Dict[str, Sequence[Tuple[float, float]]]",
    size: "Tuple[int, int]" = (800, 420),
    y_min: "Optional[float]" = None,
) -> np.ndarray:
    """Render ``{label: [(x, y), ...]}`` as an RGB canvas.

    Series colors follow :data:`PALETTE` in iteration order — the
    caller's legend (markdown) must list labels in the same order.
    """
    width, height = size
    canvas = np.empty((height, width, 3), dtype=np.uint8)
    canvas[:] = _BG
    margin_left, margin_right, margin_top, margin_bottom = 64, 16, 16, 28
    plot_w = width - margin_left - margin_right
    plot_h = height - margin_top - margin_bottom

    points = [p for values in series.values() for p in values]
    if points:
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
    else:
        x_lo = x_hi = y_lo = y_hi = 0.0
    if y_min is not None:
        y_lo = min(y_lo, y_min)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + (abs(y_lo) or 1.0)
    pad = 0.06 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def to_px(x: float, y: float) -> "Tuple[float, float]":
        px = margin_left + (x - x_lo) / (x_hi - x_lo) * (plot_w - 1)
        py = margin_top + (1.0 - (y - y_lo) / (y_hi - y_lo)) * (plot_h - 1)
        return px, py

    # Gridlines + y tick labels.
    for tick in _ticks(y_lo, y_hi):
        _, py = to_px(x_lo, tick)
        row = int(round(py))
        if margin_top <= row < margin_top + plot_h:
            canvas[row, margin_left:margin_left + plot_w] = _GRID
            _draw_text(canvas, 4, row - 3, format_tick(tick))
    # x tick marks at integer run indices when they fit.
    span = x_hi - x_lo
    if span <= 40:
        x_tick = np.ceil(x_lo)
        while x_tick <= x_hi:
            px, _ = to_px(x_tick, y_lo)
            col = int(round(px))
            canvas[margin_top:margin_top + plot_h, col] = np.minimum(
                canvas[margin_top:margin_top + plot_h, col], np.array(_GRID)
            )
            _draw_text(canvas, col - 2, height - margin_bottom + 6,
                       format_tick(x_tick))
            x_tick += max(1.0, np.ceil(span / 10))

    # Axes.
    canvas[margin_top + plot_h - 1,
           margin_left:margin_left + plot_w] = _AXIS
    canvas[margin_top:margin_top + plot_h, margin_left] = _AXIS

    # Series.
    for index, (label, values) in enumerate(series.items()):
        color = PALETTE[index % len(PALETTE)]
        pixels = [to_px(x, y) for x, y in values]
        for (x0, y0), (x1, y1) in zip(pixels, pixels[1:]):
            _draw_line(canvas, x0, y0, x1, y1, color)
        for px, py in pixels:
            _draw_marker(canvas, int(round(px)), int(round(py)), color)
    return canvas


def write_png(path: str, canvas: np.ndarray) -> None:
    """Write an (H, W, 3) uint8 array as a PNG file."""
    if canvas.ndim != 3 or canvas.shape[2] != 3 or canvas.dtype != np.uint8:
        raise ValueError(
            f"expected an (H, W, 3) uint8 canvas, got "
            f"{canvas.shape} {canvas.dtype}"
        )
    height, width, _ = canvas.shape
    raw = b"".join(
        b"\x00" + canvas[row].tobytes() for row in range(height)
    )

    def chunk(tag: bytes, payload: bytes) -> bytes:
        return (
            struct.pack(">I", len(payload))
            + tag
            + payload
            + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
        )

    header = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    with open(path, "wb") as handle:
        handle.write(b"\x89PNG\r\n\x1a\n")
        handle.write(chunk(b"IHDR", header))
        handle.write(chunk(b"IDAT", zlib.compress(raw, 6)))
        handle.write(chunk(b"IEND", b""))


def read_png_size(path: str) -> "Tuple[int, int]":
    """(width, height) from a PNG's IHDR — a cheap validity check."""
    with open(path, "rb") as handle:
        signature = handle.read(8)
        if signature != b"\x89PNG\r\n\x1a\n":
            raise ValueError(f"{path} is not a PNG")
        handle.read(8)  # IHDR length + tag
        width, height = struct.unpack(">II", handle.read(8))
    return width, height


__all__ = [
    "PALETTE",
    "format_tick",
    "line_chart",
    "read_png_size",
    "write_png",
]
