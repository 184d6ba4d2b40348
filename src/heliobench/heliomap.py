"""Heliocentric clockwise maps.

The reference category sits at the center; each similar category is a dot
whose distance from the center grows affinely with its information gain
(closer = more similar) and whose clockwise position, starting at the top,
follows an externally supplied prestige order when one is given, or
ascending gain otherwise. Rendering produces a self-contained, byte-stable
SVG document.
"""

from __future__ import annotations

import html
import math
import os
from dataclasses import dataclass

from .benchmark import BenchmarkResult
from .corpus import _read_text
from .errors import InvalidInputError

DEFAULT_R_MIN = 0.15
DEFAULT_R_MAX = 1.0


@dataclass(frozen=True)
class PrestigeOrder:
    """Category names ordered from highest prestige down, from an external
    ranking file. Never computed here."""

    names: tuple[str, ...]

    def __post_init__(self):
        positions = {name: i for i, name in enumerate(self.names)}
        if len(positions) != len(self.names):
            raise InvalidInputError("prestige order contains duplicate names")
        # layout_map asks for a rank several times per dot.
        object.__setattr__(self, "_positions", positions)

    def rank(self, name: str) -> int | None:
        return self._positions.get(name)


def parse_prestige_order(text: str) -> PrestigeOrder:
    """One category per LF-ended line, best first. Blank lines are skipped, and so
    are comments, lines whose first non-blank character is #: a category whose name
    starts with # cannot be placed and goes after the listed ones, by gain. Since
    load_prestige_order reads a leading U+FEFF as a byte-order mark, a first-line name loses it."""
    names = []
    for line in text.split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        names.append(line)
    return PrestigeOrder(tuple(names))


def load_prestige_order(path: str | os.PathLike) -> PrestigeOrder:
    return parse_prestige_order(_read_text(path))


@dataclass(frozen=True, init=False)
class HelioDot:
    label: str
    angle_degrees: float
    radius_fraction: float
    gain: float

    def __init__(self, label: str, angle_degrees: float, radius_fraction: float, gain: float):
        # Four dict stores instead of the generated frozen __init__'s four
        # object.__setattr__ calls: a map builds one per dot.
        fields = self.__dict__
        fields["label"], fields["angle_degrees"] = label, angle_degrees
        fields["radius_fraction"], fields["gain"] = radius_fraction, gain


@dataclass(frozen=True)
class HelioLayout:
    center_label: str
    dots: tuple[HelioDot, ...]


def layout_map(
    result: BenchmarkResult,
    order: PrestigeOrder | None = None,
    r_min: float = DEFAULT_R_MIN,
    r_max: float = DEFAULT_R_MAX,
) -> HelioLayout:
    """Place one dot per ranking entry of an (already truncated) result.

    Dot i of n sits at 90 - i * 360/n degrees, i.e. clockwise from the top.
    Radius encodes gain affinely between r_min and r_max; when all gains
    are equal every dot sits at r_min.
    """
    if not result.ranking:
        raise InvalidInputError("cannot lay out an empty ranking")
    if not 0 <= r_min <= r_max:
        raise InvalidInputError(f"need 0 <= r_min <= r_max, got {r_min}, {r_max}")

    entries = result.ranking
    if order is not None:
        # Ranked names first, best first; then the rest by ascending gain.
        def slot(entry):
            rank = order.rank(entry[0])
            return (1, entry[1], entry[0]) if rank is None else (0, rank)

        entries = sorted(entries, key=slot)

    gains = [g for _, g in entries]
    g_min, g_max = min(gains), max(gains)
    g_span, r_span = g_max - g_min, r_max - r_min
    step = 360.0 / len(entries)
    dots = []
    for i, (name, gain) in enumerate(entries):
        if g_max == g_min:
            radius = r_min
        else:
            # unit ratio first: (gain - g_min) / g_span is in [0, 1] exactly,
            # which keeps the radius inside [r_min, r_max]
            radius = r_min + r_span * ((gain - g_min) / g_span)
        dots.append(HelioDot(name, 90.0 - i * step, radius, gain))
    return HelioLayout(center_label=result.reference, dots=tuple(dots))


@dataclass(frozen=True)
class MapStyle:
    """Canvas size and ring radii; the rest of the look is fixed. The
    defaults give an 800 x 800 unit canvas."""

    size: float = 800.0
    ring_fractions: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0)

    def _header(self) -> str:
        """The SVG text up to the centre label's name, which depends on the
        style only, computed once per style."""
        header = self.__dict__.get("_header_text")
        if header is None:
            size, centre = _fmt(self.size), _fmt(self.size / 2.0)
            plot_radius = self.size / 2.0 - 110.0  # 110 units kept free for labels
            header = "\n".join([
                '<?xml version="1.0" encoding="UTF-8"?>',
                f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{size}" '
                f'height="{size}" viewBox="0 0 {size} {size}" '
                'font-family="Helvetica, Arial, sans-serif">',
                f'<rect class="background" width="{size}" height="{size}" fill="#ffffff"/>',
                *(f'<circle class="ring" cx="{centre}" cy="{centre}" '
                  f'r="{_fmt(plot_radius * frac)}" fill="none" stroke="#cccccc" stroke-width="1"/>'
                  for frac in self.ring_fractions),
                f'<circle class="center" cx="{centre}" cy="{centre}" r="7.000" fill="#222222"/>',
                f'<text class="center-label" x="{centre}" '
                f'y="{_fmt(self.size / 2.0 + 5.0 + 2.0 + 13.0 + 4.0)}" text-anchor="middle" '
                'font-size="13.000" font-weight="bold" fill="#222222">',
            ])
            object.__setattr__(self, "_header_text", header)
        return header


DEFAULT_STYLE = MapStyle()


def _fmt(x: float) -> str:
    s = f"{x:.3f}"
    return "0.000" if s == "-0.000" else s


def _escape(text: str) -> str:
    """html.escape(text, quote=False), skipped when text holds no & < or >."""
    if "&" in text or "<" in text or ">" in text:
        return html.escape(text, quote=False)
    return text


def render_svg(layout: HelioLayout, style: MapStyle = DEFAULT_STYLE) -> str:
    """Render a layout to SVG text. A pure function: identical inputs give
    byte-identical output.

    Every dot's coordinates go through one % format of a per-dot template,
    with 3 decimals, and a "-0.000" in that label-free text is written
    "0.000", as _fmt does. Each escaped label is then appended to its piece.
    """
    mid = style.size / 2.0  # the centre's x and y
    plot_radius = mid - 110.0  # 110 units of canvas kept free for labels
    reach = 5.0 + 12.0  # dot radius plus label offset
    lift = 11.0 / 3.0  # a third of the label font size

    coords = []
    for i, dot in enumerate(layout.dots):
        theta = math.radians(dot.angle_degrees)
        cos, sin = math.cos(theta), math.sin(theta)
        r_px = plot_radius * dot.radius_fraction
        # Labels alternate outward/inward of the dot by index parity to
        # reduce collisions between angular neighbours.
        label_r = r_px + reach if i % 2 == 0 else r_px - reach
        coords += (mid + r_px * cos, mid - r_px * sin,
                   mid + label_r * cos, mid - label_r * sin + lift)
    shapes = ((
        '\n<circle class="dot" cx="%.3f" cy="%.3f" r="5.000" fill="#1f5fa8"/>\n'
        '<text class="dot-label" x="%.3f" y="%.3f" text-anchor="middle" font-size="11.000" '
        'fill="#222222">\0'  # a NUL, which no markup holds, ends a dot's piece
    ) * len(layout.dots) % tuple(coords)).replace('"-0.000"', '"0.000"').split("\0")
    text = "".join([style._header(), _escape(layout.center_label), "</text>"] + [
        shape + _escape(dot.label) + "</text>" for shape, dot in zip(shapes, layout.dots)
    ]) + "\n</svg>\n"
    # Only labels hold carriage returns; XML would read a raw one back as a line feed.
    return text.replace("\r", "&#13;") if "\r" in text else text
