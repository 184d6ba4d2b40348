"""Heliocentric clockwise maps.

The reference category sits at the center; each similar category is a dot
whose distance from the center grows affinely with its information gain
(closer = more similar) and whose clockwise position, starting at the top,
follows an externally supplied prestige order when one is given, or
ascending gain otherwise. Rendering produces a self-contained, byte-stable
SVG document on a fixed CANVAS_SIZE-unit square canvas, with rings at
RING_FRACTIONS of the plot radius and dots between INNER_RADIUS and
OUTER_RADIUS of it.
"""

from __future__ import annotations

import html
import math
import os
from dataclasses import dataclass

from .benchmark import BenchmarkResult
from .corpus import _read_text
from .errors import InvalidInputError

CANVAS_SIZE = 800.0  # width and height, in SVG units
RING_FRACTIONS = (0.25, 0.5, 0.75, 1.0)  # of the plot radius
INNER_RADIUS, OUTER_RADIUS = 0.15, 1.0  # of the plot radius: most and least similar

_MID = CANVAS_SIZE / 2.0  # the centre's x and y
_PLOT_RADIUS = _MID - 110.0  # 110 units of canvas kept free for labels


@dataclass(frozen=True)
class PrestigeOrder:
    """Category names ordered from highest prestige down, from an external
    ranking file. Never computed here."""

    names: tuple[str, ...]

    def __post_init__(self):
        positions = {name: i for i, name in enumerate(self.names)}
        if len(positions) != len(self.names):
            raise InvalidInputError("prestige order contains duplicate names")
        # layout_map's sort asks for one rank per entry; the dict also finds
        # the duplicates above.
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


def layout_map(result: BenchmarkResult, order: PrestigeOrder | None = None) -> HelioLayout:
    """Place one dot per ranking entry of an (already truncated) result.

    Dot i of n sits at 90 - i * 360/n degrees, i.e. clockwise from the top.
    Radius encodes gain affinely between INNER_RADIUS and OUTER_RADIUS;
    when all gains are equal every dot sits at INNER_RADIUS. A gain that is
    not finite has no radius and raises InvalidInputError naming its category.
    """
    if not result.ranking:
        raise InvalidInputError("cannot lay out an empty ranking")
    for name, gain in result.ranking:
        if not math.isfinite(gain):
            raise InvalidInputError(f"cannot place {name!r}: its gain {gain!r} is not finite")

    entries = result.ranking
    if order is not None:
        # Ranked names first, best first; then the rest by ascending gain.
        def slot(entry):
            rank = order.rank(entry[0])
            return (1, entry[1], entry[0]) if rank is None else (0, rank)

        entries = sorted(entries, key=slot)

    gains = [g for _, g in entries]
    g_min, g_max = min(gains), max(gains)
    g_span, r_span = g_max - g_min, OUTER_RADIUS - INNER_RADIUS
    step = 360.0 / len(entries)
    dots = []
    for i, (name, gain) in enumerate(entries):
        if g_max == g_min:
            radius = INNER_RADIUS
        else:
            # unit ratio first: (gain - g_min) / g_span is in [0, 1] exactly,
            # which keeps the radius inside [INNER_RADIUS, OUTER_RADIUS]
            radius = INNER_RADIUS + r_span * ((gain - g_min) / g_span)
        dots.append(HelioDot(name, 90.0 - i * step, radius, gain))
    return HelioLayout(center_label=result.reference, dots=tuple(dots))


# The SVG text up to the centre label's name, the same for every map.
_HEADER = "\n".join([
    '<?xml version="1.0" encoding="UTF-8"?>',
    f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{CANVAS_SIZE:.3f}" '
    f'height="{CANVAS_SIZE:.3f}" viewBox="0 0 {CANVAS_SIZE:.3f} {CANVAS_SIZE:.3f}" '
    'font-family="Helvetica, Arial, sans-serif">',
    f'<rect class="background" width="{CANVAS_SIZE:.3f}" height="{CANVAS_SIZE:.3f}" '
    'fill="#ffffff"/>',
    *(f'<circle class="ring" cx="{_MID:.3f}" cy="{_MID:.3f}" r="{_PLOT_RADIUS * frac:.3f}" '
      'fill="none" stroke="#cccccc" stroke-width="1"/>' for frac in RING_FRACTIONS),
    f'<circle class="center" cx="{_MID:.3f}" cy="{_MID:.3f}" r="7.000" fill="#222222"/>',
    f'<text class="center-label" x="{_MID:.3f}" y="{_MID + 5.0 + 2.0 + 13.0 + 4.0:.3f}" '
    'text-anchor="middle" font-size="13.000" font-weight="bold" fill="#222222">',
])


def render_svg(layout: HelioLayout) -> str:
    """Render a layout to SVG text. A pure function: identical inputs give
    byte-identical output.

    Each dot is formatted where it is placed: its coordinates go through one
    % format, with 3 decimals, a "-0.000" in that label-free text is written
    "0.000" (a hand-built layout may put a dot a hair left of or below the
    centre), and its escaped label is appended.
    """
    mid, plot_radius = _MID, _PLOT_RADIUS  # as locals, read five times per dot
    reach = 5.0 + 12.0  # dot radius plus label offset
    lift = 11.0 / 3.0  # a third of the label font size

    pieces = [_HEADER, html.escape(layout.center_label, quote=False), "</text>"]
    for i, dot in enumerate(layout.dots):
        theta = math.radians(dot.angle_degrees)
        cos, sin = math.cos(theta), math.sin(theta)
        r_px = plot_radius * dot.radius_fraction
        # Labels alternate outward/inward of the dot by index parity to
        # reduce collisions between angular neighbours.
        label_r = r_px + reach if i % 2 == 0 else r_px - reach
        shape = (
            '\n<circle class="dot" cx="%.3f" cy="%.3f" r="5.000" fill="#1f5fa8"/>\n'
            '<text class="dot-label" x="%.3f" y="%.3f" text-anchor="middle" font-size="11.000" '
            'fill="#222222">'
            % (mid + r_px * cos, mid - r_px * sin, mid + label_r * cos, mid - label_r * sin + lift)
        ).replace('"-0.000"', '"0.000"')
        pieces += shape, html.escape(dot.label, quote=False), "</text>"
    text = "".join(pieces) + "\n</svg>\n"
    # Only labels hold carriage returns; XML would read a raw one back as a line feed.
    return text.replace("\r", "&#13;") if "\r" in text else text
