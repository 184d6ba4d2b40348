import dataclasses
import hashlib
import math
import xml.etree.ElementTree as ET
from xml.dom import minidom

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heliobench import (
    BenchmarkRequest,
    BinSpec,
    HelioDot,
    HelioLayout,
    Indicator,
    InvalidInputError,
    PrestigeOrder,
    layout_map,
    load_corpus,
    load_prestige_order,
    parse_prestige_order,
    render_svg,
    run_benchmark,
    top_k,
)
from heliobench.benchmark import BenchmarkResult
from heliobench.heliomap import _HEADER

SVG_NS = "{http://www.w3.org/2000/svg}"


def make_result(entries, reference="Ref"):
    return BenchmarkResult(
        reference=reference,
        indicator=Indicator.IMPACT_FACTOR,
        spec=BinSpec(0.0, 1.0, 4),
        alpha=0.5,
        ranking=tuple(entries),
    )


class TestLayoutMap:
    def test_four_dots_clockwise_from_top(self):
        layout = layout_map(make_result([("a", 0.1), ("b", 0.2), ("c", 0.3), ("d", 0.4)]))
        assert [d.angle_degrees for d in layout.dots] == [90.0, 0.0, -90.0, -180.0]

    def test_equal_gains_collapse_to_inner_radius(self):
        layout = layout_map(make_result([("a", 0.1), ("b", 0.1), ("c", 0.1)]))
        assert [d.radius_fraction for d in layout.dots] == [0.15, 0.15, 0.15]

    def test_affine_radius_mapping(self):
        layout = layout_map(make_result([("a", 0.0), ("b", 0.5), ("c", 1.0)]))
        assert [d.radius_fraction for d in layout.dots] == pytest.approx(
            [0.15, 0.575, 1.0], abs=1e-12
        )

    def test_empty_ranking_rejected(self):
        with pytest.raises(InvalidInputError):
            layout_map(make_result([]))

    def test_center_label_is_reference(self):
        layout = layout_map(make_result([("a", 0.1)], reference="Cell Biology"))
        assert layout.center_label == "Cell Biology"

    def test_default_order_is_ascending_gain(self):
        layout = layout_map(make_result([("near", 0.1), ("mid", 0.2), ("far", 0.3)]))
        assert [d.label for d in layout.dots] == ["near", "mid", "far"]

    def test_prestige_order_controls_clockwise_sequence(self):
        order = PrestigeOrder(("far", "near", "mid"))
        layout = layout_map(
            make_result([("near", 0.1), ("mid", 0.2), ("far", 0.3)]), order=order
        )
        assert [d.label for d in layout.dots] == ["far", "near", "mid"]
        # angular slots still assigned clockwise from the top
        assert [d.angle_degrees for d in layout.dots] == [90.0, -30.0, -150.0]

    def test_categories_missing_from_prestige_order_go_last_by_gain(self):
        order = PrestigeOrder(("mid",))
        layout = layout_map(
            make_result([("near", 0.1), ("mid", 0.2), ("far", 0.3), ("extra", 0.05)]),
            order=order,
        )
        assert [d.label for d in layout.dots] == ["mid", "extra", "near", "far"]

    def test_prestige_names_absent_from_the_ranking_are_skipped(self):
        order = PrestigeOrder(("ghost", "far", "phantom", "near"))
        layout = layout_map(
            make_result([("near", 0.1), ("mid", 0.2), ("far", 0.3)]), order=order
        )
        assert [d.label for d in layout.dots] == ["far", "near", "mid"]
        assert [d.angle_degrees for d in layout.dots] == [90.0, -30.0, -150.0]
        assert [order.rank(name) for name in ("ghost", "far", "phantom", "near", "mid")] == [
            0, 1, 2, 3, None,
        ]

    def test_radius_encodes_gain_not_position(self):
        order = PrestigeOrder(("far", "near"))
        layout = layout_map(make_result([("near", 0.0), ("far", 1.0)]), order=order)
        by_label = {d.label: d for d in layout.dots}
        assert by_label["near"].radius_fraction == 0.15
        assert by_label["far"].radius_fraction == 1.0

    @given(st.integers(min_value=1, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_angle_steps_are_uniform(self, count):
        entries = [(f"c{i:02d}", 0.1 * i) for i in range(count)]
        layout = layout_map(make_result(entries))
        step = 360.0 / count
        assert layout.dots[0].angle_degrees == 90.0
        for a, b in zip(layout.dots, layout.dots[1:]):
            assert a.angle_degrees - b.angle_degrees == pytest.approx(step, abs=1e-12)

    def test_angle_steps_exact_for_30_dots(self):
        entries = [(f"c{i:02d}", 0.1 * i) for i in range(30)]
        layout = layout_map(make_result(entries))
        for a, b in zip(layout.dots, layout.dots[1:]):
            assert a.angle_degrees - b.angle_degrees == 12.0

    @given(
        st.lists(
            st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=25
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_radius_monotone_in_gain_and_bounded(self, gains):
        entries = [(f"c{i:02d}", g) for i, g in enumerate(gains)]
        layout = layout_map(make_result(entries))
        assert all(0.15 <= d.radius_fraction <= 1.0 for d in layout.dots)
        # gain order and radius order never disagree; equal gains share a radius
        for a in layout.dots:
            for b in layout.dots:
                if a.gain < b.gain:
                    assert a.radius_fraction <= b.radius_fraction
                elif a.gain == b.gain:
                    assert a.radius_fraction == b.radius_fraction

    def test_radius_order_strict_for_separated_gains(self):
        entries = [(f"c{i:02d}", 0.05 * i) for i in range(20)]
        layout = layout_map(make_result(entries))
        by_radius = sorted(layout.dots, key=lambda d: d.radius_fraction)
        by_gain = sorted(layout.dots, key=lambda d: d.gain)
        assert [d.label for d in by_radius] == [d.label for d in by_gain]


class TestPrestigeOrder:
    def test_parse_skips_comments_and_blanks(self):
        order = parse_prestige_order("# best first\nAlpha\n\n  Beta  \n# done\n")
        assert order.names == ("Alpha", "Beta")
        assert order.rank("Beta") == 1
        assert order.rank("Missing") is None

    def test_duplicates_rejected(self):
        with pytest.raises(InvalidInputError):
            PrestigeOrder(("A", "A"))

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "prestige.txt"
        path.write_text("One\nTwo\n", encoding="utf-8")
        assert load_prestige_order(path).names == ("One", "Two")

    def test_lines_end_at_line_feeds_only(self):
        order = parse_prestige_order("D\u2028E\nF\x85G\r\nH\u2029I\n")
        assert order.names == ("D\u2028E", "F\x85G", "H\u2029I")

    def test_file_lines_end_at_lf_crlf_or_cr(self, tmp_path):
        path = tmp_path / "prestige.txt"
        path.write_bytes("One\r\nT\u2028wo\rThree\nF\x85our".encode("utf-8"))
        assert load_prestige_order(path).names == ("One", "T\u2028wo", "Three", "F\x85our")


class TestHelioDot:
    def test_is_a_frozen_value_object(self):
        dot = HelioDot("b", 90.0, 0.15, 0.25)
        assert dot == HelioDot(label="b", angle_degrees=90.0, radius_fraction=0.15, gain=0.25)
        assert hash(dot) == hash(HelioDot("b", 90.0, 0.15, 0.25))
        assert repr(dot) == (
            "HelioDot(label='b', angle_degrees=90.0, radius_fraction=0.15, gain=0.25)"
        )
        assert dataclasses.replace(dot, gain=0.5) == HelioDot("b", 90.0, 0.15, 0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            dot.gain = 1.0


class TestRenderSvg:
    def layout(self, n=4):
        entries = [(f"cat {i:02d}", 0.1 * (i + 1)) for i in range(n)]
        return layout_map(make_result(entries))

    def test_byte_identical_re_render(self):
        layout = self.layout(12)
        assert render_svg(layout) == render_svg(layout)

    def test_dot_count(self):
        svg = render_svg(self.layout(5))
        assert svg.count("<circle") == 5 + 4 + 1
        assert svg.count('class="dot"') == 5
        assert svg.count('class="center"') == 1

    def test_four_rings_at_quarters_of_the_plot_radius(self):
        # The plot radius is the 800-unit canvas's half less 110 units for labels.
        rings = [el for el in ET.fromstring(render_svg(self.layout(5))).iter(f"{SVG_NS}circle")
                 if el.get("class") == "ring"]
        assert [el.get("r") for el in rings] == ["72.500", "145.000", "217.500", "290.000"]
        assert {(el.get("cx"), el.get("cy")) for el in rings} == {("400.000", "400.000")}

    def test_thirty_labeled_dots(self):
        svg = render_svg(self.layout(30))
        root = ET.fromstring(svg)
        labels = [
            el.text
            for el in root.iter(f"{SVG_NS}text")
            if el.get("class") == "dot-label"
        ]
        assert len(labels) == 30
        assert all(labels)

    def test_labels_verbatim_and_unique(self):
        entries = [("Cell & Tissue <Research>", 0.1), ("Plain Name", 0.2)]
        svg = render_svg(layout_map(make_result(entries)))
        root = ET.fromstring(svg)
        labels = [
            el.text
            for el in root.iter(f"{SVG_NS}text")
            if el.get("class") == "dot-label"
        ]
        assert sorted(labels) == ["Cell & Tissue <Research>", "Plain Name"]

    def test_center_label_present(self):
        svg = render_svg(layout_map(make_result([("a", 0.1)], reference="My Ref")))
        root = ET.fromstring(svg)
        center = [
            el.text
            for el in root.iter(f"{SVG_NS}text")
            if el.get("class") == "center-label"
        ]
        assert center == ["My Ref"]

    def test_is_valid_xml_with_declared_size(self):
        svg = render_svg(self.layout(3))
        root = ET.fromstring(svg)
        assert root.get("width") == "800.000"
        assert root.get("height") == "800.000"
        assert root.get("viewBox") == "0 0 800.000 800.000"

    def test_top_dot_sits_above_center(self):
        layout = layout_map(make_result([("top", 0.1), ("east", 0.2)]))
        svg = render_svg(layout)
        root = ET.fromstring(svg)
        dots = [el for el in root.iter(f"{SVG_NS}circle") if el.get("class") == "dot"]
        top = dots[0]
        assert float(top.get("cx")) == pytest.approx(400.0, abs=1e-9)
        assert float(top.get("cy")) < 400.0

    def test_negative_zero_coordinate_prints_as_zero(self):
        # A dot due left of the centre, a hair beyond the canvas's left edge:
        # its cx, 400 - 290 * radius, is about -1.1e-13.
        layout = HelioLayout("ref", (_LEFT_EDGE_DOT,))
        raw = 400.0 + 290.0 * _LEFT_EDGE_DOT.radius_fraction * math.cos(math.radians(180.0))
        assert raw < 0 and f"{raw:.3f}" == "-0.000"
        svg = render_svg(layout)
        root = ET.fromstring(svg)
        dots = [el for el in root.iter(f"{SVG_NS}circle") if el.get("class") == "dot"]
        assert dots[0].get("cx") == "0.000"
        assert "-0.000" not in svg

    def test_negative_zero_rule_leaves_labels_alone(self):
        names = ['"-0.000"', "-0.000 & <-0.000>"]
        dots = tuple(dataclasses.replace(_LEFT_EDGE_DOT, label=name) for name in names)
        svg = render_svg(HelioLayout("-0.000", dots))
        circles = [el for el in ET.fromstring(svg).iter(f"{SVG_NS}circle")
                   if el.get("class") == "dot"]
        assert [el.get("cx") for el in circles] == ["0.000", "0.000"]
        assert _text_labels(svg) == ["-0.000", *names]

    def test_layout_without_dots_gives_header_centre_label_and_end(self):
        svg = render_svg(HelioLayout("ref", ()))
        assert svg == _HEADER + "ref</text>\n</svg>\n"
        assert _text_labels(svg) == ["ref"]
        assert render_svg(self.layout(3)).startswith(_HEADER + "Ref</text>\n")

    def test_percent_signs_in_labels_come_back_verbatim(self):
        names = ["100% Science", "%.3f", "%s"]
        entries = [(n, 0.1 * i) for i, n in enumerate(names)]
        svg = render_svg(layout_map(make_result(entries, "%d %%")))
        assert _text_labels(svg) == ["%d %%", *names]
        plain = render_svg(layout_map(make_result([(f"n{i}", 0.1 * i) for i in range(3)], "r")))
        assert _positions(svg) == _positions(plain)


# Placed at 180 degrees, just past the radius fraction 400 / 290 that reaches
# the canvas's left edge.
_LEFT_EDGE_DOT = HelioDot("x", 180.0, math.nextafter(400 / 290, 2), 0.0)


def _positions(svg: str) -> list[tuple]:
    """The coordinates of every circle and text element, in document order."""
    return [(el.get("cx"), el.get("cy"), el.get("x"), el.get("y"))
            for el in ET.fromstring(svg).iter() if el.tag in (f"{SVG_NS}circle", f"{SVG_NS}text")]


def _text_labels(svg: str) -> list[str]:
    """The text of every <text> element, centre label first, parsed with minidom."""
    document = minidom.parseString(svg.encode("utf-8"))
    return [el.firstChild.data for el in document.getElementsByTagName("text")]


class TestGoldenMaps:
    # sha256 of Category 000's top-30 demo maps, by indicator: plain and in
    # a prestige order.
    DIGESTS = {
        "if": ("f9582c8c2daf01ca6cf2195d1b49b3c1e355507a2461b3ffc29a2ea41c9a6f9f",
               "f3f76068f80183d9ed5937351bddceb396a77fcf6b9c66dd5a9bcd7ac31e106e"),
        "es": ("a4fe23a84dd1aa7364cbc0f0667f9daf229e527793784b40540dbcbedd076521",
               "fd70d9bf234208a9ec5da3f1a7a97d2beb34b5b6af136dae927d45573fa09309"),
        "ii": ("7a3efaa4b410284f5a83bf3d48b3363fd3e0fc9a369ef0f55da9938884969db3",
               "868c4d42b93174e15ef207975e6d48241c2ff36f0cb2537a400ce87b0fa406a0"),
    }

    def test_category_000_maps_keep_their_bytes(self, demo_csv_path):
        corpus = load_corpus(demo_csv_path)
        order = PrestigeOrder(tuple(reversed(corpus.category_names()[::3])))
        for result in run_benchmark(corpus, BenchmarkRequest(reference="Category 000")):
            top = top_k(result, 30)
            svgs = (render_svg(layout_map(top)), render_svg(layout_map(top, order)))
            digests = tuple(hashlib.sha256(svg.encode("utf-8")).hexdigest() for svg in svgs)
            assert digests == self.DIGESTS[result.indicator.code]


class TestWellFormedMaps:
    def test_every_demo_top_30_map_parses(self, demo_csv_path):
        corpus = load_corpus(demo_csv_path)
        names = corpus.category_names()
        # Ranks every third category, so maps hold ranked and unranked dots.
        order = PrestigeOrder(tuple(reversed(names[::3])))
        maps = 0
        for reference in names:
            for result in run_benchmark(corpus, BenchmarkRequest(reference=reference)):
                top = top_k(result, 30)
                for prestige in (None, order):
                    labels = _text_labels(render_svg(layout_map(top, prestige)))
                    assert labels[0] == reference
                    assert sorted(labels[1:]) == sorted(name for name, _ in top.ranking)
                    maps += 1
        assert maps == 2 * 3 * 174

    def test_names_with_markup_come_back_verbatim(self):
        names = ["A < B", "R & D", 'say "hi"', "it's", "<&\"'>"]
        layout = layout_map(
            make_result([(n, 0.1 * i) for i, n in enumerate(names)], reference="<Ref & 'co'>")
        )
        assert _text_labels(render_svg(layout)) == ["<Ref & 'co'>", *names]

    def test_carriage_returns_in_names_come_back_verbatim(self):
        # An XML reader turns a raw carriage return into a line feed.
        names = ["B\rC", "D\r\nE", "F\nG"]
        layout = layout_map(make_result([(n, 0.1 * i) for i, n in enumerate(names)], "R\rS"))
        assert _text_labels(render_svg(layout)) == ["R\rS", *names]
