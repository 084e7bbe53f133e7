import pytest

from teachsim.svgchart import render_line_chart, write_chart


def _series():
    xs = list(range(10))
    return [("alpha", xs, [2.0 ** -t for t in xs]),
            ("beta", xs, [1.0 + 0.1 * t for t in xs])]


def test_render_is_deterministic():
    a = render_line_chart(_series(), title="t", xlabel="x", ylabel="y")
    b = render_line_chart(_series(), title="t", xlabel="x", ylabel="y")
    assert a == b


def test_render_structure():
    svg = render_line_chart(_series(), title="decay")
    assert svg.startswith("<svg ")
    assert svg.count("<polyline") == 2
    assert "decay" in svg and "alpha" in svg and "beta" in svg
    # two distinct stroke colors in use
    assert "#1b6ca8" in svg and "#c23b22" in svg


def test_log_scale_drops_nonpositive_points():
    xs = [0, 1, 2, 3]
    svg = render_line_chart([("s", xs, [1.0, 0.0, -1.0, 4.0])], log_y=True)
    # only two plottable points survive
    poly = [ln for ln in svg.splitlines() if "polyline" in ln][0]
    assert poly.count(",") == 2  # two x,y pairs
    with pytest.raises(ValueError, match="plottable"):
        render_line_chart([("s", xs, [0.0, -1.0, -2.0, 0.0])], log_y=True)


def test_validation_errors():
    with pytest.raises(ValueError, match="no series"):
        render_line_chart([])
    with pytest.raises(ValueError, match="length mismatch"):
        render_line_chart([("s", [1, 2], [1.0])])


def test_escapes_markup_in_labels():
    svg = render_line_chart([("a<b&c", [0, 1], [1.0, 2.0])],
                            title="x < y & z")
    assert "a&lt;b&amp;c" in svg
    assert "x &lt; y &amp; z" in svg
    assert "a<b" not in svg


def test_constant_series_does_not_crash():
    svg = render_line_chart([("flat", [0, 1, 2], [3.0, 3.0, 3.0])])
    assert "<polyline" in svg


def test_write_chart_round_trip(tmp_path):
    path = tmp_path / "c.svg"
    write_chart(path, _series(), title="t")
    content = path.read_text()
    assert content == render_line_chart(_series(), title="t")


def test_coordinates_are_fixed_precision():
    svg = render_line_chart([("s", [0, 1], [1.0 / 3.0, 2.0 / 3.0])])
    poly = [ln for ln in svg.splitlines() if "polyline" in ln][0]
    pts = poly.split('points="')[1].split('"')[0]
    for pair in pts.split():
        for coord in pair.split(","):
            whole, frac = coord.split(".")
            assert len(frac) == 2  # %.2f everywhere
