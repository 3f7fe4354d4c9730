"""Hand-emitted SVG figures: box plots and multi-line trajectory plots.

No plotting dependency; output is deterministic and diffable. Every figure
carries exactly one <title> element directly under the svg root.
"""

from __future__ import annotations

from .analysis import DistributionSummary

WIDTH = 960
HEIGHT = 560
LEFT, RIGHT, TOP, BOTTOM = 80, WIDTH - 40, 60, HEIGHT - 80  # the plot area, in pixels

LINE_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b", "#17becf", "#7f7f7f"]


# markup characters as entities; characters XML 1.0 forbids (C0 controls but
# tab, LF and CR, and U+FFFE/U+FFFF) as U+FFFD, so any word gives well-formed SVG
_ESCAPES = str.maketrans(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"}
    | {c: "\ufffd" for c in (*range(0x20), 0xFFFE, 0xFFFF) if c not in (0x09, 0x0A, 0x0D)}
)


def _escape(text: str) -> str:
    return text.translate(_ESCAPES)


def _frame(title: str, lo: float, hi: float, x_label: str, y_label: str):
    """A figure's opening parts (header, grid, axes) for data from lo to hi, and its value-to-pixel y map.

    The y scale pads the data range by 5% at each end (a flat range spans 1)
    and is ruled at seven evenly spaced values.
    """
    if hi <= lo:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    def to_px(v: float) -> float:
        return BOTTOM - (v - lo) / (hi - lo) * (BOTTOM - TOP)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f"<title>{_escape(title)}</title>",
        '<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>',
        f'<text x="{WIDTH / 2:.1f}" y="32" text-anchor="middle" font-size="20" '
        f'font-family="sans-serif">{_escape(title)}</text>',
    ]
    for i in range(7):
        v = lo + (hi - lo) * i / 6
        y = to_px(v)
        parts.append(
            f'<line x1="{LEFT}" y1="{y:.2f}" x2="{RIGHT}" y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{LEFT - 8}" y="{y + 4:.2f}" text-anchor="end" font-size="12" '
            f'font-family="sans-serif">{v:.2f}</text>'
        )
    mid_y = (TOP + BOTTOM) / 2
    parts += [
        f'<line x1="{LEFT}" y1="{BOTTOM}" x2="{RIGHT}" y2="{BOTTOM}" stroke="#000" stroke-width="1.5"/>',
        f'<line x1="{LEFT}" y1="{TOP}" x2="{LEFT}" y2="{BOTTOM}" stroke="#000" stroke-width="1.5"/>',
        f'<text x="{(LEFT + RIGHT) / 2:.1f}" y="{HEIGHT - 18}" text-anchor="middle" '
        f'font-size="14" font-family="sans-serif">{_escape(x_label)}</text>',
        f'<text x="24" y="{mid_y:.1f}" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif" transform="rotate(-90 24 {mid_y:.1f})">{_escape(y_label)}</text>',
    ]
    return parts, to_px


def render_box_plot(
    title: str,
    x_labels: list[str],
    summaries: list[DistributionSummary],
    x_axis_label: str,
    y_axis_label: str,
) -> str:
    """Box plot with whiskers by the 1.5 IQR rule and a mean dot.

    Each box is labelled past a whisker's cap with the number of data beyond
    that whisker, when there are any. The y axis spans the whiskers and the means.
    """
    if len(x_labels) != len(summaries) or not summaries:
        raise ValueError("need one x label per summary")
    parts, to_px = _frame(
        title,
        min(min(s.whisker_lo, s.mean) for s in summaries),
        max(max(s.whisker_hi, s.mean) for s in summaries),
        x_axis_label,
        y_axis_label,
    )
    span = (RIGHT - LEFT) / len(summaries)
    box_w = min(48.0, span * 0.5)
    for i, (label, s) in enumerate(zip(x_labels, summaries)):
        cx = LEFT + span * (i + 0.5)
        x0 = cx - box_w / 2
        y_lo, y_hi = to_px(s.whisker_lo), to_px(s.whisker_hi)
        y_q1, y_q3 = to_px(s.q1), to_px(s.q3)
        y_med, y_mean = to_px(s.median), to_px(s.mean)
        parts.append(
            f'<line x1="{cx:.2f}" y1="{y_hi:.2f}" x2="{cx:.2f}" y2="{y_lo:.2f}" stroke="#555" stroke-width="1"/>'
        )
        for y in (y_lo, y_hi):
            parts.append(
                f'<line x1="{cx - box_w / 3:.2f}" y1="{y:.2f}" x2="{cx + box_w / 3:.2f}" y2="{y:.2f}" '
                'stroke="#555" stroke-width="1"/>'
            )
        parts.append(
            f'<rect x="{x0:.2f}" y="{y_q3:.2f}" width="{box_w:.2f}" height="{abs(y_q1 - y_q3):.2f}" '
            'fill="#9ecae1" stroke="#3182bd" stroke-width="1.2"/>'
        )
        parts.append(
            f'<line x1="{x0:.2f}" y1="{y_med:.2f}" x2="{x0 + box_w:.2f}" y2="{y_med:.2f}" '
            'stroke="#08306b" stroke-width="2"/>'
        )
        parts.append(f'<circle cx="{cx:.2f}" cy="{y_mean:.2f}" r="2.5" fill="#d62728"/>')
        for count, y in ((s.outliers_hi, y_hi - 5), (s.outliers_lo, y_lo + 13)):
            if count:
                parts.append(
                    f'<text x="{cx:.2f}" y="{y:.2f}" text-anchor="middle" font-size="10" '
                    f'font-family="sans-serif" fill="#555">{count} out</text>'
                )
        parts.append(
            f'<text x="{cx:.2f}" y="{BOTTOM + 20}" text-anchor="middle" font-size="11" '
            f'font-family="sans-serif">{_escape(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def render_line_plot(
    title: str,
    x_values: list[float],
    series: list[tuple[str, list[float]]],
    x_axis_label: str,
    y_axis_label: str,
) -> str:
    """Multi-line plot over shared x positions, one polyline per series."""
    if not series or not x_values:
        raise ValueError("need at least one series and one x value")
    all_y = [v for _, vals in series for v in vals]
    parts, to_px = _frame(title, min(all_y), max(all_y), x_axis_label, y_axis_label)
    x_lo, x_hi = min(x_values), max(x_values)
    x_span = (x_hi - x_lo) or 1.0

    def x_px(v: float) -> float:
        return LEFT + (v - x_lo) / x_span * (RIGHT - LEFT)

    for x in x_values:
        parts.append(
            f'<text x="{x_px(x):.2f}" y="{BOTTOM + 20}" text-anchor="middle" font-size="11" '
            f'font-family="sans-serif">{x:g}</text>'
        )
    for idx, (_, vals) in enumerate(series):
        color = LINE_COLORS[idx % len(LINE_COLORS)]
        pts = " ".join(f"{x_px(x):.2f},{to_px(y):.2f}" for x, y in zip(x_values, vals))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" opacity="0.85" points="{pts}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
