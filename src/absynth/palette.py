"""Fixed 16-color palette with canonical names.

Every colored element in a generated scene uses one of these named colors,
so color-recognition questions have a closed, unambiguous answer vocabulary.
"""

from __future__ import annotations

# name -> (r, g, b); order is stable and part of the public contract.
PALETTE: dict[str, tuple[int, int, int]] = {
    "red": (214, 39, 40),
    "blue": (31, 119, 180),
    "green": (44, 160, 44),
    "orange": (255, 127, 14),
    "purple": (148, 103, 189),
    "brown": (140, 86, 75),
    "pink": (227, 119, 194),
    "gray": (127, 127, 127),
    "olive": (188, 189, 34),
    "cyan": (23, 190, 207),
    "magenta": (197, 27, 138),
    "yellow": (230, 196, 41),
    "teal": (42, 157, 143),
    "navy": (27, 58, 107),
    "maroon": (123, 36, 28),
    "black": (16, 16, 16),
}

# Subset with strong contrast against a white canvas, used for data marks.
CHART_COLORS: tuple[str, ...] = (
    "blue", "orange", "green", "red", "purple", "brown", "pink",
    "teal", "olive", "cyan", "magenta", "navy",
)


def color_css(name: str) -> str:
    r, g, b = PALETTE[name]
    return f"rgb({r},{g},{b})"


def rgb_css(rgb: tuple[int, int, int]) -> str:
    r, g, b = rgb
    return f"rgb({r},{g},{b})"
