"""Builders shared by the test modules."""

from __future__ import annotations

import numpy as np

from clearbot.geometry import MaskComponent
from clearbot.scene import ObjectClass


def component_from_pixels(cls: ObjectClass, pixels) -> MaskComponent:
    """A component of the given (row, col) pixels, in any order; they are
    put in raster order, as ``connected_components`` gives them."""
    pixels = np.asarray(pixels, dtype=np.int64)
    rows, cols = pixels[:, 0], pixels[:, 1]
    pixels = pixels[np.lexsort((cols, rows))]
    return MaskComponent(
        cls=cls,
        pixels=pixels,
        area=len(pixels),
        bbox=(int(rows.min()), int(rows.max()) + 1, int(cols.min()), int(cols.max()) + 1),
        seed_pixel=(int(pixels[0, 0]), int(pixels[0, 1])),
    )
