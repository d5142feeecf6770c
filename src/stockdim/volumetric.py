"""Conversion of box quantities into cartons, pallets, and cubic volume.

Boxes pack into cartons of fixed capacity; cartons stack on a pallet in
an axis-aligned grid. Only the six axis-aligned carton orientations are
searched (no interlocked or mixed-orientation layers), and each product
gets its own pallets. The strategic quantity is rounded up to whole
boxes here, and only here, so rounding error never compounds upstream.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import NamedTuple

from .dimensioning import StockPlan, _exact
from .ingestion import CatalogEntry

MM3_TO_M3 = 1e-9


class UnpalletizableError(ValueError):
    """A carton with nonzero demand fits the pallet in no orientation."""

    def __init__(self, product_id, carton_dims, pallet):
        self.product_id = product_id
        super().__init__(
            f"product {product_id!r} is unpalletizable: carton "
            f"{carton_dims[0]}x{carton_dims[1]}x{carton_dims[2]} mm fits pallet "
            f"{pallet.usable_length}x{pallet.usable_width}x{pallet.usable_height} mm "
            "in no orientation"
        )


@dataclass(frozen=True)
class PalletSpec:
    """Usable pallet envelope in millimeters."""

    usable_length: float = 1200
    usable_width: float = 800
    usable_height: float = 1500

    def __post_init__(self):
        for name, size in vars(self).items():
            if not (math.isfinite(size) and size > 0):
                raise ValueError(f"pallet {name} must be finite and > 0, got {size}")


DEFAULT_PALLET = PalletSpec()  # EUR footprint, 1.5 m usable stack height


class VolumetricPlan(NamedTuple):
    product_id: str
    boxes: int
    cartons: int
    cartons_per_pallet: int
    orientation: tuple
    pallets: int
    total_volume_m3: float


def cartons_needed(boxes: int, boxes_per_carton: int) -> int:
    """Cartons to hold `boxes`, rounding the last partial carton up."""
    if boxes < 0:
        raise ValueError(f"boxes must be >= 0, got {boxes}")
    if boxes_per_carton < 1:
        raise ValueError(f"boxes_per_carton must be >= 1, got {boxes_per_carton}")
    return -(-boxes // boxes_per_carton)


def pallets_needed(cartons: int, cartons_per_pallet: int) -> int:
    """Pallets to hold `cartons`; zero cartons need zero pallets."""
    if cartons < 0:
        raise ValueError(f"cartons must be >= 0, got {cartons}")
    if cartons_per_pallet < 1:
        raise ValueError(f"cartons_per_pallet must be >= 1, got {cartons_per_pallet}")
    return -(-cartons // cartons_per_pallet)


def cartons_per_pallet(carton_dims, pallet: PalletSpec):
    """Best axis-aligned grid count of one carton on one pallet.

    Tries all six orientations (d1, d2, d3) of the carton against the
    pallet's (length, width, height) and keeps the one maximizing
    floor(L/d1) * floor(W/d2) * floor(H/d3), each quotient exact, with a
    float read as the decimal its text shows. Ties go to the
    lexicographically smallest orientation. A count of 0 means the
    carton fits in no orientation and is reportable, not an error.
    """
    if len(carton_dims) != 3 or any(not d > 0 for d in carton_dims):
        raise ValueError("carton dimensions must be three positive numbers")
    length, width, height = map(_exact, (pallet.usable_length, pallet.usable_width, pallet.usable_height))
    best_count = -1
    best_orientation = None
    for d1, d2, d3 in sorted(set(permutations(carton_dims))):
        count = (length // _exact(d1)) * (width // _exact(d2)) * (height // _exact(d3))
        if count > best_count:
            best_count = count
            best_orientation = (d1, d2, d3)
    return best_count, best_orientation


@lru_cache(maxsize=256, typed=True)  # typed: 400 and 400.0 keep their own orientation text
def _carton_fit(length, width, height, pallet: PalletSpec):
    """`cartons_per_pallet` once per carton format; a catalog has far fewer formats than products."""
    return cartons_per_pallet((length, width, height), pallet)


def volumetric_plan(
    stock_plan: StockPlan, entry: CatalogEntry, pallet: PalletSpec = DEFAULT_PALLET
) -> VolumetricPlan:
    """Size one product's strategic quantity in cartons, pallets, and m3.

    This is the single point where the fractional strategic quantity is
    rounded (up) to whole boxes.
    """
    boxes = math.ceil(stock_plan.strategic_qty)
    cartons = cartons_needed(boxes, entry.boxes_per_carton)
    per_pallet, orientation = _carton_fit(*entry.carton_dims, pallet)
    if cartons > 0 and per_pallet == 0:
        raise UnpalletizableError(stock_plan.product_id, entry.carton_dims, pallet)
    pallets = pallets_needed(cartons, per_pallet) if cartons > 0 else 0
    carton_volume_m3 = (
        entry.carton_dims[0] * entry.carton_dims[1] * entry.carton_dims[2] * MM3_TO_M3
    )
    return VolumetricPlan(
        product_id=stock_plan.product_id,
        boxes=boxes,
        cartons=cartons,
        cartons_per_pallet=per_pallet,
        orientation=orientation,
        pallets=pallets,
        total_volume_m3=cartons * carton_volume_m3,
    )
