"""Conversion of box quantities into cartons, pallets, and cubic volume.

Boxes pack into cartons of fixed capacity; cartons stack on a pallet in
an axis-aligned grid. Only the six axis-aligned carton orientations are
searched (no interlocked or mixed-orientation layers), and each product
gets its own pallets. The strategic quantity is rounded up to whole
boxes here, and only here, so rounding error never compounds upstream.
`volume_plans` fits each carton format once per call, keeping nothing.
"""

import math
from collections import namedtuple
from itertools import permutations
from typing import NamedTuple

from .dimensioning import PlanColumns, StockPlan, _decimal_ratio
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


class PalletSpec(namedtuple("PalletSpec", "usable_length usable_width usable_height", defaults=(1200, 800, 1500))):
    """Usable pallet envelope in millimeters."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, size in zip(self._fields, self):
            if not (math.isfinite(size) and size > 0):
                raise ValueError(f"pallet {name} must be finite and > 0, got {size}")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))


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
    sides = [*map(_decimal_ratio, (pallet.usable_length, pallet.usable_width, pallet.usable_height))]

    def count(orientation):  # the product of each floor(side / edge), side n/d and edge p/q as integer ratios
        return math.prod(n * q // (d * p) for (n, d), (p, q) in zip(sides, map(_decimal_ratio, orientation)))
    best = max(sorted(set(permutations(carton_dims))), key=count)  # the first of the best, so the least
    return count(best), best


def volumetric_plan(
    stock_plan: StockPlan, entry: CatalogEntry, pallet: PalletSpec = DEFAULT_PALLET
) -> VolumetricPlan:
    """Size one product's strategic quantity in cartons, pallets, and m3.

    This is where the fractional strategic quantity of one product is
    rounded (up) to whole boxes: it is `volume_plans` of that product alone.
    """
    (stock, den), pid = stock_plan.strategic_qty.as_integer_ratio(), stock_plan.product_id
    return volume_plans(PlanColumns([pid], None, [stock], None, None, None, den), {pid: entry}, pallet)[0]


def volume_plans(plans: PlanColumns, catalog, pallet: PalletSpec = DEFAULT_PALLET) -> list:
    """The `VolumetricPlan` of each product of `plans`, from its numerators: its boxes are `-(-stock // den)`.

    Each carton format (its dimensions and their types: 400 and 400.0 keep their own text) is fitted once.
    """
    fits, volumes = {}, []
    for pid, stock in zip(plans.product_ids, plans.stock):
        entry = catalog[pid]
        length, width, height = dims = entry.carton_dims
        if (key := (dims, type(length), type(width), type(height))) not in fits:
            try:
                fits[key] = *cartons_per_pallet(dims, pallet), length * width * height * MM3_TO_M3
            except OverflowError:  # an int volume in mm3 past the float range
                raise ValueError(f"{pid}: carton {length}x{width}x{height} mm has a volume "
                                 "too large for a float") from None
        per_pallet, orientation, volume = fits[key]
        boxes = -(-stock // plans.den)
        cartons = cartons_needed(boxes, entry.boxes_per_carton)
        if cartons > 0 and per_pallet == 0:
            raise UnpalletizableError(pid, dims, pallet)
        pallets = -(-cartons // per_pallet) if cartons > 0 else 0  # `pallets_needed`, whose checks hold here
        volumes.append(tuple.__new__(VolumetricPlan, (pid, boxes, cartons, per_pallet, orientation, pallets,
                                                      cartons * volume)))
    return volumes
