"""Stock dimensioning: strategic level, order quantity, stock status.

The strategic stock is a whole-month multiple of the monthly need (one
month of running stock plus three months of safety buffer by default).
The order quantity is whatever is missing to reach that level, clamped
at zero: a surplus is reported as OVERSTOCK, never as a negative order.
"""

from fractions import Fraction
from typing import NamedTuple

DEFAULT_STOCK_MONTHS = 4

UNDERSTOCK = "UNDERSTOCK"
EXACT = "EXACT"
OVERSTOCK = "OVERSTOCK"


_ZERO = Fraction(0)


def _decimal_ratio(value):
    """`(numerator, denominator)` of the decimal that the text of `value` reads: 0.1 is 1/10."""
    text = str(value)
    whole, _, digits = text.partition(".")
    if not digits.isdigit():  # an int, a Fraction or a number in e-notation
        return Fraction(text).as_integer_ratio()
    return int(whole + digits), 10 ** len(digits)


def _exact(value) -> Fraction:
    """`value` as the Fraction its decimal text reads, without re-wrapping one that already is."""
    return value if isinstance(value, Fraction) else Fraction(*_decimal_ratio(value))


class StockPlan(NamedTuple):
    """The per-product sizing chain: need, strategic level, order, status."""

    product_id: str
    monthly_need: Fraction
    strategic_qty: Fraction
    on_hand: int
    order_qty: Fraction
    status: str


def strategic_stock(monthly_need, months=DEFAULT_STOCK_MONTHS) -> Fraction:
    """Strategic stock level: `months` times the monthly need, exact."""
    need = _exact(monthly_need)
    if need < 0:
        raise ValueError(f"monthly need must be >= 0, got {monthly_need}")
    horizon = _exact(months)
    if horizon <= 0:
        raise ValueError(f"stock months must be > 0, got {months}")
    return need * horizon


def order_quantity(strategic_qty, on_hand):
    """Order quantity and stock status for one product.

    Returns (order_qty, status) where order_qty = max(0, strategic - on
    hand). on_hand above the strategic level is OVERSTOCK and orders
    nothing; exactly at the level is EXACT.
    """
    target = _exact(strategic_qty)
    if target < 0:
        raise ValueError(f"strategic quantity must be >= 0, got {strategic_qty}")
    if on_hand < 0:
        raise ValueError(f"on_hand must be >= 0, got {on_hand}")
    if on_hand > target:
        return _ZERO, OVERSTOCK
    if on_hand == target:
        return _ZERO, EXACT
    return target - on_hand, UNDERSTOCK


def plan_products(needs_by_product, on_hand_by_product, months=DEFAULT_STOCK_MONTHS):
    """Build one StockPlan per product, in product_id order.

    `needs_by_product` maps product_id to the monthly need; every product
    must have an on-hand level (default missing snapshots to 0 upstream,
    where the gap can be reported).
    """
    plans = []
    months = _exact(months)
    for pid in sorted(needs_by_product):
        if pid not in on_hand_by_product:
            raise ValueError(f"no on-hand stock level for product {pid!r}")
        need = _exact(needs_by_product[pid])
        target = strategic_stock(need, months)
        on_hand = on_hand_by_product[pid]
        order, status = order_quantity(target, on_hand)
        plans.append(StockPlan(pid, need, target, on_hand, order, status))
    return plans
