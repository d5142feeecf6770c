"""Stock dimensioning: strategic level, order quantity, stock status.

The strategic stock is a whole-month multiple of the monthly need (one
month of running stock plus three months of safety buffer by default).
The order quantity is whatever is missing to reach that level, clamped
at zero: a surplus is reported as OVERSTOCK, never as a negative order.

`plan_columns` runs the chain for many products in integers: with T the
prior-year total, h the boxes on hand and a/b the multiplier's decimal,
M = T/12, QS = T*a/(12*b) and QC = max(0, T*a - 12*b*h)/(12*b). Each is
one correctly rounded int/int division, the float of the exact
`Fraction` that `plan_products` gives one product at a time.
"""

from collections import namedtuple
from decimal import Decimal
from fractions import Fraction

DEFAULT_STOCK_MONTHS = 4

UNDERSTOCK = "UNDERSTOCK"
EXACT = "EXACT"
OVERSTOCK = "OVERSTOCK"


def _decimal_ratio(value):
    """`(numerator, denominator)` of the decimal that the text of `value` reads: 0.1 is 1/10, 1e-05 is 1/10**5."""
    return value.as_integer_ratio() if isinstance(value, Fraction) else Decimal(str(value)).as_integer_ratio()


def _exact(value) -> Fraction:
    """`value` as the Fraction its decimal text reads."""
    return Fraction(*_decimal_ratio(value))


# The per-product sizing chain: need, strategic level, order (each a Fraction), status.
StockPlan = namedtuple("StockPlan", "product_id monthly_need strategic_qty on_hand order_qty status")


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
        return Fraction(0), OVERSTOCK
    if on_hand == target:
        return Fraction(0), EXACT
    return target - on_hand, UNDERSTOCK


# The sizing chain of products as columns of numerators: M = need / 12, QS = stock / den, QC = order / den,
# with need T, stock T * a, on_hand h, order max(0, T * a - den * h), status and den = 12 * b (int).
PlanColumns = namedtuple("PlanColumns", "product_ids need stock on_hand order status den")


def plan_columns(product_ids, totals, on_hand, months=DEFAULT_STOCK_MONTHS) -> PlanColumns:
    """The sizing chain of each product from its prior-year total and boxes on hand, each >= 0; `months` > 0."""
    a, b = _decimal_ratio(months)
    if a <= 0:
        raise ValueError(f"stock months must be > 0, got {months}")
    for what, column in (("prior-year total", totals), ("on_hand", on_hand)):
        if (low := min(column, default=0)) < 0:  # the first product that holds the least
            raise ValueError(f"{product_ids[column.index(low)]}: {what} must be >= 0, got {low}")
    stock, held = [t * a for t in totals], [12 * b * h for h in on_hand]
    return PlanColumns(product_ids, totals, stock, on_hand, [s - h if s > h else 0 for s, h in zip(stock, held)],
                       [UNDERSTOCK if s > h else EXACT if s == h else OVERSTOCK for s, h in zip(stock, held)], 12 * b)


def plan_products(needs_by_product, on_hand_by_product, months=DEFAULT_STOCK_MONTHS):
    """Build one StockPlan per product, in product_id order.

    `needs_by_product` maps product_id to the monthly need; every product
    must have an on-hand level (`parse_inputs` gives 0 to a product with
    no stock row, and logs it).
    """
    plans = []
    for pid in sorted(needs_by_product):
        if pid not in on_hand_by_product:
            raise ValueError(f"no on-hand stock level for product {pid!r}")
        need = _exact(needs_by_product[pid])
        target = strategic_stock(need, months)
        on_hand = on_hand_by_product[pid]
        order, status = order_quantity(target, on_hand)
        plans.append(StockPlan(pid, need, target, on_hand, order, status))
    return plans
