from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stockdim.dimensioning import (
    EXACT,
    OVERSTOCK,
    UNDERSTOCK,
    order_quantity,
    plan_columns,
    plan_products,
    strategic_stock,
)


def test_strategic_stock_examples():
    assert strategic_stock(100) == 400
    assert strategic_stock(0) == 0
    qs = strategic_stock(Fraction(100, 12))
    assert qs == Fraction(100, 3)
    assert float(qs) == pytest.approx(33.333333333333336, abs=1e-12)


def test_strategic_stock_horizon_is_configurable():
    assert strategic_stock(100, months=6) == 600
    with pytest.raises(ValueError, match="> 0"):
        strategic_stock(100, months=0)
    with pytest.raises(ValueError, match=">= 0"):
        strategic_stock(-1)


def test_a_float_multiplier_is_its_decimal_value():
    assert strategic_stock(10, months=0.1) == 1
    assert strategic_stock(Fraction(7, 3), months=2.5) == Fraction(35, 6)
    (plan,) = plan_products({"P": Fraction(10)}, {"P": 1}, 0.1)
    assert (plan.strategic_qty, plan.order_qty, plan.status) == (1, 0, EXACT)


def test_order_quantity_examples():
    assert order_quantity(400, 150) == (250, UNDERSTOCK)
    assert order_quantity(400, 400) == (0, EXACT)
    assert order_quantity(400, 600) == (0, OVERSTOCK)


def test_order_quantity_validation():
    with pytest.raises(ValueError, match="strategic quantity"):
        order_quantity(-1, 0)
    with pytest.raises(ValueError, match="on_hand"):
        order_quantity(10, -1)


def test_plan_products_trivial_cases():
    plans = plan_products({"P1": 100}, {"P1": 0})
    assert plans[0].order_qty == 400 and plans[0].status == UNDERSTOCK
    plans = plan_products({"P1": 0}, {"P1": 50})
    assert plans[0].order_qty == 0 and plans[0].status == OVERSTOCK


def test_plan_products_three_product_chain():
    # hand-applied chain: M -> QS = 4M -> QC = max(0, QS - stock)
    needs = {"A": Fraction(1200, 12), "B": Fraction(90, 12), "C": Fraction(0)}
    stock = {"A": 150, "B": 30, "C": 0}
    plans = {p.product_id: p for p in plan_products(needs, stock)}
    assert plans["A"].strategic_qty == 400 and plans["A"].order_qty == 250
    assert plans["B"].strategic_qty == 30 and plans["B"].order_qty == 0
    assert plans["B"].status == EXACT
    assert plans["C"].order_qty == 0 and plans["C"].status == EXACT


def test_plan_products_requires_stock_level():
    with pytest.raises(ValueError, match="no on-hand stock level"):
        plan_products({"P1": 10}, {})


def test_plan_products_names_a_bad_horizon_as_it_was_given():
    with pytest.raises(ValueError) as exc:
        plan_products({"P1": 10}, {"P1": 0}, months=-0.5)
    assert str(exc.value) == "stock months must be > 0, got -0.5"


def test_plan_columns_refuses_what_plan_products_refuses():
    for total, on_hand, months, message in [
        (12, 0, -1, "stock months must be > 0, got -1"),
        (12, 0, 0, "stock months must be > 0, got 0"),
        (12, -5, 4, "P: on_hand must be >= 0, got -5"),
        (-12, 0, 4, "P: prior-year total must be >= 0, got -12"),
    ]:
        with pytest.raises(ValueError):
            plan_products({"P": Fraction(total, 12)}, {"P": on_hand}, months)
        with pytest.raises(ValueError) as exc:
            plan_columns(["O", "P"], [0, total], [0, on_hand], months)
        assert str(exc.value) == message


@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_equation_chain_is_exact(total, on_hand):
    need = Fraction(total, 12)
    target = strategic_stock(need)
    order, status = order_quantity(target, on_hand)
    assert target == 4 * need
    assert order == max(Fraction(0), target - on_hand)
    assert order >= 0
    if on_hand > target:
        assert status == OVERSTOCK and order == 0
    elif on_hand == target:
        assert status == EXACT and order == 0
    else:
        assert status == UNDERSTOCK and order > 0


@given(st.integers(0, 5000), st.integers(0, 5000), st.integers(0, 5000))
def test_order_qty_non_increasing_in_stock(total, h1, h2):
    lo, hi = sorted((h1, h2))
    target = strategic_stock(Fraction(total, 12))
    assert order_quantity(target, lo)[0] >= order_quantity(target, hi)[0]
    assert order_quantity(target, total)[0] == 0  # total boxes >= QS = total/3


@given(st.integers(0, 10**6), st.integers(0, 20))
def test_strategic_stock_is_linear(total, k):
    need = Fraction(total, 12)
    assert strategic_stock(k * need) == k * strategic_stock(need)
