import csv
import io
import random
from fractions import Fraction
from itertools import permutations

import pytest

from stockdim import volumetric
from stockdim.dimensioning import StockPlan, UNDERSTOCK, plan_columns
from stockdim.ingestion import CatalogEntry, parse_inputs
from stockdim.reporting import volume_csv
from stockdim.volumetric import (
    DEFAULT_PALLET,
    PalletSpec,
    UnpalletizableError,
    VolumetricPlan,
    cartons_needed,
    cartons_per_pallet,
    pallets_needed,
    volumetric_plan,
)


def brute_force_best(carton_dims, pallet):
    """Independent oracle: exhaustive search over all 6 orientations."""
    best = 0
    for d1, d2, d3 in permutations(carton_dims):
        count = (
            int(pallet.usable_length // d1)
            * int(pallet.usable_width // d2)
            * int(pallet.usable_height // d3)
        )
        best = max(best, count)
    return best


def make_plan(pid, strategic_qty):
    qty = Fraction(strategic_qty)
    return StockPlan(pid, qty / 4, qty, 0, qty, UNDERSTOCK)


def make_entry(pid, bpc, dims):
    return CatalogEntry(pid, pid, 1.0, 0, bpc, dims)


def test_cartons_needed_examples():
    assert cartons_needed(400, 24) == 17
    assert cartons_needed(0, 24) == 0
    assert cartons_needed(24, 24) == 1
    with pytest.raises(ValueError):
        cartons_needed(-1, 24)
    with pytest.raises(ValueError):
        cartons_needed(10, 0)


@pytest.mark.parametrize("call, message", [
    (lambda: pallets_needed(-1, 1), "cartons must be >= 0, got -1"),
    (lambda: pallets_needed(1, 0), "cartons_per_pallet must be >= 1, got 0"),
    (lambda: cartons_per_pallet((1, 2), DEFAULT_PALLET), "carton dimensions must be three positive numbers"),
], ids=["negative-cartons", "empty-pallet", "two-dimensions"])
def test_pallet_counts_reject_bad_arguments(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_orientation_search_tie_breaks_lexicographically():
    # (200,400,300) -> 6*2*5 and (400,200,300) -> 3*4*5 both give 60;
    # the lexicographically smaller orientation wins
    count, orientation = cartons_per_pallet((400, 300, 200), DEFAULT_PALLET)
    assert count == 60
    assert orientation == (200, 400, 300)


def test_orientation_search_flat_carton():
    count, orientation = cartons_per_pallet((1200, 800, 100), DEFAULT_PALLET)
    assert count == 15
    assert orientation == (1200, 800, 100)


def test_orientation_search_long_carton_fits_only_upright():
    count, orientation = cartons_per_pallet((1300, 100, 100), DEFAULT_PALLET)
    assert count == 96  # 12 * 8 * 1
    assert orientation == (100, 100, 1300)


def test_orientation_search_count_zero_is_reportable():
    count, _ = cartons_per_pallet((2000, 2000, 2000), DEFAULT_PALLET)
    assert count == 0


def test_orientation_search_matches_brute_force_on_random_dims():
    rnd = random.Random(42)
    for _ in range(300):
        dims = tuple(rnd.randint(50, 900) for _ in range(3))
        pallet = PalletSpec(rnd.randint(400, 2000), rnd.randint(400, 2000), rnd.randint(400, 2000))
        count, orientation = cartons_per_pallet(dims, pallet)
        assert count == brute_force_best(dims, pallet)
        d1, d2, d3 = orientation
        own = (
            int(pallet.usable_length // d1)
            * int(pallet.usable_width // d2)
            * int(pallet.usable_height // d3)
        )
        assert own == count  # returned orientation actually achieves the count


def test_volumetric_plan_composes_the_chain():
    plan = make_plan("P", 400)
    entry = make_entry("P", 24, (400, 300, 200))
    out = volumetric_plan(plan, entry, DEFAULT_PALLET)
    assert out == VolumetricPlan(
        product_id="P",
        boxes=400,
        cartons=17,
        cartons_per_pallet=60,
        orientation=(200, 400, 300),
        pallets=1,
        total_volume_m3=17 * (400 * 300 * 200 * 1e-9),
    )
    assert out.total_volume_m3 == pytest.approx(0.408, abs=1e-9)


def test_volumetric_plan_zero_demand():
    out = volumetric_plan(make_plan("P", 0), make_entry("P", 24, (400, 300, 200)))
    assert (out.boxes, out.cartons, out.pallets, out.total_volume_m3) == (0, 0, 0, 0.0)


def test_volumetric_plan_rounds_fractional_quantity_up_once():
    out = volumetric_plan(make_plan("P", Fraction(100, 3)), make_entry("P", 10, (300, 300, 300)))
    assert out.boxes == 34  # ceil(33.33...)
    assert out.cartons == 4


def test_unpalletizable_product_with_demand_is_an_error():
    plan = make_plan("P", 10)
    entry = make_entry("P", 5, (2000, 2000, 2000))
    with pytest.raises(UnpalletizableError, match="'P' is unpalletizable"):
        volumetric_plan(plan, entry, DEFAULT_PALLET)
    # ...but without demand the zero count is just reported
    out = volumetric_plan(make_plan("P", 0), entry, DEFAULT_PALLET)
    assert out.pallets == 0 and out.cartons_per_pallet == 0


def test_outputs_monotone_in_strategic_quantity():
    entry = make_entry("P", 7, (350, 250, 200))
    prev = None
    for qty in (0, 1, 6, 7, 8, 50, 351, 352, 1000):
        out = volumetric_plan(make_plan("P", qty), entry)
        if prev is not None:
            assert out.boxes >= prev.boxes
            assert out.cartons >= prev.cartons
            assert out.pallets >= prev.pallets
            assert out.total_volume_m3 >= prev.total_volume_m3
        prev = out


def test_ceiling_sandwich_and_pallet_count_invariants():
    rnd = random.Random(17)
    for _ in range(300):
        boxes = rnd.randint(0, 10**6)
        per_carton = rnd.randint(1, 500)
        per_pallet = rnd.randint(1, 5000)
        cartons = cartons_needed(boxes, per_carton)
        # integer form of boxes/bpc <= cartons < boxes/bpc + 1
        assert cartons * per_carton >= boxes
        assert (cartons - 1) * per_carton < boxes or (boxes == 0 and cartons == 0)
        pallets = pallets_needed(cartons, per_pallet)
        assert pallets * per_pallet >= cartons
        assert (pallets - 1) * per_pallet < cartons or (cartons == 0 and pallets == 0)


def test_carton_fit_keeps_int_and_float_dimensions_apart():
    # One call of `volume_plans` fits each format once: 400 and 400.0 are two formats.
    pallet = PalletSpec(1200, 900, 1000)  # best orientation: the carton as given
    as_int = make_entry("I", 24, (400, 300, 200))
    as_float = make_entry("F", 24, (400.0, 300.0, 200.0))
    volumes = [volumetric_plan(make_plan(e.product_id, 400), e, p)
               for p in (pallet, DEFAULT_PALLET) for e in (as_float, as_int, as_float, as_int)]
    catalog = {f"P{i}": e for i, e in enumerate((as_float, as_int, as_float, as_int))}
    plans = plan_columns([*catalog], [1200] * 4, [0] * 4)  # 400 boxes each
    assert [repr(v._replace(product_id=e.product_id)) for p in (pallet, DEFAULT_PALLET)  # repr: 400.0 is not 400
            for v, e in zip(volumetric.volume_plans(plans, catalog, p), catalog.values())] == [*map(repr, volumes)]
    fh = io.StringIO()
    volume_csv(volumes, fh)
    orientations = [row["orientation"] for row in csv.DictReader(io.StringIO(fh.getvalue()))]
    assert orientations == ["400.0x300.0x200.0", "400x300x200"] * 2 + ["200.0x400.0x300.0", "200x400x300"] * 2


def test_volume_plans_fits_each_carton_format_once_per_call(monkeypatch):
    fitted = []
    fit = volumetric.cartons_per_pallet
    monkeypatch.setattr(volumetric, "cartons_per_pallet", lambda dims, pallet: fitted.append(dims) or fit(dims, pallet))
    catalog = {f"P{i:03d}": make_entry(f"P{i:03d}", 10, (100 + i % 300, 200, 100)) for i in range(600)}
    plans = plan_columns([*catalog], [12] * 600, [0] * 600)
    for _ in range(2):
        assert [v.cartons_per_pallet for v in volumetric.volume_plans(plans, catalog)] == [
            cartons_per_pallet(entry.carton_dims, DEFAULT_PALLET)[0] for entry in catalog.values()]
    assert fitted == [(side, 200, 100) for side in range(100, 400)] * 2  # nothing is kept between calls


def test_volumetric_plan_matches_a_direct_fit_for_every_bundled_entry(bundled_paths):
    catalog = parse_inputs(
        bundled_paths["deliveries"], bundled_paths["catalog"], bundled_paths["stock"], 2019, 3).catalog
    for pallet in (DEFAULT_PALLET, PalletSpec(1000, 1000, 1000), PalletSpec(1200.5, 800, 1500)):
        for entry in catalog.values():
            per_pallet, orientation = cartons_per_pallet(entry.carton_dims, pallet)
            cartons = cartons_needed(1000, entry.boxes_per_carton)
            length, width, height = entry.carton_dims
            out = volumetric_plan(make_plan(entry.product_id, 1000), entry, pallet)
            assert out == VolumetricPlan(
                entry.product_id, 1000, cartons, per_pallet, orientation,
                pallets_needed(cartons, per_pallet), cartons * (length * width * height * 1e-9),
            )
            assert [type(d) for d in out.orientation] == [type(d) for d in orientation]


def test_decimal_dimensions_fit_exactly():
    # Cube cartons of side t/10 mm, as decimal text, on cube pallets k times
    # their side: float floor division came out short on 5,999 of these 19,996.
    assert cartons_per_pallet((100.2,) * 3, PalletSpec(501.0, 501.0, 501.0)) == (125, (100.2,) * 3)
    for t in range(1001, 6000):
        side = float(f"{t // 10}.{t % 10}")
        for k in (2, 3, 5, 7):
            pallet_side = float(f"{k * t // 10}.{k * t % 10}")
            pallet = PalletSpec(pallet_side, pallet_side, pallet_side)
            assert cartons_per_pallet((side,) * 3, pallet) == (k**3, (side,) * 3), (side, pallet_side)
