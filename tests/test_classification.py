import random
from fractions import Fraction

import pytest

from stockdim import classification
from stockdim.classification import (
    CriteriaWeights,
    ScoredProduct,
    rank_and_cut,
    score_products,
)
from stockdim.ingestion import CatalogEntry


def entry(pid, price, urgency=0):
    return CatalogEntry(pid, pid, price, urgency, 10, (300, 300, 300))


def scored(pid, score, revenue=0.0):
    return ScoredProduct(pid, revenue, 0.0, 0, score)


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError, match="sum to 1"):
        CriteriaWeights(0.5, 0.5, 0.5)
    with pytest.raises(ValueError, match="non-negative"):
        CriteriaWeights(1.5, -0.5, 0.0)


def test_weights_sum_to_one_as_the_decimals_they_read():
    assert 0.6 + 0.3 + 0.1 != 1 and 0.3333333333333333 * 3 == 1  # float sums say the opposite
    assert CriteriaWeights(0.6, 0.3, 0.1).w_urgency == 0.1
    for weights in ((0.5, 0.3, 0.2000000001), (0.3333333333333333,) * 3):
        with pytest.raises(ValueError, match="sum to 1"):
            CriteriaWeights(*weights)


def test_revenue_only_weights_hit_minmax_endpoints():
    boxes = {"A": 100, "B": 300}
    catalog = {"A": entry("A", 1.0), "B": entry("B", 1.0)}
    out = {s.product_id: s.score for s in score_products(boxes, catalog, CriteriaWeights(1, 0, 0))}
    assert out == {"A": 0.0, "B": 1.0}


def test_urgency_only_weights():
    boxes = {"A": 10, "B": 10}
    catalog = {"A": entry("A", 1.0, urgency=1), "B": entry("B", 1.0, urgency=0)}
    out = {s.product_id: s.score for s in score_products(boxes, catalog, CriteriaWeights(0, 0, 1))}
    assert out == {"A": 1.0, "B": 0.0}


def test_four_product_normalization_table():
    # Hand-computed oracle. Totals/prices give:
    #   revenue: A 200, B 300, C 400, D 100 -> normalized (r-100)/300
    #   ratio:   A 50,  B 300, C 6.25, D 4  -> normalized (q-4)/296
    #   urgency: only B -> B 1, others 0
    boxes = {"A": 100, "B": 300, "C": 50, "D": 20}
    catalog = {
        "A": entry("A", 2.0),
        "B": entry("B", 1.0, urgency=1),
        "C": entry("C", 8.0),
        "D": entry("D", 5.0),
    }
    out = {s.product_id: s for s in score_products(boxes, catalog, CriteriaWeights(0.5, 0.3, 0.2))}
    assert out["A"].revenue == 200.0 and out["A"].qty_price_ratio == 50.0
    expected = {
        "A": 0.5 * (100 / 300) + 0.3 * (46 / 296),
        "B": 0.5 * (200 / 300) + 0.3 * 1.0 + 0.2 * 1.0,
        "C": 0.5 * 1.0 + 0.3 * (2.25 / 296),
        "D": 0.0,
    }
    for pid, want in expected.items():
        assert out[pid].score == pytest.approx(want, abs=1e-12)


def test_constant_criterion_normalizes_to_zero():
    boxes = {"A": 10, "B": 10}
    catalog = {"A": entry("A", 1.0), "B": entry("B", 1.0)}
    out = score_products(boxes, catalog, CriteriaWeights(0.5, 0.3, 0.2))
    assert all(s.score == 0.0 for s in out)


def test_empty_product_set_rejected():
    with pytest.raises(ValueError, match="empty product set"):
        score_products({}, {}, CriteriaWeights())
    with pytest.raises(ValueError, match="^cannot rank an empty product set$"):
        rank_and_cut([])


def test_a_series_without_a_catalog_entry_rejected():
    boxes = {"A": 10, "B": 10}
    with pytest.raises(ValueError, match="^no catalog entry for product 'B'$"):
        score_products(boxes, {"A": entry("A", 1.0)}, CriteriaWeights())


def test_cut_example_from_share_table():
    # shares 0.50,0.30,0.10,0.07,0.03 -> cumulative 0.50,0.80,0.90,0.97,1.00
    items = [scored(f"P{i}", s) for i, s in enumerate([0.5, 0.3, 0.1, 0.07, 0.03])]
    out = rank_and_cut(items)
    assert [r.abc_class for r in out] == ["A", "A", "B", "B", "C"]
    assert [r.rank for r in out] == [1, 2, 3, 4, 5]
    assert out[-1].cumulative_share == pytest.approx(1.0, abs=1e-9)


def test_single_product_is_class_a():
    out = rank_and_cut([scored("P", 3.7)])
    assert out[0].abc_class == "A"
    assert out[0].strategic
    assert out[0].cumulative_share == 1.0


def test_ten_equal_scores_cut_at_rank_eight():
    # cumulative share reaches exactly 0.80 at rank 8; the minimal prefix
    # rule keeps rank 8 in A and starts B at rank 9
    items = [scored(f"P{i:02d}", 1.0) for i in range(10)]
    out = rank_and_cut(items)
    assert [r.abc_class for r in out] == ["A"] * 8 + ["B"] * 2


def test_the_last_cumulative_share_is_one_on_every_python():
    # the total adds left to right, as the running share does; a compensated
    # sum (the builtin from Python 3.12) would make it 0.9999999999999999
    out = rank_and_cut([scored(f"P{i}", 0.1) for i in range(10)])
    assert out[-1].cumulative_share == 1.0


def test_zero_total_score_rejected():
    with pytest.raises(ValueError, match="no discriminating criterion"):
        rank_and_cut([scored("A", 0.0), scored("B", 0.0)])


def test_ties_break_by_revenue_then_id():
    items = [
        scored("Z", 1.0, revenue=10.0),
        scored("A", 1.0, revenue=10.0),
        scored("M", 1.0, revenue=99.0),
    ]
    out = rank_and_cut(items)
    assert [r.product_id for r in out] == ["M", "A", "Z"]


def test_output_is_permutation_of_input():
    rnd = random.Random(7)
    items = [scored(f"P{i:03d}", rnd.uniform(0.01, 5)) for i in range(40)]
    out = rank_and_cut(items)
    assert sorted(r.product_id for r in out) == sorted(s.product_id for s in items)
    assert sorted(r.rank for r in out) == list(range(1, 41))
    shares = [r.cumulative_share for r in out]
    assert shares == sorted(shares)  # non-decreasing along rank order
    assert shares[-1] == pytest.approx(1.0, abs=1e-9)


def test_class_a_share_is_minimal():
    rnd = random.Random(21)
    for _ in range(50):
        items = [scored(f"P{i:03d}", rnd.uniform(0.01, 10)) for i in range(rnd.randint(1, 30))]
        out = rank_and_cut(items)
        a_members = [r for r in out if r.abc_class == "A"]
        assert a_members[-1].cumulative_share >= 0.80
        if len(a_members) > 1:
            assert a_members[-2].cumulative_share < 0.80


def test_power_of_two_rescaling_preserves_ranks_and_classes():
    # multiplying by powers of two is exact in binary floating point, so
    # the ordering-invariance property can be asserted exactly
    rnd = random.Random(3)
    items = [scored(f"P{i:03d}", rnd.uniform(0.01, 5)) for i in range(25)]
    base = rank_and_cut(items)
    for k in (0.25, 2.0, 64.0):
        rescaled = [scored(s.product_id, s.score * k) for s in items]
        out = rank_and_cut(rescaled)
        assert [(r.product_id, r.rank, r.abc_class, r.strategic) for r in out] == [
            (r.product_id, r.rank, r.abc_class, r.strategic) for r in base
        ]


def test_classes_are_contiguous_a_then_b_then_c():
    rnd = random.Random(11)
    items = [scored(f"P{i:03d}", rnd.uniform(0.01, 5)) for i in range(60)]
    classes = [r.abc_class for r in rank_and_cut(items)]
    assert classes == sorted(classes)  # "A" < "B" < "C" keeps rank order


def test_nonfinite_scores_rejected():
    with pytest.raises(ValueError, match="finite"):
        rank_and_cut([scored("A", float("nan"))])
    with pytest.raises(ValueError, match=">= 0"):
        rank_and_cut([scored("A", -0.5)])


def test_threshold_validation():
    with pytest.raises(ValueError, match="a_threshold"):
        rank_and_cut([scored("A", 1.0)], a_threshold=0.9, b_threshold=0.5)


def decimal_ratios(monkeypatch):
    """The values whose decimal `rank_and_cut` reads from now on."""
    read, ratio = [], classification._decimal_ratio
    monkeypatch.setattr(classification, "_decimal_ratio", lambda value: read.append(value) or ratio(value))
    return read


def exact_classes(scores, a, b):
    """The classes of scores in rank order, by exact decimal shares."""
    exact = [Fraction(repr(score)) for score in scores]
    a_cut, b_cut = Fraction(repr(a)) * sum(exact), Fraction(repr(b)) * sum(exact)
    before, classes = Fraction(0), []
    for score in exact:
        classes.append("A" if before < a_cut else "B" if before < b_cut else "C")
        before += score
    return classes


# In each, the float running sum before an item lies on one side of a
# threshold's share of the float total and the exact decimal one on the other.
@pytest.mark.parametrize("scores, a, b, classes", [
    ([0.1] * 15, 0.8, 0.95, ["A"] * 12 + ["B"] * 3),  # README's: the float sum before rank 13 is below 4/5
    ([0.35, 0.15], 0.7, 0.95, ["A", "B"]),
    ([0.95, 0.05], 0.6, 0.95, ["A", "C"]),
    ([0.45, 0.3, 0.2, 0.05], 0.9, 0.95, ["A", "A", "A", "C"]),
], ids=["fifteen-tenths", "a-cut", "b-cut", "b-cut-of-four"])
def test_a_cut_the_float_sums_cannot_tell_is_made_by_the_decimals(scores, a, b, classes, monkeypatch):
    read = decimal_ratios(monkeypatch)
    out = rank_and_cut([scored(f"P{i:02d}", s) for i, s in enumerate(scores)], a, b)
    assert [r.abc_class for r in out] == classes == exact_classes(scores, a, b)
    assert sorted(read) == sorted([a, b, *scores])  # each score's decimal was read


def test_a_wide_catalog_is_cut_without_a_decimal_per_score(monkeypatch):
    rnd = random.Random(5000)
    scores = [rnd.random() for _ in range(5000)]
    read = decimal_ratios(monkeypatch)
    out = rank_and_cut([scored(f"P{i:04d}", s) for i, s in enumerate(scores)])
    assert read == [0.80, 0.95]  # the thresholds' only
    assert [r.abc_class for r in out] == exact_classes(sorted(scores, reverse=True), 0.80, 0.95)
