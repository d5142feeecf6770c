import random

import pytest

from stockdim.classification import (
    CriteriaWeights,
    ScoredProduct,
    rank_and_cut,
    score_products,
)
from stockdim.ingestion import CatalogEntry, MonthlySeries


def series_with_total(pid, total):
    return MonthlySeries(pid, 2020, (total,) + (0,) * 11)


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
    series = {"A": series_with_total("A", 100), "B": series_with_total("B", 300)}
    catalog = {"A": entry("A", 1.0), "B": entry("B", 1.0)}
    out = {s.product_id: s.score for s in score_products(series, catalog, CriteriaWeights(1, 0, 0))}
    assert out == {"A": 0.0, "B": 1.0}


def test_urgency_only_weights():
    series = {"A": series_with_total("A", 10), "B": series_with_total("B", 10)}
    catalog = {"A": entry("A", 1.0, urgency=1), "B": entry("B", 1.0, urgency=0)}
    out = {s.product_id: s.score for s in score_products(series, catalog, CriteriaWeights(0, 0, 1))}
    assert out == {"A": 1.0, "B": 0.0}


def test_four_product_normalization_table():
    # Hand-computed oracle. Totals/prices give:
    #   revenue: A 200, B 300, C 400, D 100 -> normalized (r-100)/300
    #   ratio:   A 50,  B 300, C 6.25, D 4  -> normalized (q-4)/296
    #   urgency: only B -> B 1, others 0
    series = {
        "A": series_with_total("A", 100),
        "B": series_with_total("B", 300),
        "C": series_with_total("C", 50),
        "D": series_with_total("D", 20),
    }
    catalog = {
        "A": entry("A", 2.0),
        "B": entry("B", 1.0, urgency=1),
        "C": entry("C", 8.0),
        "D": entry("D", 5.0),
    }
    out = {s.product_id: s for s in score_products(series, catalog, CriteriaWeights(0.5, 0.3, 0.2))}
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
    series = {"A": series_with_total("A", 10), "B": series_with_total("B", 10)}
    catalog = {"A": entry("A", 1.0), "B": entry("B", 1.0)}
    out = score_products(series, catalog, CriteriaWeights(0.5, 0.3, 0.2))
    assert all(s.score == 0.0 for s in out)


def test_empty_product_set_rejected():
    with pytest.raises(ValueError, match="empty product set"):
        score_products({}, {}, CriteriaWeights())


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
