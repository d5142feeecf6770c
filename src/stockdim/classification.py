"""Product scoring, descending ranking, and ABC class cuts.

Products are scored on three criteria: sales revenue, the quantity-price
ratio, and the urgency flag. Each criterion is min-max normalized across
the product set so the weighted sum stays in [0, 1], then products are
ranked descending and cut into A/B/C classes by cumulative score share.
Class A is the strategic sample everything downstream focuses on.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from .dimensioning import _decimal_ratio, _exact

DEFAULT_A_THRESHOLD = 0.80
DEFAULT_B_THRESHOLD = 0.95


@dataclass(frozen=True)
class CriteriaWeights:
    """Relative importance of revenue, quantity-price ratio, and urgency."""

    w_revenue: float = 0.5
    w_ratio: float = 0.3
    w_urgency: float = 0.2

    def __post_init__(self):
        for name, weight in vars(self).items():
            if not (math.isfinite(weight) and weight >= 0):
                raise ValueError(f"criteria weight {name} must be finite and non-negative, got {weight}")
        # The exact sum of the decimals the weights read: (0.5, 0.3, 0.2000000001) is not 1.
        if sum(map(_exact, vars(self).values())) != 1:
            raise ValueError(
                f"criteria weights must sum to 1, got {self.w_revenue} + {self.w_ratio} + {self.w_urgency}")


DEFAULT_WEIGHTS = CriteriaWeights()


class ScoredProduct(NamedTuple):
    product_id: str
    revenue: float
    qty_price_ratio: float
    urgency: int
    score: float


class ClassificationResult(NamedTuple):
    product_id: str
    revenue: float
    qty_price_ratio: float
    score: float
    rank: int
    cumulative_share: float
    abc_class: str
    strategic: bool


def _min_max(values):
    """Normalize to [0, 1]; a constant criterion discriminates nothing and maps to 0."""
    lo, hi = min(values), max(values)
    if hi == lo:
        return [0.0] * len(values)
    return [(v - lo) / (hi - lo) for v in values]


def score_products(series_by_product, catalog, weights: CriteriaWeights = DEFAULT_WEIGHTS):
    """Score every product with a series against the weighted criteria.

    `catalog` maps product_id to CatalogEntry. Revenue is total delivered
    boxes times unit price over the whole history window; the quantity-
    price ratio is total boxes divided by unit price. Returns one
    ScoredProduct per input product, in product_id order.
    """
    if not series_by_product:
        raise ValueError("cannot score an empty product set")
    pids = sorted(series_by_product)
    revenues, ratios, urgencies = [], [], []
    for pid in pids:
        if pid not in catalog:
            raise ValueError(f"no catalog entry for product {pid!r}")
        entry = catalog[pid]
        boxes = sum(series_by_product[pid].values)
        revenues.append(boxes * entry.unit_price)
        ratios.append(boxes / entry.unit_price)
        urgencies.append(float(entry.urgency))

    norm_rev = _min_max(revenues)
    norm_ratio = _min_max(ratios)
    norm_urg = _min_max(urgencies)
    scored = []
    for i, pid in enumerate(pids):
        score = (
            weights.w_revenue * norm_rev[i]
            + weights.w_ratio * norm_ratio[i]
            + weights.w_urgency * norm_urg[i]
        )
        scored.append(ScoredProduct(pid, revenues[i], ratios[i], int(urgencies[i]), score))
    return scored


def rank_and_cut(
    scored,
    a_threshold: float = DEFAULT_A_THRESHOLD,
    b_threshold: float = DEFAULT_B_THRESHOLD,
):
    """Rank scored products descending and cut A/B/C classes.

    Class A is the minimal ranked prefix whose cumulative score share
    reaches a_threshold; class B extends the prefix to b_threshold; the
    remainder is C. Ties are broken by revenue descending then
    product_id ascending so runs are reproducible bit for bit.
    """
    if not 0 < a_threshold <= b_threshold <= 1:
        raise ValueError(
            f"need 0 < a_threshold <= b_threshold <= 1, got {a_threshold}, {b_threshold}"
        )
    if not scored:
        raise ValueError("cannot rank an empty product set")
    for item in scored:
        if not math.isfinite(item.score) or item.score < 0:
            raise ValueError(f"{item.product_id}: score must be finite and >= 0, got {item.score}")

    ordered = sorted(scored, key=lambda s: (-s.score, -s.revenue, s.product_id))
    total = sum(s.score for s in ordered)
    if total == 0:
        raise ValueError("no discriminating criterion: every product scored 0")
    # The class is chosen exactly: each score and threshold is the decimal
    # its text reads (0.8 is 4/5, not the float just above it), and over a
    # common denominator each score is an integer number of units. Being
    # below a share p/q of the total is being below ceil(p * total / q)
    # units. `cumulative_share` keeps the float running share.
    ratios = [_decimal_ratio(s.score) for s in ordered]
    scale = math.lcm(*(d for _, d in ratios))
    units = [n * (scale // d) for n, d in ratios]
    total_units = sum(units)
    a_units, b_units = (
        -(-t.numerator * total_units // t.denominator) for t in map(_exact, (a_threshold, b_threshold))
    )

    results = []
    running = 0.0
    before = 0
    for rank, (item, unit) in enumerate(zip(ordered, units), start=1):
        # The class of an item depends on the share accumulated *before* it:
        # the item that first pushes the share past a threshold still
        # belongs to the class below that threshold (minimal-prefix rule).
        if before < a_units:
            abc = "A"
        elif before < b_units:
            abc = "B"
        else:
            abc = "C"
        before += unit
        running += item.score
        results.append(
            ClassificationResult(
                product_id=item.product_id,
                revenue=item.revenue,
                qty_price_ratio=item.qty_price_ratio,
                score=item.score,
                rank=rank,
                cumulative_share=running / total,
                abc_class=abc,
                strategic=abc == "A",
            )
        )
    return results
