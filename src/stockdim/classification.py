"""Product scoring, descending ranking, and ABC class cuts.

Products are scored on three criteria: sales revenue, the quantity-price
ratio, and the urgency flag. Each criterion is min-max normalized across
the product set so the weighted sum stays in [0, 1], then products are
ranked descending and cut into A/B/C classes by cumulative score share.
Class A is the strategic sample everything downstream focuses on.
"""

import math
from collections import namedtuple
from itertools import accumulate
from typing import NamedTuple

from .dimensioning import _decimal_ratio, _exact

DEFAULT_A_THRESHOLD = 0.80
DEFAULT_B_THRESHOLD = 0.95


class CriteriaWeights(namedtuple("CriteriaWeights", "w_revenue w_ratio w_urgency", defaults=(0.5, 0.3, 0.2))):
    """Relative importance of revenue, quantity-price ratio, and urgency."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, weight in zip(self._fields, self):
            if not (math.isfinite(weight) and weight >= 0):
                raise ValueError(f"criteria weight {name} must be finite and non-negative, got {weight}")
        # The exact sum of the decimals the weights read: (0.5, 0.3, 0.2000000001) is not 1.
        if sum(map(_exact, self)) != 1:
            raise ValueError("criteria weights must sum to 1, got {} + {} + {}".format(*self))
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))


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


def score_products(boxes_by_product, catalog, weights: CriteriaWeights = DEFAULT_WEIGHTS):
    """Score every product by its boxes delivered over the history window against the weighted criteria.

    `catalog` maps product_id to CatalogEntry. Revenue is total delivered
    boxes times unit price; the quantity-price ratio is total boxes
    divided by unit price. Returns one ScoredProduct per input product,
    in product_id order.
    """
    if not boxes_by_product:
        raise ValueError("cannot score an empty product set")
    pids = sorted(boxes_by_product)
    revenues, ratios, urgencies = [], [], []
    for pid in pids:
        if pid not in catalog:
            raise ValueError(f"no catalog entry for product {pid!r}")
        entry, boxes = catalog[pid], boxes_by_product[pid]
        revenues.append(boxes * entry.unit_price)
        ratios.append(boxes / entry.unit_price)
        urgencies.append(float(entry.urgency))
    norms = zip(_min_max(revenues), _min_max(ratios), _min_max(urgencies))
    return [ScoredProduct(pid, revenue, ratio, int(urgency),
                          weights.w_revenue * r + weights.w_ratio * q + weights.w_urgency * u)
            for pid, revenue, ratio, urgency, (r, q, u) in zip(pids, revenues, ratios, urgencies, norms)]


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
    cumulative = list(accumulate(s.score for s in ordered))  # left to right, as `sum` added before Python 3.12
    total = cumulative[-1]  # so the last cumulative_share is 1.0
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
    a_units, b_units = (-(-n * total_units // d) for n, d in map(_decimal_ratio, (a_threshold, b_threshold)))

    results = []
    before = 0
    for rank, (item, unit, running) in enumerate(zip(ordered, units, cumulative), start=1):
        # The class of an item depends on the share accumulated *before* it:
        # the item that first pushes the share past a threshold still
        # belongs to the class below that threshold (minimal-prefix rule).
        abc = "A" if before < a_units else "B" if before < b_units else "C"
        before += unit
        results.append(ClassificationResult(item.product_id, item.revenue, item.qty_price_ratio, item.score, rank,
                                            running / total, abc, abc == "A"))
    return results
