"""Product scoring, descending ranking, and ABC class cuts.

Products are scored on three criteria: sales revenue, the quantity-price
ratio, and the urgency flag. Each criterion is min-max normalized across
the product set so the weighted sum stays in [0, 1], then products are
ranked descending and cut into A/B/C classes by cumulative score share.
Class A is the strategic sample everything downstream focuses on. The
cut is found binary first, decimal where the binary margin does not clear.
"""

import math
from bisect import bisect_left
from collections import namedtuple
from itertools import accumulate, repeat
from operator import add, attrgetter, mul, sub, truediv

from .dimensioning import _decimal_ratio, _exact
from .ingestion import _Checked

DEFAULT_A_THRESHOLD = 0.80
DEFAULT_B_THRESHOLD = 0.95


class CriteriaWeights(_Checked, namedtuple("CriteriaWeights", "w_revenue w_ratio w_urgency",
                                           defaults=(0.5, 0.3, 0.2))):
    """Relative importance of revenue, quantity-price ratio, and urgency."""

    __slots__ = ()

    def _check(self):
        for name, weight in zip(self._fields, self):
            if not (math.isfinite(weight) and weight >= 0):
                raise ValueError(f"criteria weight {name} must be finite and non-negative, got {weight}")
        # The exact sum of the decimals the weights read: (0.5, 0.3, 0.2000000001) is not 1.
        if sum(map(_exact, self)) != 1:
            raise ValueError("criteria weights must sum to 1, got {} + {} + {}".format(*self))


DEFAULT_WEIGHTS = CriteriaWeights()


ScoredProduct = namedtuple("ScoredProduct", "product_id revenue qty_price_ratio urgency score")
ClassificationResult = namedtuple(
    "ClassificationResult", "product_id revenue qty_price_ratio score rank cumulative_share abc_class strategic")


def _min_max(values):
    """Normalize to [0, 1]; a constant criterion discriminates nothing and maps to 0."""
    lo, hi = min(values), max(values)
    if hi == lo:
        return [0.0] * len(values)
    return [*map(truediv, map(sub, values, repeat(lo)), repeat(hi - lo))]


def score_products(boxes_by_product, catalog, weights: CriteriaWeights = DEFAULT_WEIGHTS):
    """Score every product by its boxes delivered over the history window against the weighted criteria.

    `catalog` maps product_id to CatalogEntry. Revenue is total delivered
    boxes times unit price; the quantity-price ratio is total boxes
    divided by unit price. Returns one ScoredProduct per input product,
    in product_id order. Each criterion is a column over all products.
    """
    if not boxes_by_product:
        raise ValueError("cannot score an empty product set")
    pids = sorted(boxes_by_product)
    if missing := [pid for pid in pids if pid not in catalog]:
        raise ValueError(f"no catalog entry for product {missing[0]!r}")
    entries, boxes = [*map(catalog.__getitem__, pids)], [*map(boxes_by_product.__getitem__, pids)]
    prices, urgencies = [entry.unit_price for entry in entries], [float(entry.urgency) for entry in entries]
    revenues, ratios = [*map(mul, boxes, prices)], [*map(truediv, boxes, prices)]
    r, q, u = _min_max(revenues), _min_max(ratios), _min_max(urgencies)
    scores = map(add, map(add, map(mul, repeat(weights.w_revenue), r), map(mul, repeat(weights.w_ratio), q)),
                 map(mul, repeat(weights.w_urgency), u))
    return [*map(tuple.__new__, repeat(ScoredProduct), zip(pids, revenues, ratios, map(int, urgencies), scores))]


def _units(value: float) -> int:
    """`value` in units of 2**-1074, of which every float is a whole number."""
    numerator, denominator = value.as_integer_ratio()
    return numerator << 1075 - denominator.bit_length()


def _class_sizes(scores, cumulative, thresholds):
    """For each threshold p/q, how many ranked items have an exact decimal share before them below p/q.

    Binary first: a score's decimal is within 2**-53 times it plus 2**-1075 of it, and a float sum within
    n * 2**-53 / (1 - n * 2**-53) times its exact value of it. So (n below 2**51) where the float sum before
    an item is further than twice (n + 1) * 2**-52 times the float total plus n * 2**-1075 from p/q of the
    float total, the decimals put it on the same side. Decimal where that margin does not clear.
    """
    n, total, sizes = len(cumulative), cumulative[-1], []
    if isinstance(cumulative[0], float) and math.isfinite(total):  # else a sum may not be a float
        before, total = [0.0, *cumulative[:-1]], _units(total)
        for p, q in thresholds:
            size = bisect_left(before, p * total, key=lambda running: _units(running) * q)
            if all(abs(_units(running) * q - p * total) << 52 > q * (total * (2 * n + 2) + (n << 52))
                   for running in before[max(size - 1, 0) : size + 1]):
                sizes.append(size)
    if len(sizes) == len(thresholds):
        return sizes
    ratios = [*map(_decimal_ratio, scores)]
    scale = math.lcm(*(d for _, d in ratios))
    before = [*accumulate((units * (scale // d) for units, d in ratios), initial=0)]
    return [bisect_left(before, -(-p * before[-1] // q), hi=n) for p, q in thresholds]


def rank_and_cut(scored, a_threshold: float = DEFAULT_A_THRESHOLD, b_threshold: float = DEFAULT_B_THRESHOLD):
    """Rank scored products descending and cut A/B/C classes.

    Class A is the minimal ranked prefix whose cumulative score share
    reaches a_threshold; class B extends the prefix to b_threshold; the
    remainder is C. Ties are broken by revenue descending then
    product_id ascending so runs are reproducible bit for bit.
    """
    if not 0 < a_threshold <= b_threshold <= 1:
        raise ValueError(f"need 0 < a_threshold <= b_threshold <= 1, got {a_threshold}, {b_threshold}")
    if not scored:
        raise ValueError("cannot rank an empty product set")
    for item in scored:
        if not math.isfinite(item.score) or item.score < 0:
            raise ValueError(f"{item.product_id}: score must be finite and >= 0, got {item.score}")

    ordered = sorted(scored, key=attrgetter("product_id"))  # then stable sorts: score, revenue descending, id
    ordered.sort(key=attrgetter("revenue"), reverse=True)
    ordered.sort(key=attrgetter("score"), reverse=True)
    scores = [s.score for s in ordered]
    cumulative = list(accumulate(scores))  # left to right, as `sum` added before Python 3.12
    total = cumulative[-1]  # so the last cumulative_share is 1.0
    if total == 0:
        raise ValueError("no discriminating criterion: every product scored 0")
    # The class is chosen exactly: each score and threshold is the decimal its text reads (0.8 is 4/5). The
    # class of an item depends on the share accumulated *before* it: the item that first pushes the share past
    # a threshold still belongs to the class below it (minimal-prefix rule). `cumulative_share` stays a float.
    thresholds = [*map(_decimal_ratio, (a_threshold, b_threshold))]
    a_size, b_size = _class_sizes(scores, cumulative, thresholds)
    classes = ["A"] * a_size + ["B"] * (b_size - a_size) + ["C"] * (len(ordered) - b_size)
    return [tuple.__new__(ClassificationResult, (item.product_id, item.revenue, item.qty_price_ratio, item.score,
                                                 rank, running / total, abc, abc == "A"))
            for rank, (item, running, abc) in enumerate(zip(ordered, cumulative, classes), start=1)]
