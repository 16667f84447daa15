"""Profit-based objective: build out only to the point of profitability.

The paper's alternative formulation (Section 2.2): "a profit-based formulation
seeks to build a network that satisfies demand only up to the point of
profitability — that is, economically speaking where marginal revenue meets
marginal cost."  This module models the per-customer revenue that the ISP
generator's profit objective weighs against the cost of connecting each
customer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class RevenueModel:
    """Revenue earned from a connected customer.

    Revenue has a flat subscription component plus a volume component, with
    diminishing per-unit price above a volume threshold (bulk customers
    negotiate discounts).

    Attributes:
        subscription: Flat revenue per connected customer.
        price_per_unit: Revenue per unit of demand up to ``discount_threshold``.
        discount_threshold: Demand volume above which the discounted price applies.
        discounted_price_per_unit: Revenue per unit of demand beyond the threshold.
    """

    subscription: float = 10.0
    price_per_unit: float = 1.0
    discount_threshold: float = float("inf")
    discounted_price_per_unit: float = 0.5

    def __post_init__(self) -> None:
        if self.subscription < 0 or self.price_per_unit < 0 or self.discounted_price_per_unit < 0:
            raise ValueError("revenue components must be non-negative")
        if self.discount_threshold <= 0:
            raise ValueError("discount_threshold must be positive")

    def revenue_for_demand(self, demand: float) -> float:
        """Revenue earned by serving a customer with the given demand."""
        if demand < 0:
            raise ValueError(f"demand must be non-negative, got {demand}")
        if demand <= self.discount_threshold:
            volume_revenue = demand * self.price_per_unit
        else:
            volume_revenue = (
                self.discount_threshold * self.price_per_unit
                + (demand - self.discount_threshold) * self.discounted_price_per_unit
            )
        return self.subscription + volume_revenue

    def revenue_for_demands(self, demands: Sequence[float]) -> float:
        """Total revenue over a demand column in one pass.

        The array-pipeline companion of :meth:`revenue_for_demand`: pricing a
        routed demand matrix (one volume per pair, e.g.
        ``CompiledDemand.volumes``) charges the whole column without a Python
        call per customer.  Below the discount threshold the tariff is affine,
        so the column reduces to ``count * subscription + sum * price``;
        discounted volumes fall back to the scalar rule.
        """
        total_volume = 0.0
        discounted = 0.0
        count = 0
        threshold = self.discount_threshold
        for demand in demands:
            if demand < 0:
                raise ValueError(f"demand must be non-negative, got {demand}")
            if demand > threshold:
                discounted += self.revenue_for_demand(demand)
            else:
                total_volume += demand
                count += 1
        return count * self.subscription + total_volume * self.price_per_unit + discounted
