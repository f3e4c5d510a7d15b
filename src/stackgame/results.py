"""Result records shared by the three penalty-search modules."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class PenaltySearchResult:
    """Minimal penalty rate with the payoff comparison certifying deterrence."""

    k_min: float
    j_star: float
    j_tilde_at_k: float
    deterred: bool
    details: dict[str, Any] = field(default_factory=dict)
