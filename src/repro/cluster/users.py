"""User population model.

Activity across users of a production cluster is heavily skewed — a few
users submit most jobs (the basis of the "frequent user" tier, Sec. III-E)
— so users draw their activity weights from a Zipf-like law.  A fraction
of the population is flagged *new*: users who joined during the trace
window, whose behaviour the SuperCloud/Philly case studies repeatedly
single out (new users → 0 % SM util, kills, failures).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["UserProfile", "UserPopulation"]


@dataclass(frozen=True, slots=True)
class UserProfile:
    """One user: identity, activity weight, tenure."""

    name: str
    weight: float
    is_new: bool


class UserPopulation:
    """A fixed set of users with a skewed submission-weight distribution."""

    def __init__(
        self,
        n_users: int,
        new_user_fraction: float = 0.15,
        zipf_exponent: float = 1.1,
        seed: int = 0,
        name_prefix: str = "user",
        new_user_weight_damp: float = 0.3,
    ):
        if n_users < 1:
            raise ValueError("n_users must be >= 1")
        if not 0.0 <= new_user_fraction <= 1.0:
            raise ValueError("new_user_fraction must be in [0, 1]")
        if new_user_weight_damp < 0:
            raise ValueError("new_user_weight_damp must be >= 0")
        rng = np.random.default_rng(seed)
        ranks = np.arange(1, n_users + 1, dtype=np.float64)
        weights = ranks ** (-zipf_exponent)
        weights /= weights.sum()
        is_new = rng.random(n_users) < new_user_fraction
        # the heaviest submitters have by definition been around a while —
        # exclude the top decile from being new, then damp the rest
        is_new[: max(1, n_users // 10)] = False
        weights = np.where(is_new, weights * new_user_weight_damp, weights)
        weights /= weights.sum()
        self.users = [
            UserProfile(f"{name_prefix}{i:04d}", float(weights[i]), bool(is_new[i]))
            for i in range(n_users)
        ]
        self._weights = weights
        self._rng = rng

    def __len__(self) -> int:
        return len(self.users)

    def sample_indices(
        self, n: int, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """Draw *n* user indices (with replacement) proportionally to weight.

        The columnar generators keep these as integer codes into
        ``self.users`` instead of materialising profile objects.
        """
        r = rng if rng is not None else self._rng
        return r.choice(len(self.users), size=n, p=self._weights)

    def sample(self, n: int, rng: np.random.Generator | None = None) -> list[UserProfile]:
        """Draw *n* users (with replacement) proportionally to weight."""
        return [self.users[i] for i in self.sample_indices(n, rng)]
