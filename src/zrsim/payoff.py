"""CP utilities and ISP revenues under a strategy profile.

Per effective user of a (CP i, ISP j) pair: without zero-rating the CP earns
q_i and the ISP earns p_j, both discounted by the usage coefficient c (users
who pay for data consume less); with zero-rating the CP pays the discounted
bandwidth price and keeps the margin q_i - delta_j * p_j while the ISP
collects delta_j * p_j, with no usage discount.  Users of dummy providers
generate no payoff, which the effective-user table already encodes by
excluding the dummy ISP column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .market import (
    MarketConfig, StrategyMatrix, _check_dims, blocks, effective_users, profile_cells
)


@dataclass(frozen=True)
class PayoffVector:
    """Per-provider payoffs and their per-pair decomposition.

    ``per_pair_cp[i, j]`` and ``per_pair_isp[i, j]`` are the contributions
    of pair (CP i, ISP j); ``cp_utility`` sums rows and ``isp_revenue`` sums
    columns.
    """

    cp_utility: np.ndarray
    isp_revenue: np.ndarray
    per_pair_cp: np.ndarray
    per_pair_isp: np.ndarray


# Per-profile arrays: (CP, ISP) pair payoffs, or utilities U[k, i] and
# revenues R[k, j], each led by the market axis when there is one.
Scores = tuple[np.ndarray, np.ndarray]


def _pair_payoffs(
    config: MarketConfig, cells: np.ndarray, users: np.ndarray, p: np.ndarray, delta: np.ndarray
) -> Scores:
    """CP and ISP payoffs ``[..., k, i, j]`` of each profile's pairs at the
    prices ``p`` and discounts ``delta`` (both ``[M]``, or both ``[L, M]``
    for L markets, which then lead the result).  ``cells`` and ``users``
    are ``[k, i, j]``, or ``[L, k, i, j]`` when each market has profiles of
    its own."""
    q = np.asarray(config.q)[:, None]
    p = p[..., None, None, :]
    dp = delta[..., None, None, :] * p
    per_pair_cp = np.where(cells, (q - dp) * users, q * users * config.c)
    per_pair_isp = np.where(cells, dp * users, p * users * config.c)
    return per_pair_cp, per_pair_isp


def _scores(config: MarketConfig, cells: np.ndarray, users: np.ndarray, p, delta) -> Scores:
    """CP utilities ``U[..., k, i]`` and ISP revenues ``R[..., k, j]`` of each
    profile, given its effective users (see
    :func:`~zrsim.market.effective_users`), at the prices ``p`` and discounts
    ``delta`` (see :func:`_pair_payoffs`), in blocks of profiles within
    BLOCK_ELEMENTS pair entries, so a single large market never holds its
    pair table."""
    p, delta = np.asarray(p, dtype=float), np.asarray(delta, dtype=float)
    n, m = config.n_cps, config.n_isps
    u = np.empty(p.shape[:-1] + (len(cells), n))
    r = np.empty(p.shape[:-1] + (len(cells), m))
    for block in blocks(len(cells), p.size * n):
        cp, isp = _pair_payoffs(config, cells[block], users[block], p, delta)
        u[..., block, :], r[..., block, :] = cp.sum(axis=-1), isp.sum(axis=-2)
    return u, r


def code_scores(config: MarketConfig, codes: Sequence[int] | np.ndarray) -> Scores:
    """:func:`_scores` of profile codes at the prices and discounts of
    ``config``; the allocation and the scoring each work in blocks."""
    cells = profile_cells(codes, config.n_cps, config.n_isps)
    return _scores(config, cells, effective_users(config, cells), config.p, config.delta)


def payoffs(config: MarketConfig, theta: StrategyMatrix) -> PayoffVector:
    """Evaluate all provider payoffs under ``theta``."""
    _check_dims(config, theta)
    cells = theta.as_array()[None] == 1
    users = effective_users(config, cells)
    p, delta = np.asarray(config.p), np.asarray(config.delta)
    cp, isp = _pair_payoffs(config, cells, users, p, delta)
    return PayoffVector(cp.sum(axis=2)[0], isp.sum(axis=1)[0], cp[0], isp[0])
