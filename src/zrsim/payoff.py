"""CP utilities and ISP revenues under a strategy profile.

Per effective user of a (CP i, ISP j) pair: without zero-rating the CP earns
q_i and the ISP earns p_j, both discounted by the usage coefficient c (users
who pay for data consume less); with zero-rating the CP pays the discounted
bandwidth price and keeps the margin q_i - delta_j * p_j while the ISP
collects delta_j * p_j, with no usage discount.  Users of dummy providers
generate no payoff, which the effective-user table already encodes by
excluding the dummy ISP column.

An ISP's revenue is therefore linear in p_j and in delta_j * p_j, with
coefficients that read neither: the effective users of its zero-rated
pairs, and c times those of its other pairs.  A :class:`ProfileTable`
holds both column sums beside the users, so one table serves every price
cell and discount profile, and a revenue costs two products instead of a
sum over pairs.  CP utilities keep the per-pair sum (see :func:`_scores`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .market import (
    MarketConfig, StrategyMatrix, _check_dims, blocks, effective_users, profile_cells
)


@dataclass(frozen=True)
class PayoffVector:
    """Per-provider payoffs and their per-pair decomposition.

    ``per_pair_cp[i, j]`` and ``per_pair_isp[i, j]`` are the contributions
    of pair (CP i, ISP j); ``cp_utility`` sums rows and ``isp_revenue`` sums
    columns (up to rounding: revenues come from the column sums of
    :class:`ProfileTable`).
    """

    cp_utility: np.ndarray
    isp_revenue: np.ndarray
    per_pair_cp: np.ndarray
    per_pair_isp: np.ndarray


# Per-profile arrays: utilities U[k, i] and revenues R[k, j], each led by
# the market axis when there is one.
Scores = tuple[np.ndarray, np.ndarray]


class ProfileTable(NamedTuple):
    """What scoring reads of each profile ``k``, none of it priced: its
    zero-rating ``cells[k, i, j]``, its effective ``users[k, i, j]`` (see
    :func:`~zrsim.market.effective_users`) and, per ISP, the users of its
    zero-rated pairs ``zs[k, j]`` and c times those of its other pairs
    ``w[k, j]``."""

    cells: np.ndarray
    users: np.ndarray
    zs: np.ndarray
    w: np.ndarray

    def rows(self, index) -> "ProfileTable":
        """The table of the profiles ``index`` selects."""
        return ProfileTable(*(column[index] for column in self))


def profile_table(config: MarketConfig, cells: np.ndarray) -> ProfileTable:
    """The :class:`ProfileTable` of the profiles ``cells``, allocated and
    summed one block at a time, so no temporary spans the whole table."""
    users = np.empty(cells.shape)
    zs, w = np.empty((2, len(cells), config.n_isps))
    for block in blocks(len(cells), config.lattice_size * (config.n_isps + 1)):
        users[block] = x = effective_users(config, cells[block])
        zs[block] = np.where(cells[block], x, 0.0).sum(axis=1)
        w[block] = config.c * np.where(cells[block], 0.0, x).sum(axis=1)
    return ProfileTable(cells, users, zs, w)


def _pair_utilities(
    config: MarketConfig, cells: np.ndarray, users: np.ndarray, p: np.ndarray, delta: np.ndarray
) -> np.ndarray:
    """CP payoffs ``[..., k, i, j]`` of each profile's pairs at the prices
    ``p`` and discounts ``delta`` (both ``[M]``, or both ``[L, M]`` for L
    markets, which then lead the result).  ``cells`` and ``users`` are
    ``[k, i, j]``, or ``[L, k, i, j]`` when each market has profiles of its
    own."""
    q = np.asarray(config.q)[:, None]
    dp = delta[..., None, None, :] * p[..., None, None, :]
    return np.where(cells, (q - dp) * users, q * users * config.c)


def _scores(config: MarketConfig, table: ProfileTable, p, delta) -> Scores:
    """CP utilities ``U[..., k, i]`` and ISP revenues ``R[..., k, j]`` of each
    profile of ``table`` at the prices ``p`` and discounts ``delta`` (see
    :func:`_pair_utilities`).

    R is linear: ``delta * p * zs + p * w``.  U sums each profile's pair
    utilities, in blocks of profiles within BLOCK_ELEMENTS pair entries, so
    a single large market never holds its pair table.  U stays the per-pair
    sum the sweep's ``delta_u`` digits come from, so :func:`payoffs` and the
    sweep agree bit for bit: a linear U rounds differently, and turns exact
    zero deltas into float noise (5.6e-17 in bandwidth_high's cell
    (0.5, 0.6))."""
    p, delta = np.asarray(p, dtype=float), np.asarray(delta, dtype=float)
    r = (delta * p)[..., None, :] * table.zs + p[..., None, :] * table.w
    u = np.empty(p.shape[:-1] + (len(table.cells), config.n_cps))
    for block in blocks(len(table.cells), p.size * config.n_cps):
        pairs = _pair_utilities(config, table.cells[block], table.users[block], p, delta)
        u[..., block, :] = pairs.sum(axis=-1)
    return u, r


def code_scores(config: MarketConfig, codes: Sequence[int] | np.ndarray) -> Scores:
    """:func:`_scores` of profile codes at the prices and discounts of
    ``config``; the allocation and the scoring each work in blocks."""
    table = profile_table(config, profile_cells(codes, config.n_cps, config.n_isps))
    return _scores(config, table, config.p, config.delta)


def payoffs(config: MarketConfig, theta: StrategyMatrix) -> PayoffVector:
    """Evaluate all provider payoffs under ``theta``."""
    _check_dims(config, theta)
    table = profile_table(config, theta.as_array()[None] == 1)
    p, delta = np.asarray(config.p), np.asarray(config.delta)
    u, r = _scores(config, table, p, delta)
    cp = _pair_utilities(config, table.cells, table.users, p, delta)[0]
    cells, users = table.cells[0], table.users[0]
    isp = np.where(cells, delta * p * users, p * users * config.c)
    return PayoffVector(u[0], r[0], cp, isp)
