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
sum over pairs.  A CP utility is summed over the ISPs, one ISP at a time;
no table of pair payoffs is built (see :func:`_scores`).

Scores are laid out with the market axis innermost in memory, so every
elementwise operation runs over long rows of markets instead of the 2-3
providers of a trailing axis; callers see them through transposed views
with the logical shapes ``U[..., k, i]`` and ``R[..., k, j]``.  numpy lays
a product out after its operands, so R's prices enter as contiguous
``[M, L]`` arrays: their transposed views would put the ISP axis innermost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .market import (
    MarketConfig, StrategyMatrix, _check_dims, _lattice, allocations, blocks, profile_cells
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
    zero-rating ``cells[k, i, j]``, its effective ``users[k, i, j]`` (the
    ``x_effective`` of :func:`~zrsim.market.allocations`) and, per ISP, the
    users of its zero-rated pairs ``zs[k, j]`` and c times those of its
    other pairs ``w[k, j]``."""

    cells: np.ndarray
    users: np.ndarray
    zs: np.ndarray
    w: np.ndarray


def _isp_sums(config: MarketConfig, cells: np.ndarray, users: np.ndarray) -> tuple:
    """The ``zs`` and ``w`` columns of :class:`ProfileTable` for profiles
    ``cells`` with effective ``users``."""
    zs = np.where(cells, users, 0.0).sum(axis=1)
    return zs, config.c * np.where(cells, 0.0, users).sum(axis=1)


def profile_table(config: MarketConfig, cells: np.ndarray) -> ProfileTable:
    """The :class:`ProfileTable` of the profiles ``cells``, in one pass over
    blocks within ``BLOCK_ELEMENTS`` allocation shares that allocates each
    block and sums its ISP columns, so no temporary spans the whole table;
    the price-free lattice is built once for all blocks."""
    users = np.empty(cells.shape)
    zs, w = np.empty((2, len(cells), config.n_isps))
    lattice = _lattice(config)
    for block in blocks(len(cells), config.lattice_size * (config.n_isps + 1)):
        users[block] = allocations(config, cells[block], lattice)[2]
        zs[block], w[block] = _isp_sums(config, cells[block], users[block])
    return ProfileTable(cells, users, zs, w)


def _scores(config: MarketConfig, table: ProfileTable, p, delta) -> Scores:
    """CP utilities ``U[l, k, i]`` and ISP revenues ``R[l, k, j]`` of each
    profile of ``table`` in each of L markets, at the prices ``p[l]`` and
    discounts ``delta[l]`` (both ``[L, M]``).

    Both are computed as arrays ``(N, K, L)`` and ``(M, K, L)``, markets
    innermost in memory (see the module notes), and returned as transposed
    views.  R is linear:
    ``delta * p * zs + p * w``.  U adds, ISP by ISP, each pair's payoff
    (``(q_i - delta_j p_j) X`` when zero-rated, ``q_i X c`` otherwise) to a
    zeroed accumulator, ``0.0 + t_0 + t_1 + ...``.  Below 8 ISPs that is
    the order in which numpy's ``sum`` adds a short axis, so U is the
    per-pair sum of :attr:`PayoffVector.per_pair_cp` bit for bit (from 8
    terms numpy sums pairwise).  The same U serves the engine,
    :func:`payoffs` and the sweep's ``delta_u`` digits: a linear U rounds
    differently, and turns exact zero deltas into float noise (5.6e-17 in
    bandwidth_high's cell (0.5, 0.6))."""
    p, delta = np.asarray(p, dtype=float), np.asarray(delta, dtype=float)
    # Markets last: [M, L].
    p, dp = (np.ascontiguousarray(a.T) for a in (p, delta * p))
    r = dp[:, None] * table.zs.T[..., None] + p[:, None] * table.w.T[..., None]
    q = np.asarray(config.q)[:, None, None]
    u = np.zeros((config.n_cps, len(table.cells), p.shape[1]))
    for dp_j, cells, x in zip(dp, table.cells.T[..., None], table.users.T[..., None]):
        u += np.where(cells, (q - dp_j) * x, q * x * config.c)
    return u.T, r.T


def code_scores(config: MarketConfig, codes: Sequence[int] | np.ndarray) -> Scores:
    """:func:`_scores` of profile codes in the one market ``config``; the
    allocation works in blocks."""
    table = profile_table(config, profile_cells(codes, config.n_cps, config.n_isps))
    u, r = _scores(config, table, [config.p], [config.delta])
    return u[0], r[0]


def payoffs(config: MarketConfig, theta: StrategyMatrix) -> PayoffVector:
    """Evaluate all provider payoffs under ``theta``."""
    _check_dims(config, theta)
    table = profile_table(config, theta.as_array()[None] == 1)
    p, delta = np.asarray(config.p), np.asarray(config.delta)
    u, r = _scores(config, table, [p], [delta])
    cells, users = table.cells[0], table.users[0]
    q = np.asarray(config.q)[:, None]
    cp = np.where(cells, (q - delta * p) * users, q * users * config.c)
    isp = np.where(cells, delta * p * users, p * users * config.c)
    return PayoffVector(u[0, 0], r[0, 0], cp, isp)
