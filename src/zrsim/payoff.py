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
sum over pairs.  A CP utility is a sum over the ISPs of pair terms, each
reading one ISP's (p_j, delta_j), so every term is built once per point of
its ISP's own price and discount axes and only the sum broadcasts to the
markets (see :func:`_scores`).  Market axes trail the profile axis,
innermost in memory, so elementwise operations run over rows of markets
instead of the 2-3 providers of a provider axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .market import (
    MarketConfig, StrategyMatrix, _check_dims, _lattice, allocations, profile_cells, sub_boxes
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


# U[i, k, ...] and each ISP's R[j][k, ...] (see _scores), or U[k, i] and R[k, j].
Scores = tuple[np.ndarray, list]


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
    for (block,) in sub_boxes((len(cells),), config.lattice_size * (config.n_isps + 1)):
        users[block] = allocations(config, cells[block], lattice)[2]
        zs[block], w[block] = _isp_sums(config, cells[block], users[block])
    return ProfileTable(cells, users, zs, w)


def _scores(config: MarketConfig, table: ProfileTable, p, delta) -> Scores:
    """CP utilities ``U[i, k, ...]`` and ISP revenues ``R[j][k, ...]`` of
    each profile ``k`` of ``table`` at the prices ``p[j]`` and discounts
    ``delta[j]`` of each ISP j, arrays of one rank that broadcast to the
    market shape: ``(L,)`` for a list of L markets, ``(P_0, ..., P_{M-1},
    D_0, ..., D_{M-1})`` for a box of price and discount axes.

    Each term is built once per point of its ISP's own axes.  R_j is
    linear, ``delta_j * p_j * zs + p_j * w``, and keeps that ISP's shape.
    U adds, ISP by ISP, each pair's payoff (``(q_i - delta_j p_j) X`` when
    zero-rated, ``q_i X c`` otherwise) to a zero, ``0.0 + t_0 + t_1 + ...``,
    broadcasting as the terms come in.  Below 8 ISPs that is the order in
    which numpy's ``sum`` adds a short axis, so U is the per-pair sum of
    :attr:`PayoffVector.per_pair_cp` bit for bit (from 8 terms numpy sums
    pairwise).  The same U serves the engine, :func:`payoffs` and the
    sweep's ``delta_u`` digits: a linear U rounds differently, and turns
    exact zero deltas into float noise (5.6e-17 in bandwidth_high's cell
    (0.5, 0.6))."""
    q = np.asarray(config.q)[:, None]
    u, r = 0.0, []
    for j, (p_j, delta_j) in enumerate(zip(p, delta)):
        p_j = np.asarray(p_j, dtype=float)
        dp_j = np.asarray(delta_j, dtype=float) * p_j
        pad = (...,) + (None,) * dp_j.ndim
        r.append(table.zs[:, j][pad] * dp_j + table.w[:, j][pad] * p_j)
        cells, x = table.cells[:, :, j].T[pad], table.users[:, :, j].T[pad]
        u = u + np.where(cells, (q[pad] - dp_j) * x, q[pad] * x * config.c)
    return u, r


def code_scores(config: MarketConfig, codes: Sequence[int] | np.ndarray) -> Scores:
    """:func:`_scores` of profile codes in the one market ``config``, as
    ``U[k, i]`` and ``R[k, j]``; the allocation works in blocks."""
    table = profile_table(config, profile_cells(codes, config.n_cps, config.n_isps))
    p, delta = (np.asarray(v)[:, None] for v in (config.p, config.delta))
    u, r = _scores(config, table, p, delta)
    return u[..., 0].T, np.array(r)[..., 0].T


def payoffs(config: MarketConfig, theta: StrategyMatrix) -> PayoffVector:
    """Evaluate all provider payoffs under ``theta``."""
    _check_dims(config, theta)
    table = profile_table(config, theta.as_array()[None] == 1)
    p, delta = np.asarray(config.p), np.asarray(config.delta)
    u, r = _scores(config, table, p[:, None], delta[:, None])
    cells, users = table.cells[0], table.users[0]
    q = np.asarray(config.q)[:, None]
    cp = np.where(cells, (q - delta * p) * users, q * users * config.c)
    isp = np.where(cells, delta * p * users, p * users * config.c)
    return PayoffVector(u[:, 0, 0], np.array(r)[:, 0, 0], cp, isp)
