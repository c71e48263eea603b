"""Market structure and user allocation.

A market has N actual content providers (CPs) and M actual Internet service
providers (ISPs). Users pick exactly one ISP and any subset of CPs, so the
choice space is modeled with

* a dummy ISP (index 0) absorbing users with no real ISP,
* a dummy CP (subset mask 0) absorbing users with no real CP, and
* one auxiliary CP per non-empty subset of actual CPs.

Auxiliary CPs are indexed by bitmask: bit ``i`` set means actual CP ``i``
(0-based) is part of the bundle.  Baseline shares ``phi`` live on the full
2**N lattice and ``psi`` on the M+1 ISP axis; both sum to one.

Zero-rating relations are stored only for actual CP x actual ISP pairs; a
profile's integer code is :meth:`StrategyMatrix.encoding`, so flipping one
cell is ``code ^ cell_bit(i, j, N, M)``.  Allocations are computed for
batches of profiles, of one market or of several markets of one shape
(``_rho``): relations extend to the lattice (an auxiliary CP is
zero-rated with an ISP iff every actual CP in the bundle is; dummies never
are), the elastic fraction ``alpha`` of users chooses among zero-rated pairs
(all pairs when none exist) proportionally to baseline shares, and the
sticky remainder stays on baseline shares.  The allocation reads neither
prices nor discounts, so one table of effective users serves every price
cell and discount profile of a scenario.  Every sum over the bundle
lattice (``x_effective``, :func:`cp_totals`) is taken here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, InvalidArgument

SHARE_TOL = 1e-12
# Array entries computed per block.  A block of B profiles holds
# B x 2**N x (M + 1) allocation shares, and a block of L markets (price
# cells times discount profiles) the L x K x N utilities of its K profiles
# (revenues span only their ISP's own axes), so this caps the working memory
# of scoring at any market size; block sizes follow from it.  Against 2**14
# and 2**18 (2 cores, Python 3.11, numpy 2.4; medians of 15 warm sweeps taken
# in turn, and the peak RSS a fresh process adds): the 125-cell 3 x 3 sweep
# of the wide-market benchmark takes 12.2-12.4 ms, against 17.0-17.5 and
# 11.6-11.8 ms; the discount-duopoly sweep 2.2-2.3 ms, against 3.5-3.8 and
# 2.2-2.3 ms; one 3 x 3 discount cell takes 0.09 s and adds 3.4 MB, against
# 0.23 s and 2.9 MB and 0.06 s and 5.5 MB; one 4 x 4 enumerate_zre adds
# 27.7 MB at all three sizes.
BLOCK_ELEMENTS = 1 << 16


def _as_float_tuple(values: Sequence[float]) -> tuple[float, ...]:
    return tuple(map(float, values))


@dataclass(frozen=True)
class MarketConfig:
    """Full exogenous parameterization of one market instance.

    Attributes:
        n_cps: number of actual CPs (>= 1).
        n_isps: number of actual ISPs (>= 1).
        alpha: elastic user fraction, in [0, 1].
        c: bandwidth usage coefficient for non-zero-rated data, in (0, 1].
        q: per-bandwidth revenue of each actual CP, each in [0, 1].
        p: per-bandwidth price of each actual ISP, each in [0, 1].
        delta: price discount of each actual ISP, each in [0, 1].
        phi: baseline share of every auxiliary CP, indexed by subset mask
            (mask 0 = dummy CP); length 2**n_cps, entries in (0, 1], sums to 1.
        psi: baseline share of every ISP including the dummy at index 0;
            length n_isps + 1, entries in (0, 1], sums to 1.
        total_users: market size, positive and finite; defaults to 1 so
            allocations read as shares.
    """

    n_cps: int
    n_isps: int
    alpha: float
    c: float
    q: tuple[float, ...]
    p: tuple[float, ...]
    delta: tuple[float, ...]
    phi: tuple[float, ...]
    psi: tuple[float, ...]
    total_users: float = 1.0

    def __post_init__(self) -> None:
        for name in ("q", "p", "delta", "phi", "psi"):
            object.__setattr__(self, name, _as_float_tuple(getattr(self, name)))
        for name in ("alpha", "c", "total_users"):
            object.__setattr__(self, name, float(getattr(self, name)))
        self._validate()

    def _validate(self) -> None:
        if not isinstance(self.n_cps, int) or isinstance(self.n_cps, bool) or self.n_cps < 1:
            raise ConfigError(f"n_cps must be an integer >= 1, got {self.n_cps!r}")
        if not isinstance(self.n_isps, int) or isinstance(self.n_isps, bool) or self.n_isps < 1:
            raise ConfigError(f"n_isps must be an integer >= 1, got {self.n_isps!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not 0.0 < self.c <= 1.0:
            raise ConfigError(f"c must lie in (0, 1], got {self.c}")
        if not 0.0 < self.total_users < math.inf:
            raise ConfigError(f"total_users must be positive and finite, got {self.total_users}")
        if len(self.q) != self.n_cps:
            raise ConfigError(f"q must have length {self.n_cps}, got {len(self.q)}")
        check_unit_interval("q", self.q)
        self._check_cell(self.p, self.delta)
        if len(self.phi) != self.lattice_size:
            raise ConfigError(
                f"phi must have length 2**n_cps = {self.lattice_size}, got {len(self.phi)}"
            )
        if len(self.psi) != self.n_isps + 1:
            raise ConfigError(
                f"psi must have length n_isps + 1 = {self.n_isps + 1}, got {len(self.psi)}"
            )
        for name, vec in (("phi", self.phi), ("psi", self.psi)):
            for k, v in enumerate(vec):
                if not 0.0 < v <= 1.0:
                    raise ConfigError(f"{name}[{k}] must lie in (0, 1], got {v}")
            total = sum(vec)
            if abs(total - 1.0) > SHARE_TOL:
                raise ConfigError(f"{name} must sum to 1 within {SHARE_TOL}, got {total!r}")

    @property
    def lattice_size(self) -> int:
        """Number of auxiliary CP nodes, dummy included."""
        return 1 << self.n_cps

    def _check_cell(self, p: tuple[float, ...], delta: tuple[float, ...]) -> None:
        if len(p) != self.n_isps:
            raise ConfigError(f"p must have length {self.n_isps}, got {len(p)}")
        if len(delta) != self.n_isps:
            raise ConfigError(f"delta must have length {self.n_isps}, got {len(delta)}")
        # Zero discounts are admitted so the discount game can explore its
        # full grid; a zero simply makes zero-rated bandwidth free.
        check_unit_interval("p", p)
        check_unit_interval("delta", delta)

    def with_cell(self, p: Sequence[float], delta: Sequence[float]) -> "MarketConfig":
        """This market at prices ``p`` and discounts ``delta``.  Only these
        two are coerced and checked, as in construction; every other field
        is this validated market's own, so a price grid's markets skip
        re-validating shares and shape."""
        p, delta = _as_float_tuple(p), _as_float_tuple(delta)
        self._check_cell(p, delta)
        cell = object.__new__(type(self))
        cell.__dict__.update(self.__dict__, p=p, delta=delta)
        return cell

    def with_prices(self, p: Sequence[float]) -> "MarketConfig":
        return self.with_cell(p, self.delta)


def check_unit_interval(name: str, values: Iterable[float]) -> None:
    """Raise ConfigError naming the first of ``values`` outside [0, 1]
    (NaN included)."""
    for k, v in enumerate(values):
        if not 0.0 <= v <= 1.0:
            raise ConfigError(f"{name}[{k}] must lie in [0, 1], got {v}")


@dataclass(frozen=True)
class StrategyMatrix:
    """Binary zero-rating profile over actual CP x actual ISP pairs.

    ``rows[i][j]`` is 1 iff actual CP ``i`` zero-rates with actual ISP ``j``
    (both 0-based).  Dummy and auxiliary providers are never stored; an
    auxiliary bundle is zero-rated with an ISP iff all its members are (see
    ``_bundles_zero_rated``).
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(int(v) for v in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows or not rows[0]:
            raise InvalidArgument("strategy matrix must have at least one CP and one ISP")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise InvalidArgument("strategy matrix rows must have equal length")
            for v in row:
                if v not in (0, 1):
                    raise InvalidArgument(f"strategy entries must be 0 or 1, got {v}")

    @classmethod
    def zeros(cls, n_cps: int, n_isps: int) -> "StrategyMatrix":
        return cls(tuple((0,) * n_isps for _ in range(n_cps)))

    @classmethod
    def from_bitstring(cls, bits: str, n_cps: int, n_isps: int) -> "StrategyMatrix":
        if len(bits) != n_cps * n_isps or set(bits) - {"0", "1"}:
            raise InvalidArgument(f"bad bitstring {bits!r} for a {n_cps}x{n_isps} matrix")
        it = iter(bits)
        return cls(tuple(tuple(int(next(it)) for _ in range(n_isps)) for _ in range(n_cps)))

    @property
    def n_cps(self) -> int:
        return len(self.rows)

    @property
    def n_isps(self) -> int:
        return len(self.rows[0])

    def bitstring(self) -> str:
        """Row-major serialization, e.g. "0111" for a duopoly."""
        return "".join(str(v) for row in self.rows for v in row)

    def encoding(self) -> int:
        return int(self.bitstring(), 2)

    def as_array(self) -> np.ndarray:
        return np.array(self.rows, dtype=np.int8)


def profile_cells(codes: Sequence[int] | np.ndarray, n_cps: int, n_isps: int) -> np.ndarray:
    """Zero-rating cells ``[k, i, j]`` of each profile code, as booleans.

    Codes are read as int64, so a market has at most 63 cells; a larger one
    raises InvalidArgument before any code is converted."""
    if n_cps * n_isps > 63:
        raise InvalidArgument(
            f"the {n_cps}x{n_isps} market has {n_cps * n_isps} cells; profile codes are "
            "int64 and hold at most 63"
        )
    shifts = np.arange(n_cps * n_isps - 1, -1, -1)
    bits = np.asarray(codes, dtype=np.int64)[:, None] >> shifts & 1
    return bits.astype(bool).reshape(-1, n_cps, n_isps)


def cell_bit(i: int, j: int, n_cps: int, n_isps: int) -> int:
    """Bit of cell (CP ``i``, ISP ``j``) in a profile code."""
    return 1 << (n_cps * n_isps - 1 - (i * n_isps + j))


def _members(n_cps: int) -> np.ndarray:
    """``[s, i]`` is 1 iff actual CP ``i`` is in auxiliary CP ``s``."""
    return np.arange(1 << n_cps)[:, None] >> np.arange(n_cps) & 1


def _bundles_zero_rated(cells: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Extended relations ``[k, s, j]``: auxiliary CP ``s`` x ISP ``j``.

    ``j`` includes the dummy at 0.  The dummy CP (mask 0) and the dummy ISP
    are never zero-rated; an auxiliary bundle is zero-rated iff all member
    CPs are, i.e. none of its members lacks the relation.
    """
    ext = np.zeros((len(cells), len(members), cells.shape[2] + 1), dtype=bool)
    ext[:, 1:, 1:] = (members @ ~cells)[:, 1:] == 0
    return ext


@dataclass(frozen=True)
class AllocationTable:
    """Per-pair market shares and user counts under one strategy profile.

    ``rho[s, j]`` is the market share of (auxiliary CP ``s``, ISP ``j``)
    with the dummy ISP at column 0; ``x_pair = rho * total_users``; and
    ``x_effective[i, j]`` counts effective users of actual CP ``i`` on
    actual ISP ``j``, i.e. the sum of ``x_pair`` over every bundle that
    contains CP ``i``.
    """

    rho: np.ndarray
    x_pair: np.ndarray
    x_effective: np.ndarray


def sub_boxes(shape: Sequence[int], entries: int) -> Iterator[tuple[slice, ...]]:
    """Slices of a box of ``shape`` of ``entries`` array entries per cell,
    each within BLOCK_ELEMENTS entries (or one cell): leading axes are cut to
    single positions until the rest fit, the next into near-equal parts."""
    budget = max(1, BLOCK_ELEMENTS // entries)
    cut = max(0, next(a for a in range(len(shape) + 1) if math.prod(shape[a:]) <= budget) - 1)
    size, rest = shape[cut], (slice(None),) * (len(shape) - cut - 1)
    parts = -(-size // (budget // math.prod(shape[cut + 1:])))
    for lead in itertools.product(*map(range, shape[:cut])):
        for k in range(parts):
            part = slice(k * size // parts, (k + 1) * size // parts)
            yield (*(slice(v, v + 1) for v in lead), part, *rest)


def _lattice(config: MarketConfig) -> tuple[np.ndarray, np.ndarray]:
    """What every allocation of ``config`` reads besides its profile: bundle
    membership (:func:`_members`) and the baseline shares phi x psi."""
    return _members(config.n_cps), np.outer(config.phi, config.psi)


def _rho(
    cells: np.ndarray, members: np.ndarray, baseline: np.ndarray, alpha: float | np.ndarray
) -> np.ndarray:
    """Shares ``rho[k, s, j]`` of the profiles ``cells``.  ``baseline`` (phi x
    psi, ``[s, j]`` or ``[k, s, j]``) and ``alpha`` (a float or ``[k, 1, 1]``)
    broadcast along the profile axis, so profiles may span markets of a shape."""
    ext = _bundles_zero_rated(cells, members)
    zero_rated = ext.any(axis=(1, 2))[:, None, None]
    mass = (baseline * ext).reshape(len(ext), -1).sum(axis=1)[:, None, None]
    elastic = alpha * baseline * ext / np.where(zero_rated, mass, 1.0)
    return np.where(zero_rated, elastic + (1.0 - alpha) * baseline, baseline)


def allocations(
    config: MarketConfig, cells: np.ndarray, lattice: tuple | None = None
) -> tuple[np.ndarray, ...]:
    """``rho``, ``x_pair`` and ``x_effective`` (see :class:`AllocationTable`)
    of every profile in ``cells``, stacked along a leading profile axis.
    ``lattice`` is :func:`_lattice` of ``config``, built here when not
    given."""
    members, baseline = _lattice(config) if lattice is None else lattice
    rho = _rho(cells, members, baseline, config.alpha)
    x_pair = rho * config.total_users
    x_effective = np.empty(cells.shape)
    for i in range(config.n_cps):
        x_effective[:, i] = x_pair[:, members[:, i] == 1, 1:].sum(axis=1)
    return rho, x_pair, x_effective


def cp_totals(config: MarketConfig, pairs: np.ndarray) -> np.ndarray:
    """Per-CP sums ``[k, i]`` of pair arrays ``pairs[k, s, j]``: every
    bundle ``s`` containing actual CP ``i``, over every ISP column ``j``
    including the dummy, so a CP counts all of its users wherever they
    connect.  Each row sums as one flat array, as ``pairs[k][mask].sum()``
    would."""
    members = _members(config.n_cps)
    totals = np.empty((len(pairs), config.n_cps))
    for i in range(config.n_cps):
        totals[:, i] = pairs[:, members[:, i] == 1].reshape(len(pairs), -1).sum(axis=1)
    return totals


def allocate(config: MarketConfig, theta: StrategyMatrix) -> AllocationTable:
    """User allocation for one strategy profile.

    With no zero-rating anywhere the allocation is the baseline outer
    product phi * psi.  Otherwise the elastic fraction concentrates on the
    zero-rated pairs of the extended lattice, proportionally to baseline
    shares, and the sticky fraction stays on the baseline.
    """
    _check_dims(config, theta)
    rho, x_pair, x_effective = allocations(config, theta.as_array()[None] == 1)
    return AllocationTable(rho=rho[0], x_pair=x_pair[0], x_effective=x_effective[0])


def _check_dims(config: MarketConfig, theta: StrategyMatrix) -> None:
    if theta.n_cps != config.n_cps or theta.n_isps != config.n_isps:
        raise InvalidArgument(
            f"strategy matrix is {theta.n_cps}x{theta.n_isps}, "
            f"config expects {config.n_cps}x{config.n_isps}"
        )

