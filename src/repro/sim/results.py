"""Result structures produced by a simulation run.

A :class:`SimulationResult` holds byte ledgers at every aggregation level
the paper reports on:

* whole-system (headline savings, Fig. 4's numerator),
* per (ISP, day) -- Fig. 4's daily series,
* per swarm and per content item -- Fig. 2's dots and Fig. 3's CCDFs,
* per user -- Fig. 6's carbon-credit CDF.

Energy models are applied lazily so one run serves both parameter sets.

Every level is **associatively mergeable**: :class:`ByteLedger`,
:class:`UserTraffic` and :class:`SwarmResult` fold pairwise, and
:meth:`SimulationResult.merge` / :meth:`SimulationResult.from_partials`
reduce partial results from swarm-disjoint shards into one result --
deterministically, regardless of the order partials complete in (see
``from_partials``).  This is what lets the parallel backends compute
shards anywhere and reduce them afterwards.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, fields
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.core.carbon import UserFootprint
from repro.core.energy import EnergyModel
from repro.sim.accounting import ByteLedger, savings
from repro.sim.policies import SwarmKey

__all__ = [
    "SwarmResult",
    "UserTraffic",
    "UserDeltas",
    "SimulationResult",
    "merge_ledger_map",
    "merge_traffic_map",
]


def merge_ledger_map(
    target: Dict, source: Mapping[object, ByteLedger]
) -> None:
    """Copy-or-merge fold of keyed ledgers into ``target`` in place.

    The one shared reduction used by both the kernel's output fold and
    :meth:`SimulationResult.merge`, so the two paths cannot drift.
    ``source`` is never mutated or aliased.
    """
    for key, ledger in source.items():
        existing = target.get(key)
        if existing is None:
            target[key] = ledger.copy()
        else:
            existing.merge(ledger)


def merge_traffic_map(
    target: Dict, source: Mapping[int, "UserTraffic"]
) -> None:
    """Copy-or-merge fold of per-user traffic into ``target`` in place.

    Shared by the kernel's output fold and
    :meth:`SimulationResult.merge`; ``source`` is never mutated or
    aliased.  The fold reads packed columns (a plain mapping is packed
    by :meth:`UserDeltas.pack` first), so it builds one
    :class:`UserTraffic` per *new* user only.
    """
    for user_id, watched, uploaded in UserDeltas.pack(source).records():
        existing = target.get(user_id)
        if existing is None:
            target[user_id] = UserTraffic(watched, uploaded)
        else:
            existing.watched_bits += watched
            existing.uploaded_bits += uploaded


@dataclass
class SwarmResult:
    """Outcome of one swarm over the simulated horizon.

    Attributes:
        key: the swarm's identity under the scoping policy.
        ledger: bytes moved for this swarm.
        capacity: measured average concurrent viewers (watch-seconds over
            the horizon -- the empirical analogue of Little's-law ``c``).
        arrival_rate: measured session arrivals per second.
        mean_duration: measured mean session duration in seconds.
    """

    key: SwarmKey
    ledger: ByteLedger
    capacity: float
    arrival_rate: float
    mean_duration: float

    def savings(self, model: EnergyModel) -> float:
        """This swarm's simulated savings under ``model``."""
        return savings(self.ledger, model)

    @classmethod
    def combine(cls, key: SwarmKey, results: Iterable["SwarmResult"]) -> "SwarmResult":
        """Merge sub-results into one result under ``key``.

        Ledgers and capacities add (concurrent viewers across the
        sub-swarms), arrival rates add, mean duration is
        session-weighted.  Associative up to float rounding -- the merge
        primitive behind both content-level roll-ups and partial-result
        reduction.
        """
        results = list(results)
        ledger = ByteLedger.merged(r.ledger for r in results)
        sessions = sum(r.ledger.sessions for r in results)
        mean_duration = (
            sum(r.mean_duration * r.ledger.sessions for r in results) / sessions
            if sessions
            else 0.0
        )
        return cls(
            key=key,
            ledger=ledger,
            capacity=sum(r.capacity for r in results),
            arrival_rate=sum(r.arrival_rate for r in results),
            mean_duration=mean_duration,
        )


@dataclass(slots=True)
class UserTraffic:
    """Per-user byte totals over the run.

    The per-user value type of :attr:`SimulationResult.per_user`: one
    instance per distinct user of a run.  Swarm outputs carry their
    per-user deltas packed in a :class:`UserDeltas` instead, which
    builds an instance only when a value is read.  ``slots=True``
    keeps it dict-free.

    Attributes:
        watched_bits: bits the user streamed (server + peers).
        uploaded_bits: bits the user uploaded to peers.
    """

    watched_bits: float = 0.0
    uploaded_bits: float = 0.0

    def footprint(self) -> UserFootprint:
        """As a :class:`~repro.core.carbon.UserFootprint` for Eq. 13."""
        return UserFootprint(
            watched_bits=self.watched_bits, uploaded_bits=self.uploaded_bits
        )

    def merge(self, other: "UserTraffic") -> None:
        """Fold another user's-worth of traffic into this one in place."""
        self.watched_bits += other.watched_bits
        self.uploaded_bits += other.uploaded_bits

    def copy(self) -> "UserTraffic":
        return UserTraffic(
            watched_bits=self.watched_bits, uploaded_bits=self.uploaded_bits
        )


class UserDeltas(Mapping[int, UserTraffic]):
    """One swarm output's per-user traffic, packed into two columns.

    A read-only ``Mapping[int, UserTraffic]`` over ``ids``, an
    ``array('q')`` of user ids, and ``pairs``, an ``array('d')`` holding
    each user's ``(watched_bits, uploaded_bits)`` side by side
    (``pairs[2 i]``, ``pairs[2 i + 1]`` belong to ``ids[i]``).  Ids are
    in the kernel's first-touch order, which is the mapping's iteration
    order.  Reading a value builds a fresh :class:`UserTraffic`; the
    reducer's folds read the columns instead (:meth:`records`), so the
    per-(swarm, user) path builds no objects at all, and a pickled
    output carries two flat buffers.
    """

    __slots__ = ("ids", "pairs", "_index")

    def __init__(
        self, ids: Optional[array] = None, pairs: Optional[array] = None
    ) -> None:
        self.ids = array("q") if ids is None else ids
        self.pairs = array("d") if pairs is None else pairs
        if len(self.pairs) != 2 * len(self.ids):
            raise ValueError(
                f"{len(self.ids)} user ids need {2 * len(self.ids)} floats, "
                f"got {len(self.pairs)}"
            )
        self._index: Optional[Dict[int, int]] = None

    @classmethod
    def pack(cls, per_user: Mapping[int, UserTraffic]) -> "UserDeltas":
        """``per_user`` as packed columns, in its iteration order.

        A :class:`UserDeltas` is returned as it is (it is read-only).
        """
        if type(per_user) is cls:
            return per_user
        pairs = array("d")
        for traffic in per_user.values():
            pairs.append(traffic.watched_bits)
            pairs.append(traffic.uploaded_bits)
        return cls(array("q", per_user.keys()), pairs)

    def records(self) -> Iterator[Tuple[int, float, float]]:
        """``(user_id, watched_bits, uploaded_bits)`` in column order."""
        values = iter(self.pairs)
        return zip(self.ids, values, values)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids)

    def __getitem__(self, user_id: int) -> UserTraffic:
        position = self._positions()[user_id]
        return UserTraffic(self.pairs[2 * position], self.pairs[2 * position + 1])

    def _positions(self) -> Dict[int, int]:
        if self._index is None:
            self._index = {uid: i for i, uid in enumerate(self.ids)}
        return self._index

    def __reduce__(self):
        return (UserDeltas, (self.ids, self.pairs))

    def __repr__(self) -> str:
        return f"UserDeltas({dict(self.items())!r})"


@dataclass
class SimulationResult:
    """Everything a run produced, aggregated at the paper's levels.

    Attributes:
        total: whole-system ledger.
        per_swarm: ledgers and measured dynamics per swarm key.
        per_isp_day: ledgers keyed by (ISP name, zero-based day).
        per_user: byte totals per user id.
        delta_tau: window size the run used (seconds).
        horizon: trace horizon (seconds).
        upload_ratio: the ``q / beta`` the run was configured with.
    """

    total: ByteLedger
    per_swarm: Dict[SwarmKey, SwarmResult]
    per_isp_day: Dict[Tuple[str, int], ByteLedger]
    per_user: Dict[int, UserTraffic]
    delta_tau: float
    horizon: float
    upload_ratio: float

    # ------------------------------------------------------------------
    # Partial-result reduction
    # ------------------------------------------------------------------

    def merge(self, other: "SimulationResult") -> "SimulationResult":
        """Fold another (swarm-disjoint) partial result into this one.

        All levels merge associatively: totals and (ISP, day) / user
        ledgers add, colliding swarm keys combine via
        :meth:`SwarmResult.combine`.  ``other`` is never mutated or
        aliased, so partials stay valid after merging.  Returns ``self``
        for chaining.

        Raises:
            ValueError: if the runs used different ``delta_tau``,
                ``upload_ratio`` or ``horizon`` (ledgers priced on
                different windows, or capacities/arrival rates
                normalized by different denominators, are not
                comparable).  A zero ``self.horizon`` (the empty
                accumulator ``from_partials`` starts from) accepts any
                horizon.
        """
        if other.delta_tau != self.delta_tau:
            raise ValueError(
                "cannot merge results with different delta_tau: "
                f"{self.delta_tau!r} vs {other.delta_tau!r}"
            )
        if other.upload_ratio != self.upload_ratio:
            raise ValueError(
                "cannot merge results with different upload_ratio: "
                f"{self.upload_ratio!r} vs {other.upload_ratio!r}"
            )
        if self.horizon > 0.0 and other.horizon > 0.0 and self.horizon != other.horizon:
            raise ValueError(
                "cannot merge results with different horizons: "
                f"{self.horizon!r} vs {other.horizon!r} (capacities and "
                "arrival rates are normalized by the horizon)"
            )
        self.total.merge(other.total)
        for key, result in other.per_swarm.items():
            mine = self.per_swarm.get(key)
            parts = [mine, result] if mine is not None else [result]
            self.per_swarm[key] = SwarmResult.combine(key, parts)
        merge_ledger_map(self.per_isp_day, other.per_isp_day)
        merge_traffic_map(self.per_user, other.per_user)
        self.horizon = max(self.horizon, other.horizon)
        return self

    def identical_to(self, other: "SimulationResult") -> bool:
        """Exact (bit-for-bit, not approximate) equality at every level.

        The canonical check behind the runtime's determinism guarantee
        -- backends, worker counts and session orderings must all
        satisfy it.  Compares every accounting field (via the same
        fingerprints :meth:`from_partials` orders by), so new ledger
        fields are automatically covered.
        """
        return _partial_order_key(self) == _partial_order_key(other) and (
            self.delta_tau,
            self.upload_ratio,
        ) == (other.delta_tau, other.upload_ratio)

    @classmethod
    def from_partials(
        cls, partials: Iterable["SimulationResult"]
    ) -> "SimulationResult":
        """Reduce partial results from swarm-disjoint shards into one.

        Partials are first ordered canonically by a fingerprint of their
        *entire* content, then folded left-to-right -- so the reduction
        performs the same float-addition sequence **regardless of the
        order the partials arrived in** (i.e. regardless of shard
        completion order).  Two partials can only tie if they are
        bitwise identical at every level, in which case swapping them
        cannot change the fold.  Inputs are not mutated.

        Raises:
            ValueError: if ``partials`` is empty, or the runs disagree
                on ``delta_tau`` / ``upload_ratio``.
        """
        ordered = sorted(partials, key=_partial_order_key)
        if not ordered:
            raise ValueError("from_partials needs at least one partial result")
        first = ordered[0]
        merged = cls(
            total=ByteLedger(),
            per_swarm={},
            per_isp_day={},
            per_user={},
            delta_tau=first.delta_tau,
            horizon=0.0,
            upload_ratio=first.upload_ratio,
        )
        for partial in ordered:
            merged.merge(partial)
        return merged

    # ------------------------------------------------------------------
    # Headline numbers
    # ------------------------------------------------------------------

    def savings(self, model: EnergyModel) -> float:
        """System-wide simulated savings ``S_sim`` under ``model``."""
        return savings(self.total, model)

    def offload_fraction(self) -> float:
        """System-wide measured ``G`` (model-independent)."""
        return self.total.offload_fraction

    # ------------------------------------------------------------------
    # Figure-level views
    # ------------------------------------------------------------------

    def isp_names(self) -> List[str]:
        return sorted({isp for isp, _ in self.per_isp_day})

    def days(self) -> List[int]:
        return sorted({day for _, day in self.per_isp_day})

    def daily_savings(self, isp: str, model: EnergyModel) -> List[Tuple[int, float]]:
        """Fig. 4 series: (day, savings) for one ISP, day-ordered."""
        rows = []
        for (name, day), ledger in self.per_isp_day.items():
            if name == isp:
                rows.append((day, savings(ledger, model)))
        return sorted(rows)

    def isp_ledger(self, isp: str) -> ByteLedger:
        """All of one ISP's traffic, merged across days."""
        return ByteLedger.merged(
            ledger for (name, _), ledger in self.per_isp_day.items() if name == isp
        )

    def per_content_results(self) -> Dict[str, SwarmResult]:
        """Swarms merged up to content-item level (Fig. 3's unit).

        Capacity adds across sub-swarms (concurrent viewers of the item
        across ISPs and bitrate classes); arrival rates add; mean
        duration is session-weighted.
        """
        merged: Dict[str, List[SwarmResult]] = {}
        for result in self.per_swarm.values():
            merged.setdefault(result.key.content_id, []).append(result)
        return {
            content_id: SwarmResult.combine(SwarmKey(content_id=content_id), results)
            for content_id, results in merged.items()
        }

    def user_footprints(self) -> Dict[int, UserFootprint]:
        """Per-user footprints for the Fig. 6 carbon-credit CDF."""
        return {uid: traffic.footprint() for uid, traffic in self.per_user.items()}

    def carbon_positive_share(self, model: EnergyModel) -> float:
        """Fraction of users whose credit covers their footprint."""
        footprints = self.user_footprints()
        if not footprints:
            return 0.0
        positive = sum(
            1 for fp in footprints.values() if fp.is_carbon_positive(model)
        )
        return positive / len(footprints)


def _ledger_fingerprint(ledger: ByteLedger) -> Tuple:
    """Every field of a ledger as a sortable tuple.

    Derived from ``dataclasses.fields`` so fields added to
    :class:`ByteLedger` later are covered automatically -- this feeds
    both :meth:`SimulationResult.identical_to` and the canonical
    partial ordering, which must never silently skip a field.
    """
    values = []
    for spec in fields(ByteLedger):
        value = getattr(ledger, spec.name)
        if isinstance(value, dict):
            value = tuple(sorted((key.value, bits) for key, bits in value.items()))
        values.append(value)
    return tuple(values)


def _partial_order_key(partial: SimulationResult) -> Tuple:
    """Canonical order for :meth:`SimulationResult.from_partials`.

    Covers every value the fold touches, so partials that compare equal
    are bitwise-interchangeable and the reduction is provably
    independent of arrival order.
    """
    return (
        tuple(
            sorted(
                (key.sort_key(), _ledger_fingerprint(r.ledger), r.capacity,
                 r.arrival_rate, r.mean_duration)
                for key, r in partial.per_swarm.items()
            )
        ),
        _ledger_fingerprint(partial.total),
        tuple(
            sorted(
                (isp_day, _ledger_fingerprint(ledger))
                for isp_day, ledger in partial.per_isp_day.items()
            )
        ),
        tuple(
            sorted(
                (uid, t.watched_bits, t.uploaded_bits)
                for uid, t in partial.per_user.items()
            )
        ),
        partial.horizon,
    )
