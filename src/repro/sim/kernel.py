"""Pure per-swarm simulation kernel: the unit of parallel work.

The engine's original sweep mutated three shared dicts (total ledger,
per-(ISP, day) ledgers, per-user traffic) while iterating swarms, which
made the run order load-bearing and the work impossible to distribute.
This module is the refactored core: a swarm is described by an immutable
:class:`SwarmTask`, simulated by the pure function :func:`run_swarm`,
and its *entire* effect on the world is returned as a self-contained
:class:`SwarmOutput` -- the swarm's ledger plus its own per-(ISP, day)
and per-user deltas.  Nothing is shared, nothing is mutated, and a task
round-trips through ``pickle`` unchanged, so the same kernel runs
unmodified under the serial, thread and process backends
(:mod:`repro.sim.backends`).

Determinism contract:

* :func:`build_tasks` orders swarms canonically (sorted swarm key) and
  sorts each swarm's sessions by ``(start, session_id)``, so the task
  list is a pure function of the session *multiset* -- independent of
  trace ordering, iterator chunking or backend.
* :func:`run_swarm` consumes only its task and the config; two calls
  with equal arguments produce bit-for-bit equal outputs in any process.
* :func:`merge_outputs` folds outputs in task order, so every backend
  reduces to the identical float-addition sequence: parallel runs are
  bit-for-bit equal to serial runs.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.accounting import ByteLedger
from repro.sim.matching import (
    PeerState,
    WindowAllocation,
    match_window,
    match_window_multi,
)
from repro.sim.policies import SwarmKey, SwarmPolicy
from repro.sim.profiling import PROFILE
from repro.sim.reduce import reduce_outputs
from repro.sim.results import SimulationResult, SwarmResult, UserDeltas, UserTraffic
from repro.trace.events import SECONDS_PER_DAY, Session

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.sim.engine import SimulationConfig

__all__ = [
    "SwarmTask",
    "SwarmOutput",
    "MultiSwarmOutput",
    "build_tasks",
    "resolve_task",
    "run_swarm",
    "run_swarm_object",
    "run_swarm_multi",
    "run_ref",
    "run_ref_multi",
    "run_shard",
    "run_shard_multi",
    "sweep_memo",
    "merge_outputs",
]

#: Event kinds, in the order they apply within one window.
_REMOVE, _DEMOTE, _ADD = 0, 1, 2


@dataclass(frozen=True)
class SwarmTask:
    """One swarm's complete, immutable work description.

    Attributes:
        key: the swarm's identity under the scoping policy.
        sessions: the swarm's sessions, sorted by ``(start, session_id)``.
        horizon: trace horizon in seconds (for capacity/arrival rates).
    """

    key: SwarmKey
    sessions: Tuple[Session, ...]
    horizon: float

    @property
    def num_sessions(self) -> int:
        """Session count (shared shape with extent refs, for balancing)."""
        return len(self.sessions)

    def materialize(self) -> "SwarmTask":
        """A task *is* its own materialization (see :func:`resolve_task`)."""
        return self


def resolve_task(ref: object) -> SwarmTask:
    """Turn a task ref into a resident :class:`SwarmTask`.

    The worker-side half of the lazy task plan contract
    (:mod:`repro.sim.grouping`): a ref is either a ``SwarmTask``
    already (memory grouping -- sessions travelled with the ref) or an
    extent handle whose ``materialize()`` decodes the sessions from the
    shard file the worker opens itself (external grouping -- only
    ``(path, offset, length, key)`` ever crossed the process boundary).
    """
    if isinstance(ref, SwarmTask):
        return ref
    if PROFILE.enabled:
        t0 = perf_counter()
        task = ref.materialize()  # type: ignore[attr-defined]
        PROFILE.decode_seconds += perf_counter() - t0
        return task
    return ref.materialize()  # type: ignore[attr-defined]


@dataclass
class SwarmOutput:
    """Everything one swarm contributed to the run.

    Self-contained: holds the swarm's own per-(ISP, day) and per-user
    deltas instead of mutating shared accounting structures, so outputs
    can be produced on any worker and reduced in any process.

    Attributes:
        result: the swarm's ledger and measured dynamics.
        per_isp_day: this swarm's ledger deltas keyed by (ISP, day).
        per_user: this swarm's byte deltas keyed by user id, packed
            into columns in the kernel's first-touch order.
    """

    result: SwarmResult
    per_isp_day: Dict[Tuple[str, int], ByteLedger] = field(default_factory=dict)
    per_user: UserDeltas = field(default_factory=UserDeltas)


def build_tasks(
    sessions: Iterable[Session], horizon: float, policy: SwarmPolicy
) -> List[SwarmTask]:
    """Partition a session stream into canonically ordered swarm tasks.

    Consumes any iterable (a :class:`~repro.trace.events.Trace`, a list,
    or a lazy generator) exactly once; only the grouped sessions are
    retained, never an intermediate full-trace tuple.

    Raises:
        ValueError: if ``horizon <= 0`` or a session ends after it.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon!r}")
    groups: Dict[SwarmKey, List[Session]] = {}
    latest_end = 0.0
    for session in sessions:
        groups.setdefault(policy.key_for(session), []).append(session)
        if session.end > latest_end:
            latest_end = session.end
    if latest_end > horizon:
        raise ValueError(
            f"horizon {horizon} shorter than last session end {latest_end}"
        )
    tasks = []
    for key in sorted(groups, key=SwarmKey.sort_key):
        members = sorted(groups[key], key=lambda s: (s.start, s.session_id))
        tasks.append(SwarmTask(key=key, sessions=tuple(members), horizon=horizon))
    return tasks


# ----------------------------------------------------------------------
# The per-swarm sweep
# ----------------------------------------------------------------------

#: One window-grid event: ``(window, kind, sequence, session)``.  The
#: sequence number is the event's creation index, so plain tuple
#: comparison is a total order that never reaches the ``Session`` --
#: ``list.sort()`` runs without a key function and without ever
#: comparing (unorderable, and expensive to even try) session objects.
_Event = Tuple[int, int, int, Session]


def _build_events(
    sessions: Sequence[Session], config: "SimulationConfig"
) -> List[_Event]:
    """Add/demote/remove events on the window grid, in sweep order.

    Event kinds sort as remove (0) < demote (1) < add (2), so at a
    shared window a session ending exactly when another starts never
    overlaps it.  "Demote" turns a finished viewer into an upload-only
    lingering seed (the caching extension); with
    ``seed_linger_seconds == 0`` sessions go straight to removal,
    reproducing the paper.  The schedule depends only on the config's
    ``(delta_tau, seed_linger_seconds, participation)`` signature, which
    is what lets :func:`run_swarm_multi` share one schedule across a
    whole sweep.
    """
    dtau = config.delta_tau
    events: List[_Event] = []
    for session in sessions:
        w_start = int(session.start // dtau)
        w_end = max(w_start + 1, int(math.ceil(session.end / dtau)))
        events.append((w_start, _ADD, len(events), session))
        lingers = (
            config.seed_linger_seconds > 0.0
            and config.participates(session.user_id)
        )
        if lingers:
            w_linger = int(math.ceil((session.end + config.seed_linger_seconds) / dtau))
            if w_linger > w_end:
                events.append((w_end, _DEMOTE, len(events), session))
                events.append((w_linger, _REMOVE, len(events), session))
            else:
                events.append((w_end, _REMOVE, len(events), session))
        else:
            events.append((w_end, _REMOVE, len(events), session))
    # Ties on (window, kind) resolve by creation order -- exactly what
    # the historical stable key-sort produced.
    events.sort()
    return events


def run_swarm(task: SwarmTask, config: "SimulationConfig") -> SwarmOutput:
    """Simulate one swarm; pure, picklable, shared-nothing.

    The kernel dispatcher: ``config.kernel`` selects between the object
    sweep (:func:`run_swarm_object`, the semantics reference) and the
    columnar sweep (:mod:`repro.sim.kernel_columns`, packed columns
    with an optional compiled fast path).  ``"auto"`` -- the default --
    takes the columnar path, which is bit-for-bit identical by
    contract, so dispatch can never change results.  Random matching
    (``locality_aware_matching=False``) has no columnar form and always
    runs on the object kernel.
    """
    if config.kernel != "object" and config.locality_aware_matching:
        from repro.sim.kernel_columns import run_swarm_columnar

        return run_swarm_columnar(task, config)
    return run_swarm_object(task, config)


def run_swarm_object(task: SwarmTask, config: "SimulationConfig") -> SwarmOutput:
    """The object-sweep kernel: per-session python objects, no packing.

    Builds add/demote/remove events on the window grid, sweeps the
    stretches of constant membership, and accounts every byte into the
    output's own ledgers.  See the module docstring in
    :mod:`repro.sim.engine` for the windowing scheme.  This is the
    semantics reference the columnar kernel must reproduce bit-for-bit
    (the hypothesis law in ``tests/sim/test_kernel_columns.py`` pins
    the contract).
    """
    dtau = config.delta_tau
    windows_per_day = int(SECONDS_PER_DAY // dtau)
    sessions = task.sessions
    events = _build_events(sessions, config)

    output = SwarmOutput(
        result=SwarmResult(
            key=task.key,
            ledger=ByteLedger(sessions=len(sessions)),
            capacity=0.0,
            arrival_rate=len(sessions) / task.horizon if task.horizon > 0 else 0.0,
            mean_duration=(
                sum(s.duration for s in sessions) / len(sessions) if sessions else 0.0
            ),
        ),
        per_user={},  # filled by the sweep, packed once at the end
    )
    watch_seconds = 0.0

    members: Dict[int, PeerState] = {}
    previous_window = 0
    index = 0
    while index < len(events):
        window = events[index][0]
        if window > previous_window and members:
            watch_seconds += _account_stretch(
                output, members, previous_window, window, windows_per_day, config
            )
        previous_window = max(previous_window, window)
        # Apply every event at this window (removals first by sort).
        while index < len(events) and events[index][0] == window:
            _, kind, _, session = events[index]
            if kind == _REMOVE:
                members.pop(session.session_id, None)
            elif kind == _DEMOTE:
                viewer = members.get(session.session_id)
                if viewer is not None:
                    members[session.session_id] = PeerState(
                        member_id=viewer.member_id,
                        user_id=viewer.user_id,
                        demand=0.0,
                        supply=viewer.supply,
                        exchange=viewer.exchange,
                        pop=viewer.pop,
                        isp=viewer.isp,
                        attachment=viewer.attachment,
                    )
            else:
                supply_rate = (
                    config.upload_rate_for(session.bitrate)
                    if config.participates(session.user_id)
                    else 0.0
                )
                members[session.session_id] = PeerState(
                    member_id=session.session_id,
                    user_id=session.user_id,
                    demand=session.bitrate * dtau,
                    supply=supply_rate * dtau,
                    exchange=session.attachment.exchange,
                    pop=session.attachment.pop,
                    isp=session.isp,
                    attachment=session.attachment,
                )
            index += 1

    output.result.ledger.watch_seconds = watch_seconds
    output.result.capacity = (
        watch_seconds / task.horizon if task.horizon > 0 else 0.0
    )
    output.per_user = UserDeltas.pack(output.per_user)
    return output


def _account_stretch(
    output: SwarmOutput,
    members: Dict[int, PeerState],
    w_from: int,
    w_to: int,
    windows_per_day: int,
    config: "SimulationConfig",
) -> float:
    """Account a run of identical windows, split at day boundaries.

    Returns the watch-seconds covered by the stretch.
    """
    member_list = list(members.values())
    allocation = match_window(
        member_list,
        allow_cross_isp=config.allow_cross_isp_matching,
        locality_aware=config.locality_aware_matching,
    )
    # Lingering seeds (demand 0) are not *viewers*: capacity counts
    # concurrent watchers only, as in the paper.
    viewers = sum(1 for m in member_list if m.demand > 0.0)
    watch_per_window = viewers * config.delta_tau

    watch_seconds = 0.0
    window = w_from
    while window < w_to:
        day = window // windows_per_day
        day_end = (day + 1) * windows_per_day
        chunk = min(w_to, day_end) - window
        _apply_allocation(
            output, allocation, member_list, chunk, day, watch_per_window * chunk
        )
        watch_seconds += watch_per_window * chunk
        window += chunk
    return watch_seconds


def _apply_allocation(
    output: SwarmOutput,
    allocation: WindowAllocation,
    member_list: List[PeerState],
    num_windows: int,
    day: int,
    watch_seconds: float,
) -> None:
    key = output.result.key
    isp = key.isp if key.isp is not None else "all"
    day_ledger = output.per_isp_day.get((isp, day))
    if day_ledger is None:
        day_ledger = output.per_isp_day[(isp, day)] = ByteLedger()
    day_ledger.watch_seconds += watch_seconds

    server = allocation.server_bits * num_windows
    demanded = allocation.demanded_bits * num_windows
    for ledger in (output.result.ledger, day_ledger):
        ledger.server_bits += server
        ledger.demanded_bits += demanded
        for layer, bits in allocation.peer_bits.items():
            ledger.peer_bits[layer] = (
                ledger.peer_bits.get(layer, 0.0) + bits * num_windows
            )

    per_user = output.per_user
    for member in member_list:
        traffic = per_user.get(member.user_id)
        if traffic is None:
            traffic = per_user[member.user_id] = UserTraffic()
        traffic.watched_bits += member.demand * num_windows
    for user_id, bits in allocation.uploaded_bits.items():
        traffic = per_user.get(user_id)
        if traffic is None:
            traffic = per_user[user_id] = UserTraffic()
        traffic.uploaded_bits += bits * num_windows


# ----------------------------------------------------------------------
# The multi-config sweep kernel
# ----------------------------------------------------------------------


@dataclass
class MultiSwarmOutput:
    """One swarm's outputs for every config of a sweep, plus kernel stats.

    Produced by :func:`run_swarm_multi`.  ``outputs[k]`` is bit-for-bit
    the :class:`SwarmOutput` that ``run_swarm(task, configs[k])`` would
    have produced; the counters report how much work the sweep actually
    shared so callers can assert (and benchmarks can publish) the
    amortization instead of trusting it.

    Attributes:
        outputs: per-config swarm outputs, aligned with the sweep's
            config list.
        memo_hits: memo-eligible stretches answered from the allocation
            memo instead of re-solving ``match_window``.
        memo_misses: memo-eligible stretches that had to be solved.
        schedule_builds: distinct event schedules built -- one per
            distinct ``(delta_tau, seed_linger, participation)``
            signature among the configs.
    """

    outputs: List[SwarmOutput]
    memo_hits: int = 0
    memo_misses: int = 0
    schedule_builds: int = 0


class _AllocationMemo:
    """Per-swarm allocation memo with an adaptive off-switch.

    Replaying a memo entry is bitwise-exact, so enabling or disabling
    memoization can never change results -- only wall-clock.  Whether it
    *pays* depends on the trace: diurnal membership revisits make it
    profitable, heavy-churn swarms make signature construction pure
    overhead.  The memo therefore runs a probation window: after
    ``PROBATION`` attempted lookups, a hit rate below ``MIN_HIT_RATE``
    switches keying off for the rest of the swarm (entries are dropped
    to free memory).  Hit/miss counters only ever count *attempted*
    lookups, so reported hit rates stay honest.
    """

    __slots__ = ("entries", "hits", "misses", "enabled", "probation")

    #: Attempted lookups before the hit rate is judged (per-swarm memos).
    PROBATION = 64
    #: Probation for sweep-shared memos: cross-task hits only appear
    #: once the catalogue tail starts repeating membership patterns, so
    #: a shared memo must observe far more lookups before judging.
    SHARED_PROBATION = 4096
    #: Minimum hit rate that keeps the memo keying past probation.
    MIN_HIT_RATE = 0.05

    def __init__(self, probation: Optional[int] = None) -> None:
        self.entries: Dict[Tuple, Tuple] = {}
        self.hits = 0
        self.misses = 0
        self.enabled = True
        self.probation = self.PROBATION if probation is None else probation

    def reassess(self) -> None:
        """Disable keying when probation shows it cannot pay."""
        attempts = self.hits + self.misses
        if attempts >= self.probation and self.hits < attempts * self.MIN_HIT_RATE:
            self.enabled = False
            self.entries.clear()


def sweep_memo(probation: Optional[int] = None) -> "_AllocationMemo":
    """A sweep-scoped allocation memo, shared across a run's tasks.

    The canonical membership signature (user-rank relabelled, see
    :func:`_account_stretch_multi`) is already task-independent: ranks,
    demands, geometry and supplies carry no swarm identity, so an entry
    learned in one swarm replays exactly in any other whose stretch
    presents the same signature.  Sharing one memo across every task
    multiplies the repeat pool: on the catalogue workload the full
    attempted-lookup population hits ~6x more often shared than
    per-task (BENCH_sweep.json's ``memo`` section measures both).
    Absolute rates stay low -- single-member stretches take the
    closed-form fast path and never consult the memo, and multi-member
    membership signatures are diverse -- which is exactly why the
    adaptive off-switch stays: on traces where even the shared pool
    cannot pay, keying shuts off after ``probation`` attempts.  Callers
    pass the memo to :func:`run_swarm_multi`; sharing scope can never
    change results, only wall-clock and the hit-rate accounting.

    Args:
        probation: attempted lookups before the hit rate is judged
            (default ``SHARED_PROBATION``); benchmarks pass a huge
            value to measure the full population un-truncated.
    """
    if probation is None:
        probation = _AllocationMemo.SHARED_PROBATION
    return _AllocationMemo(probation=probation)


def _schedule_signature(config: "SimulationConfig") -> Tuple:
    """What the event schedule (and membership timeline) depends on.

    Two configs with equal signatures produce identical event lists for
    any session set: the window grid is set by ``delta_tau``, and the
    demote/remove split by ``seed_linger_seconds`` gated on
    participation.  With no lingering, participation never reaches the
    schedule (it only scales supplies), so it is normalized out and a
    whole upload-ratio x participation sweep shares one timeline.
    """
    return (
        config.delta_tau,
        config.seed_linger_seconds,
        config.participation_rate if config.seed_linger_seconds > 0.0 else None,
    )


def run_swarm_multi(
    task: SwarmTask,
    configs: Sequence["SimulationConfig"],
    memo: Optional[_AllocationMemo] = None,
) -> MultiSwarmOutput:
    """Simulate one swarm under every config, amortizing shared work.

    The sweep-side counterpart of :func:`run_swarm`: the task's sessions
    are decoded once by the caller, the event schedule is built once per
    distinct :func:`_schedule_signature`, and each signature group's
    membership timeline is swept once while producing per-config
    allocations.  Within a sweep, window allocations are memoized by a
    canonical membership signature (see :func:`_account_stretch_multi`);
    the signature is task-independent, so callers running many tasks
    pass a shared :func:`sweep_memo` and stretches that revisit an
    identical membership state -- diurnal traces and catalogue tails do
    so constantly -- skip ``match_window`` entirely.  Without a caller
    memo, a per-swarm one is used.

    Unless some config pins ``kernel="object"``, the sweep runs on the
    columnar kernel (one :class:`ColumnSchedule` per signature group,
    see :func:`repro.sim.kernel_columns.run_swarm_multi_columnar`):
    per-config columnar sweeps over a shared schedule beat the object
    multi-kernel's shared-timeline accumulators outright, and anything
    else would leave ``run_sweep`` slower than K independent ``auto``
    runs.  Pinning ``kernel="object"`` on every config keeps a sweep on
    this multi-kernel -- the semantics reference, and the only path the
    allocation memo (and its sweep stats) applies to.

    Every output is **bit-for-bit identical** to the corresponding
    independent ``run_swarm(task, config)`` call: the shared sweep
    replays the exact event order, member ordering and float-addition
    sequences of the single-config kernel, and the memo only answers
    when replaying is provably exact (unique user ids; values invariant
    under the user-rank relabelling the signature applies).  Reported
    memo counters are this call's deltas, so shared memos still yield
    per-task honest stats.
    """
    if not configs:
        return MultiSwarmOutput(outputs=[])
    if all(config.kernel != "object" for config in configs):
        from repro.sim.kernel_columns import run_swarm_multi_columnar

        return run_swarm_multi_columnar(task, configs)
    groups: Dict[Tuple, List[int]] = {}
    for position, config in enumerate(configs):
        groups.setdefault(_schedule_signature(config), []).append(position)
    outputs: List[Optional[SwarmOutput]] = [None] * len(configs)
    # The allocation memo is shared across signature groups: an
    # allocation is a pure function of (member states, matching flags),
    # and member states already encode delta_tau / participation via
    # their values.
    if memo is None:
        memo = _AllocationMemo()
    hits_before, misses_before = memo.hits, memo.misses
    for positions in groups.values():
        _sweep_signature_group(task, configs, positions, outputs, memo)
    return MultiSwarmOutput(
        outputs=outputs,  # type: ignore[arg-type] - every slot is filled
        memo_hits=memo.hits - hits_before,
        memo_misses=memo.misses - misses_before,
        schedule_builds=len(groups),
    )


class _SlotAccount:
    """One sweep config's supply-side accumulators within a group.

    The demand side of the accounting (demanded bits, watch-seconds,
    per-user watched bits, day watch/demand) is identical for every
    config sharing a schedule signature, so the group accumulates it
    once; only what depends on supply -- server bits, per-layer peer
    bits, per-user uploads -- is tracked per config, in exactly the
    same addition order the single-config kernel performs.
    """

    __slots__ = ("server_total", "peer_total", "day_server", "day_peer", "uploads")

    def __init__(self) -> None:
        self.server_total = 0.0
        self.peer_total: Dict[object, float] = {}
        self.day_server: Dict[int, float] = {}
        self.day_peer: Dict[int, Dict[object, float]] = {}
        self.uploads: Dict[int, float] = {}


def _sweep_signature_group(
    task: SwarmTask,
    configs: Sequence["SimulationConfig"],
    positions: List[int],
    outputs: List[Optional[SwarmOutput]],
    memo: _AllocationMemo,
) -> None:
    """Sweep one schedule-signature group's shared membership timeline.

    Maintains a single members dict whose values are ``(state,
    supplies)`` pairs: one shared :class:`~repro.sim.matching.PeerState`
    (the states differ only in supply, so ids, demand and geometry are
    stored once) plus the per-config supply tuple, both computed at the
    member's add event and never rebuilt.  Accounting is split:
    demand-side aggregates accumulate once for the whole group,
    supply-side aggregates accumulate per config (:class:`_SlotAccount`),
    and the per-config :class:`SwarmOutput` values are materialized at
    the end -- with float-addition sequences identical, field for field,
    to what K independent :func:`run_swarm` calls perform.
    """
    group_configs = [configs[k] for k in positions]
    lead = group_configs[0]
    dtau = lead.delta_tau
    windows_per_day = int(SECONDS_PER_DAY // dtau)
    sessions = task.sessions
    events = _build_events(sessions, lead)

    # Config slots (group-local indices) partitioned by matching flags:
    # each partition's memo misses are solved in one shared-structure
    # match_window_multi call per stretch.
    flag_groups: Dict[Tuple[bool, bool], List[int]] = {}
    for j, config in enumerate(group_configs):
        flag_groups.setdefault(
            (config.allow_cross_isp_matching, config.locality_aware_matching), []
        ).append(j)

    # Group-shared (demand-side) accounting state.
    shared_days: Dict[int, List[float]] = {}  # day -> [watch_seconds, demanded]
    watched: Dict[int, float] = {}  # user_id -> watched bits
    total_demanded = 0.0
    watch_seconds = 0.0
    slots = [_SlotAccount() for _ in positions]
    # Per-config supplies are a pure function of (bitrate, per-config
    # participation) -- and traces draw bitrates from a handful of
    # device classes -- so the K-wide supply tuple is computed once per
    # distinct (bitrate, participation pattern) instead of per session.
    # With every config at full participation (the common sweep) the
    # pattern collapses to a constant; otherwise each user's pattern is
    # resolved once through the configs' own deterministic hash.
    supply_cache: Dict[Tuple, Tuple[float, ...]] = {}
    all_participate = all(
        config.participation_rate >= 1.0 for config in group_configs
    )
    participation_cache: Dict[int, Tuple[bool, ...]] = {}

    members: Dict[int, Tuple[PeerState, Tuple[float, ...]]] = {}
    previous_window = 0
    index = 0
    num_events = len(events)
    while index < num_events:
        window = events[index][0]
        if window > previous_window and members:
            stretch_watch, total_demanded = _account_stretch_multi(
                slots,
                flag_groups,
                members,
                previous_window,
                window,
                windows_per_day,
                dtau,
                shared_days,
                watched,
                total_demanded,
                memo,
            )
            watch_seconds += stretch_watch
        previous_window = max(previous_window, window)
        while index < num_events and events[index][0] == window:
            _, kind, _, session = events[index]
            if kind == _REMOVE:
                members.pop(session.session_id, None)
            elif kind == _DEMOTE:
                entry = members.get(session.session_id)
                if entry is not None:
                    state, supplies = entry
                    members[session.session_id] = (
                        PeerState(
                            member_id=state.member_id,
                            user_id=state.user_id,
                            demand=0.0,
                            supply=state.supply,
                            exchange=state.exchange,
                            pop=state.pop,
                            isp=state.isp,
                            attachment=state.attachment,
                        ),
                        supplies,
                    )
            else:
                attachment = session.attachment
                bitrate = session.bitrate
                demand = bitrate * dtau
                if all_participate:
                    pattern: Optional[Tuple[bool, ...]] = None
                else:
                    user_id = session.user_id
                    pattern = participation_cache.get(user_id)
                    if pattern is None:
                        pattern = participation_cache[user_id] = tuple(
                            config.participates(user_id)
                            for config in group_configs
                        )
                supply_key = (bitrate, pattern)
                supplies = supply_cache.get(supply_key)
                if supplies is None:
                    if pattern is None:
                        supplies = tuple(
                            config.upload_rate_for(bitrate) * dtau
                            for config in group_configs
                        )
                    else:
                        supplies = tuple(
                            (config.upload_rate_for(bitrate) if participates else 0.0)
                            * dtau
                            for config, participates in zip(group_configs, pattern)
                        )
                    supply_cache[supply_key] = supplies
                members[session.session_id] = (
                    PeerState(
                        member_id=session.session_id,
                        user_id=session.user_id,
                        demand=demand,
                        supply=supplies[0],
                        exchange=attachment.exchange,
                        pop=attachment.pop,
                        isp=session.isp,
                        attachment=attachment,
                    ),
                    supplies,
                )
            index += 1

    # Materialize each config's output from the shared + per-slot state.
    arrival_rate = len(sessions) / task.horizon if task.horizon > 0 else 0.0
    mean_duration = (
        sum(s.duration for s in sessions) / len(sessions) if sessions else 0.0
    )
    capacity = watch_seconds / task.horizon if task.horizon > 0 else 0.0
    isp = task.key.isp if task.key.isp is not None else "all"
    for j, k in enumerate(positions):
        slot = slots[j]
        per_isp_day: Dict[Tuple[str, int], ByteLedger] = {}
        for day, (day_watch, day_demanded) in shared_days.items():
            day_peer = slot.day_peer.get(day)
            per_isp_day[(isp, day)] = ByteLedger(
                server_bits=slot.day_server.get(day, 0.0),
                peer_bits=day_peer if day_peer is not None else {},
                demanded_bits=day_demanded,
                watch_seconds=day_watch,
            )
        uploads = slot.uploads
        pairs = array("d")
        for user_id, bits in watched.items():
            pairs.append(bits)
            pairs.append(uploads.get(user_id, 0.0))
        per_user = UserDeltas(array("q", watched), pairs)
        outputs[k] = SwarmOutput(
            result=SwarmResult(
                key=task.key,
                ledger=ByteLedger(
                    server_bits=slot.server_total,
                    peer_bits=slot.peer_total,
                    demanded_bits=total_demanded,
                    watch_seconds=watch_seconds,
                    sessions=len(sessions),
                ),
                capacity=capacity,
                arrival_rate=arrival_rate,
                mean_duration=mean_duration,
            ),
            per_isp_day=per_isp_day,
            per_user=per_user,
        )


def _account_stretch_multi(
    slots: List[_SlotAccount],
    flag_groups: Dict[Tuple[bool, bool], List[int]],
    members: Dict[int, Tuple[PeerState, Tuple[float, ...]]],
    w_from: int,
    w_to: int,
    windows_per_day: int,
    dtau: float,
    shared_days: Dict[int, List[float]],
    watched: Dict[int, float],
    total_demanded: float,
    memo: _AllocationMemo,
) -> Tuple[float, float]:
    """Account one constant-membership stretch for every config at once.

    The demand side (total/day demanded bits, watch-seconds, per-user
    watched bits) accumulates once into the group-shared structures; the
    supply side replays per config from a per-config allocation *view*
    ``(server_bits, peer items, upload items)``, which comes from the
    canonical-signature memo when this membership state was seen before
    and otherwise from one shared-structure
    :func:`~repro.sim.matching.match_window_multi` call per flag group.
    ``total_demanded`` is the group's *running* demanded-bits total: it
    is advanced one chunk at a time (never via a per-stretch subtotal),
    replaying the flat addition sequence of the single-config ledger.
    Returns ``(watch_seconds, total_demanded)``.
    """
    if len(members) == 1:
        # The dominant stretch shape on catalogue-style traces: one
        # member, served entirely by the CDN under every config.  The
        # per-config delta is a single shared server/demand value, so
        # the whole stretch accounts in a handful of adds per slot --
        # value-for-value the additions the general path performs.
        state, _supplies = next(iter(members.values()))
        demand = state.demand
        watch_per_window = dtau if demand > 0.0 else 0.0
        user_id = state.user_id
        first_day = w_from // windows_per_day
        day_end = (first_day + 1) * windows_per_day
        watch_total = 0.0
        window = w_from
        day = first_day
        while window < w_to:
            num_windows = min(w_to, day_end) - window
            day_shared = shared_days.get(day)
            if day_shared is None:
                day_shared = shared_days[day] = [0.0, 0.0]
            watch_chunk = watch_per_window * num_windows
            server_chunk = demand * num_windows
            day_shared[0] += watch_chunk
            day_shared[1] += server_chunk
            watch_total += watch_chunk
            total_demanded += server_chunk
            watched[user_id] = watched.get(user_id, 0.0) + server_chunk
            for slot in slots:
                slot.server_total += server_chunk
                day_server = slot.day_server
                day_server[day] = day_server.get(day, 0.0) + server_chunk
            window += num_windows
            day += 1
            day_end += windows_per_day
        return watch_total, total_demanded

    bases = list(members.values())
    shared_members = [state for state, _supplies in bases]
    viewers = sum(1 for member in shared_members if member.demand > 0.0)
    watch_per_window = viewers * dtau
    # Bit-for-bit the window allocation's demand total: the same
    # generator-sum over the same demands in the same member order.
    demanded_per_window = sum(member.demand for member in shared_members)

    # Views: (server_bits, peer items, upload items) per group slot.
    # (Single-member stretches never reach here -- the fast path above
    # returned -- so every stretch below has at least two members.)
    views: Dict[int, Tuple[float, object, object]] = {}
    memoizable = False
    if memo.enabled:
        user_ids = [member.user_id for member in shared_members]
        distinct = sorted(set(user_ids))
        memoizable = len(distinct) == len(user_ids)
        if memoizable:
            rank_of = {uid: rank for rank, uid in enumerate(distinct)}
            shared_signature = tuple(
                (member.demand, member.exchange, member.pop, member.isp, rank)
                for member, rank in zip(
                    shared_members, (rank_of[u] for u in user_ids)
                )
            )
    for (allow_cross_isp, locality_aware), slot_ids in flag_groups.items():
        pending: List[Tuple[int, Optional[Tuple]]] = []
        if memoizable:
            entries = memo.entries
            for j in slot_ids:
                signature = (
                    allow_cross_isp,
                    locality_aware,
                    shared_signature,
                    tuple(supplies[j] for _state, supplies in bases),
                )
                entry = entries.get(signature)
                if entry is None:
                    pending.append((j, signature))
                else:
                    server_bits, peer_items, ranked_uploads = entry
                    views[j] = (
                        server_bits,
                        peer_items,
                        [(distinct[rank], bits) for rank, bits in ranked_uploads],
                    )
                    memo.hits += 1
        else:
            pending = [(j, None) for j in slot_ids]
        if pending:
            profiles = [
                [supplies[j] for _state, supplies in bases]
                for j, _signature in pending
            ]
            solved = match_window_multi(
                shared_members,
                profiles,
                allow_cross_isp=allow_cross_isp,
                locality_aware=locality_aware,
            )
            for (j, signature), allocation in zip(pending, solved):
                views[j] = (
                    allocation.server_bits,
                    tuple(allocation.peer_bits.items()),
                    tuple(allocation.uploaded_bits.items()),
                )
                if signature is not None:
                    # Uploads stored against user ranks: with unique
                    # user ids every float match_window computes is
                    # invariant under this order-preserving
                    # relabelling, so replays are exact.
                    memo.entries[signature] = (
                        allocation.server_bits,
                        tuple(allocation.peer_bits.items()),
                        tuple(
                            (rank_of[user_id], bits)
                            for user_id, bits in allocation.uploaded_bits.items()
                        ),
                    )
                    memo.misses += 1
    if memoizable:
        memo.reassess()

    # Day-boundary chunks, shared by every config in the group (almost
    # every stretch lies inside one day: take the single-chunk fast
    # path without building a list).
    first_day = w_from // windows_per_day
    day_end = (first_day + 1) * windows_per_day
    if w_to <= day_end:
        chunks: Sequence[Tuple[int, int]] = ((w_to - w_from, first_day),)
    else:
        chunk_list = [(day_end - w_from, first_day)]
        window = day_end
        while window < w_to:
            day = window // windows_per_day
            day_end = (day + 1) * windows_per_day
            chunk = min(w_to, day_end) - window
            chunk_list.append((chunk, day))
            window += chunk
        chunks = chunk_list

    # -- demand-side accounting, once for the whole group ---------------
    watch_total = 0.0
    for num_windows, day in chunks:
        day_shared = shared_days.get(day)
        if day_shared is None:
            day_shared = shared_days[day] = [0.0, 0.0]
        watch_chunk = watch_per_window * num_windows
        demanded_chunk = demanded_per_window * num_windows
        day_shared[0] += watch_chunk
        day_shared[1] += demanded_chunk
        watch_total += watch_chunk
        total_demanded += demanded_chunk
        for member in shared_members:
            user_id = member.user_id
            watched[user_id] = watched.get(user_id, 0.0) + member.demand * num_windows

    # -- supply-side accounting, per config -----------------------------
    for j, (server_bits, peer_items, upload_items) in views.items():
        slot = slots[j]
        day_server = slot.day_server
        for num_windows, day in chunks:
            server_chunk = server_bits * num_windows
            slot.server_total += server_chunk
            day_server[day] = day_server.get(day, 0.0) + server_chunk
            if peer_items:
                peer_total = slot.peer_total
                day_peer = slot.day_peer.get(day)
                if day_peer is None:
                    day_peer = slot.day_peer[day] = {}
                for layer, bits in peer_items:
                    peer_chunk = bits * num_windows
                    peer_total[layer] = peer_total.get(layer, 0.0) + peer_chunk
                    day_peer[layer] = day_peer.get(layer, 0.0) + peer_chunk
            if upload_items:
                uploads = slot.uploads
                for user_id, bits in upload_items:
                    uploads[user_id] = uploads.get(user_id, 0.0) + bits * num_windows

    return watch_total, total_demanded


# ----------------------------------------------------------------------
# Shard execution and deterministic reduction
# ----------------------------------------------------------------------


def _is_extent_ref(ref: object) -> bool:
    """Whether ``ref`` supports the zero-object extent protocol.

    Duck-typed (``read_raw``/``read_columns``, provided by
    :class:`repro.sim.grouping.ExtentTaskRef`) to keep this module free
    of a grouping import; a resident :class:`SwarmTask` never does.
    """
    return not isinstance(ref, SwarmTask) and hasattr(ref, "read_raw")


def run_ref(ref: object, config: "SimulationConfig") -> SwarmOutput:
    """Run one task ref, decoding straight to columns when possible.

    The ref-level dispatcher every backend funnels through: an extent
    ref bound for the columnar kernel takes the zero-object path
    (:func:`repro.sim.kernel_columns.run_ref_columnar` -- raw store
    bytes to packed columns, no ``Session`` objects); anything else --
    resident tasks, ``kernel="object"``, random matching -- materializes
    via :func:`resolve_task` and runs :func:`run_swarm` unchanged.
    Outputs are bit-for-bit identical either way (the extent columns
    decode to the exact field values the objects would carry).
    """
    if (
        config.kernel != "object"
        and config.locality_aware_matching
        and _is_extent_ref(ref)
    ):
        from repro.sim.kernel_columns import run_ref_columnar

        return run_ref_columnar(ref, config)
    return run_swarm(resolve_task(ref), config)


def run_ref_multi(
    ref: object,
    configs: Sequence["SimulationConfig"],
    memo: Optional[_AllocationMemo] = None,
) -> MultiSwarmOutput:
    """Multi-config :func:`run_ref`: zero-object when every config can.

    Mirrors :func:`run_swarm_multi`'s dispatch rule -- the columnar
    multi path requires no config to pin ``kernel="object"``; random-
    matching configs inside the columnar multi still materialize the
    task lazily for their object-kernel runs.
    """
    if (
        configs
        and all(config.kernel != "object" for config in configs)
        and _is_extent_ref(ref)
    ):
        from repro.sim.kernel_columns import run_ref_multi_columnar

        return run_ref_multi_columnar(ref, configs)
    return run_swarm_multi(resolve_task(ref), configs, memo)


def run_shard(
    tasks: Sequence[object], config: "SimulationConfig"
) -> List[SwarmOutput]:
    """Run a batch of swarm task refs in-process, preserving order.

    The unit of work a process backend ships to a worker: one pickle
    round-trip amortises over the whole shard.  Accepts resident
    :class:`SwarmTask` values or lazy refs; extent refs go through the
    zero-object columnar path (:func:`run_ref`), others are
    materialized, swept and released before the next, so a worker holds
    at most one decoded task at a time.
    """
    return [run_ref(task, config) for task in tasks]


def run_shard_multi(
    tasks: Sequence[object], configs: Sequence["SimulationConfig"]
) -> List[MultiSwarmOutput]:
    """Run a batch of swarm task refs under every sweep config.

    The multi-config counterpart of :func:`run_shard` -- and the whole
    point of the fan-out amortization: one pickle round-trip ships the
    task refs plus K config deltas, each task's sessions are decoded
    exactly once (to columns on the zero-object path), and
    :func:`run_ref_multi` shares the schedule across the configs.  The
    allocation memo is shared across the shard's tasks (see
    :func:`sweep_memo`); it only applies when a config pins the object
    multi-kernel.  Task order is preserved.
    """
    memo = sweep_memo()
    return [run_ref_multi(task, configs, memo) for task in tasks]


def merge_outputs(
    outputs: Iterable[SwarmOutput],
    *,
    delta_tau: float,
    horizon: float,
    upload_ratio: float,
) -> SimulationResult:
    """Reduce swarm outputs (in the given order) into a final result.

    Every backend hands outputs back in canonical task order, so the
    fold performs the identical float-addition sequence no matter how
    (or where, or in what completion order) the swarms actually ran.
    The outputs themselves are never mutated or aliased: reducing the
    same outputs twice gives the same result.

    The fold itself lives in :class:`repro.sim.reduce.StreamingReducer`
    -- this is the batched entry point to the same reduction the
    streaming modes use, so the two paths cannot drift.
    """
    return reduce_outputs(
        outputs,
        delta_tau=delta_tau,
        horizon=horizon,
        upload_ratio=upload_ratio,
    )
