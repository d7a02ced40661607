"""Seeded generative city-scale trace synthesis, written straight to disk.

The paper's workloads are all the single-city London model rebuilt from
Table I.  This module generates *parametric* city workloads instead --
the knobs CoGenT-style trace generators expose (catalogue size and
churn, Zipf-like popularity with drift over the horizon, diurnal demand
curves) plus the per-region topology skew an Open-Connect-style CDN
sees (ISP market shares and exchange attachment following their own
power laws) -- and streams every session **straight into the binary
session store** (:class:`~repro.trace.store.StoreWriter`, via its
``append_fields`` zero-object entry point).  No JSONL intermediate and
no :class:`~repro.trace.events.Session` objects exist at any point;
synthesis cost is one pass of scalar arithmetic plus 56 B of disk per
session.

Determinism contract:

* :meth:`SynthConfig.fingerprint` is a pure function of the config
  (seed included).  Two ``synthesize`` calls with equal configs produce
  **byte-identical** store files, on any host -- the RNG is stdlib
  ``random.Random`` seeded from ``crc32``-derived streams, never
  ``hash()``.
* :attr:`SynthConfig.cache_token` is therefore a valid shard-cache
  token: feed it to ``Simulator.run_stream(..., cache_token=...)`` and
  the content-addressed shard cache (:mod:`repro.sim.grouping`) makes
  repeated simulation of the same synthetic city free of the re-sort.
* :func:`ensure_store` content-addresses the store *file* by the same
  fingerprint, so repeated synthesis itself is also free: an existing
  store whose sidecar matches the fingerprint is reused untouched.

Region naming: content ids are ``"<region>/c<slot>.g<gen>"`` and ISP
names ``"<region>/isp-<i>"``, so distinct regions have disjoint swarm
key spaces under any policy that scopes by content -- the property
multi-city federation (:mod:`repro.sim.federate`) builds its bit-for-bit
union parity on.  Region names are restricted to ``[A-Za-z0-9_]`` so
that region-name order and content-id lexicographic order agree (every
allowed character sorts after ``"/"``).
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import zlib
from bisect import bisect_right
from dataclasses import asdict, dataclass
from hashlib import blake2b
from itertools import accumulate
from pathlib import Path
from typing import List, Optional, Union

from repro.trace.catalogue import zipf_weights
from repro.trace.events import SECONDS_PER_DAY
from repro.trace.generator import sample_poisson
from repro.trace.population import DEFAULT_DEVICE_MIX
from repro.trace.store import STORE_VERSION, StoreWriter

__all__ = ["SynthConfig", "SynthResult", "synthesize", "ensure_store"]

#: Bumped whenever the generation algorithm changes in a way that
#: alters output bytes for an unchanged config -- part of the
#: fingerprint, so stale content-addressed stores self-invalidate.
SYNTH_VERSION = 1

_REGION_PATTERN = re.compile(r"^[A-Za-z0-9_]+$")

#: Shortest session ever emitted (seconds); durations are clamped to
#: ``[_MIN_DURATION, horizon - start]``.
_MIN_DURATION = 60.0


@dataclass(frozen=True)
class SynthConfig:
    """All knobs of one synthetic city workload.

    Every field participates in :meth:`fingerprint`; changing any single
    one (seed included) changes the fingerprint, and equal configs
    synthesize byte-identical stores.

    Attributes:
        region: city/region label, ``[A-Za-z0-9_]+``.  Prefixes content
            ids, ISP names and the numeric id space, so regions are
            disjoint by construction (see the module docstring).
        seed: master RNG seed; every random stream derives from it.
        days: horizon length in whole days.
        users: population size.
        catalogue_size: concurrently available catalogue slots.
        sessions_per_user_day: expected demand intensity (sessions per
            user per weekday; weekends scale by ``weekend_multiplier``).
        zipf_exponent: catalogue popularity skew (``w ~ rank^-s``).
        popularity_drift: fraction of the catalogue's rank range an
            item drifts (in its own fixed random direction) across the
            whole horizon; 0 freezes the popularity ranking.
        catalogue_churn: fraction of catalogue slots replaced per day;
            replacements are staggered across slots, and a replaced
            slot starts a new content generation (a fresh content id at
            the slot's current rank).
        peak_hour: centre of the diurnal demand peak (0-23, local).
        diurnal_strength: 0 gives a flat daily profile, 1 concentrates
            demand entirely in the evening bump.
        weekend_multiplier: demand multiplier on days 5 and 6 of each
            week (the trace starts on a Monday).
        num_isps: ISPs in the region.
        isp_skew: Zipf exponent over ISP market shares (0 = equal
            shares).
        num_exchanges: exchanges per ISP.
        num_pops: PoPs per ISP (an exchange belongs to PoP
            ``exchange % num_pops``).
        exchange_skew: Zipf exponent over exchange attachment -- how
            concentrated users are on the region's big exchanges.
        user_activity_skew: Zipf exponent over per-user demand weight
            (0 = uniform viewers).
        mean_duration: mean session length in seconds (log-normal).
        duration_sigma: log-normal sigma of session length.
        catalogue_prefix: content-id prefix; ``None`` uses ``region``.
            Give several regions the *same* prefix to model a shared
            catalogue whose swarms span regions (the federation
            ledger's cross-region case).
    """

    region: str = "metro"
    seed: int = 0
    days: int = 7
    users: int = 1000
    catalogue_size: int = 300
    sessions_per_user_day: float = 1.2
    zipf_exponent: float = 0.9
    popularity_drift: float = 0.0
    catalogue_churn: float = 0.0
    peak_hour: float = 20.0
    diurnal_strength: float = 0.7
    weekend_multiplier: float = 1.15
    num_isps: int = 4
    isp_skew: float = 1.0
    num_exchanges: int = 48
    num_pops: int = 4
    exchange_skew: float = 0.6
    user_activity_skew: float = 0.5
    mean_duration: float = 1500.0
    duration_sigma: float = 0.5
    catalogue_prefix: Optional[str] = None

    def __post_init__(self) -> None:
        if not _REGION_PATTERN.match(self.region):
            raise ValueError(
                f"region must match [A-Za-z0-9_]+, got {self.region!r} "
                "(region-prefixed ids must sort like region names)"
            )
        if self.catalogue_prefix is not None and not _REGION_PATTERN.match(
            self.catalogue_prefix
        ):
            raise ValueError(
                f"catalogue_prefix must match [A-Za-z0-9_]+, "
                f"got {self.catalogue_prefix!r}"
            )
        for name, minimum in (
            ("days", 1),
            ("users", 1),
            ("catalogue_size", 1),
            ("num_isps", 1),
            ("num_exchanges", 1),
            ("num_pops", 1),
        ):
            if getattr(self, name) < minimum:
                raise ValueError(
                    f"{name} must be >= {minimum}, got {getattr(self, name)!r}"
                )
        if self.sessions_per_user_day <= 0:
            raise ValueError(
                "sessions_per_user_day must be > 0, "
                f"got {self.sessions_per_user_day!r}"
            )
        for name in ("zipf_exponent", "isp_skew", "exchange_skew", "user_activity_skew"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        for name in ("popularity_drift", "catalogue_churn", "diurnal_strength"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(
                    f"{name} must be in [0, 1], got {getattr(self, name)!r}"
                )
        if not 0.0 <= self.peak_hour < 24.0:
            raise ValueError(f"peak_hour must be in [0, 24), got {self.peak_hour!r}")
        if self.weekend_multiplier <= 0:
            raise ValueError(
                f"weekend_multiplier must be > 0, got {self.weekend_multiplier!r}"
            )
        if self.mean_duration <= 0:
            raise ValueError(
                f"mean_duration must be > 0, got {self.mean_duration!r}"
            )
        if self.duration_sigma < 0:
            raise ValueError(
                f"duration_sigma must be >= 0, got {self.duration_sigma!r}"
            )

    @property
    def horizon(self) -> float:
        """Trace horizon in seconds (whole days)."""
        return self.days * SECONDS_PER_DAY

    @property
    def content_prefix(self) -> str:
        """The prefix content ids carry (``catalogue_prefix`` or region)."""
        return self.catalogue_prefix or self.region

    @property
    def id_base(self) -> int:
        """Region-derived base for session and user ids.

        A pure function of the region name, so regions occupy disjoint
        numeric id ranges without any coordination between synthesizers.
        """
        return (zlib.crc32(self.region.encode("ascii")) % 999_983) * 10**12

    def fingerprint(self) -> str:
        """Stable content hash of (seed, params).

        Covers every config field plus :data:`SYNTH_VERSION` and
        :data:`~repro.trace.store.STORE_VERSION`, so any change that
        could alter output bytes changes the fingerprint.
        """
        payload = {
            "synth_version": SYNTH_VERSION,
            "store_version": STORE_VERSION,
            "params": asdict(self),
        }
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return blake2b(blob, digest_size=16).hexdigest()

    @property
    def cache_token(self) -> str:
        """A shard-cache token for this config's synthesized trace."""
        return f"synth:{self.fingerprint()}"

    def _derived_seed(self, stream: str) -> int:
        """Independent, reproducible seed for one named random stream."""
        return (zlib.crc32(stream.encode("ascii")) ^ (self.seed * 0x9E3779B1)) & (
            2**31 - 1
        )


@dataclass(frozen=True)
class SynthResult:
    """What one :func:`synthesize` call produced (or reused).

    Attributes:
        path: the store file.
        fingerprint: :meth:`SynthConfig.fingerprint` of the config.
        cache_token: shard-cache token for simulating this store.
        sessions: session records in the store.
        users_active: distinct users with at least one session.
        distinct_items: distinct content ids that received sessions
            (> ``catalogue_size`` once churn rolls generations).
        horizon: trace horizon in seconds.
        reused: True when an existing content-addressed store matched
            the fingerprint and synthesis was skipped entirely.
    """

    path: Path
    fingerprint: str
    cache_token: str
    sessions: int
    users_active: int
    distinct_items: int
    horizon: float
    reused: bool


def _hourly_cumulative(config: SynthConfig) -> List[float]:
    """Cumulative weights of the 24 in-day demand hours.

    A raised-cosine bump centred on ``peak_hour`` blended with a flat
    floor by ``diurnal_strength`` -- the inverse-CDF table every
    session start time is drawn from.
    """
    strength = config.diurnal_strength
    weights = []
    for hour in range(24):
        phase = 2.0 * math.pi * (hour + 0.5 - config.peak_hour) / 24.0
        bump = (0.5 * (1.0 + math.cos(phase))) ** 2
        weights.append((1.0 - strength) + strength * bump)
    return list(accumulate(weights))


def _build_population(config: SynthConfig):
    """Per-user attachment/bitrate columns (no User objects).

    Returns parallel lists: ISP ref (index into the region ISP names),
    pop, exchange, bitrate, device ref (index into device names), plus
    the cumulative per-user activity weights used to sample viewers.
    """
    rng = random.Random(config._derived_seed("population"))
    isp_cum = list(accumulate(zipf_weights(config.num_isps, config.isp_skew)))
    exchange_cum = list(
        accumulate(zipf_weights(config.num_exchanges, config.exchange_skew))
    )
    device_cum = list(accumulate(d.share for d in DEFAULT_DEVICE_MIX))
    activity = zipf_weights(config.users, config.user_activity_skew)
    isp_refs: List[int] = []
    pops: List[int] = []
    exchanges: List[int] = []
    bitrates: List[float] = []
    device_refs: List[int] = []
    for _ in range(config.users):
        isp = bisect_right(isp_cum, rng.random() * isp_cum[-1])
        isp = min(isp, config.num_isps - 1)
        rank = bisect_right(exchange_cum, rng.random() * exchange_cum[-1])
        rank = min(rank, config.num_exchanges - 1)
        # Rotate popular exchanges per ISP so the region's load is not
        # stacked on the same exchange index in every ISP tree.
        exchange = (rank + isp * 7) % config.num_exchanges
        device = bisect_right(device_cum, rng.random() * device_cum[-1])
        device = min(device, len(DEFAULT_DEVICE_MIX) - 1)
        isp_refs.append(isp)
        pops.append(exchange % config.num_pops)
        exchanges.append(exchange)
        bitrates.append(DEFAULT_DEVICE_MIX[device].bitrate)
        device_refs.append(device)
    # Shuffle activity ranks over users so user_id order carries no
    # popularity structure (ranks, not weights, are permuted: the
    # weight multiset -- and thus total demand -- is skew-exact).
    order = list(range(config.users))
    rng.shuffle(order)
    user_cum = list(accumulate(activity[order[u]] for u in range(config.users)))
    return isp_refs, pops, exchanges, bitrates, device_refs, user_cum


def _slot_drift(config: SynthConfig) -> List[float]:
    """Each slot's fixed drift direction in [-1, 1]."""
    rng = random.Random(config._derived_seed("catalogue"))
    return [rng.uniform(-1.0, 1.0) for _ in range(config.catalogue_size)]


def synthesize(
    config: SynthConfig, path: Union[str, Path], *, force: bool = False
) -> SynthResult:
    """Generate ``config``'s workload into a binary session store.

    One deterministic pass: for each day, each catalogue slot's demand
    is Poisson around its (drifted, churned, diurnally shaped) share of
    the day's total, and each session is appended to the store as raw
    fields -- no Session objects, no JSONL.  The write is atomic (temp
    file + rename) and a ``<path>.synth.json`` sidecar records the
    config fingerprint; a later call with an unchanged config sees the
    sidecar and returns ``reused=True`` without touching the store
    (pass ``force=True`` to regenerate anyway).
    """
    path = Path(path)
    fingerprint = config.fingerprint()
    sidecar = path.with_name(path.name + ".synth.json")
    if not force and path.exists() and sidecar.exists():
        try:
            meta = json.loads(sidecar.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            meta = None
        if meta is not None and meta.get("fingerprint") == fingerprint:
            return SynthResult(
                path=path,
                fingerprint=fingerprint,
                cache_token=config.cache_token,
                sessions=int(meta["sessions"]),
                users_active=int(meta["users_active"]),
                distinct_items=int(meta["distinct_items"]),
                horizon=config.horizon,
                reused=True,
            )

    isp_refs, pops, exchanges, bitrates, device_refs, user_cum = _build_population(
        config
    )
    isp_names = [f"{config.region}/isp-{i}" for i in range(config.num_isps)]
    device_names = [d.name for d in DEFAULT_DEVICE_MIX]
    drift = _slot_drift(config)
    hour_cum = _hourly_cumulative(config)
    horizon = config.horizon
    prefix = config.content_prefix
    id_base = config.id_base
    log_mu = math.log(config.mean_duration) - config.duration_sigma**2 / 2.0

    sessions_written = 0
    active_users = set()
    distinct_items = set()
    temp_path = path.with_name(path.name + ".tmp")
    writer = StoreWriter(temp_path, horizon=horizon)
    try:
        for day in range(config.days):
            rng = random.Random(config._derived_seed(f"day-{day}"))
            day_frac = day / max(config.days - 1, 1)
            weights = []
            for slot in range(config.catalogue_size):
                shift = round(
                    drift[slot]
                    * config.popularity_drift
                    * config.catalogue_size
                    * day_frac
                )
                rank = (slot + shift) % config.catalogue_size
                weights.append((rank + 1) ** -config.zipf_exponent)
            total_weight = sum(weights)
            day_total = (
                config.users
                * config.sessions_per_user_day
                * (config.weekend_multiplier if day % 7 in (5, 6) else 1.0)
            )
            day_start = day * SECONDS_PER_DAY
            for slot in range(config.catalogue_size):
                expected = day_total * weights[slot] / total_weight
                count = sample_poisson(rng, expected)
                if count == 0:
                    continue
                generation = math.floor(
                    config.catalogue_churn * day + slot / config.catalogue_size
                )
                content_id = f"{prefix}/c{slot:05d}.g{generation}"
                distinct_items.add(content_id)
                for _ in range(count):
                    hour = bisect_right(hour_cum, rng.random() * hour_cum[-1])
                    hour = min(hour, 23)
                    start = day_start + hour * 3600.0 + rng.random() * 3600.0
                    user = bisect_right(user_cum, rng.random() * user_cum[-1])
                    user = min(user, config.users - 1)
                    if config.duration_sigma > 0:
                        raw = rng.lognormvariate(log_mu, config.duration_sigma)
                    else:
                        raw = config.mean_duration
                    duration = min(max(raw, _MIN_DURATION), horizon - start)
                    active_users.add(user)
                    writer.append_fields(
                        session_id=id_base + sessions_written,
                        user_id=id_base + user,
                        content_id=content_id,
                        start=start,
                        duration=duration,
                        bitrate=bitrates[user],
                        isp=isp_names[isp_refs[user]],
                        pop=pops[user],
                        exchange=exchanges[user],
                        device=device_names[device_refs[user]],
                    )
                    sessions_written += 1
        writer.close()
        os.replace(temp_path, path)
    except BaseException:
        writer.close()
        temp_path.unlink(missing_ok=True)
        raise
    meta = {
        "fingerprint": fingerprint,
        "store_version": STORE_VERSION,
        "sessions": sessions_written,
        "users_active": len(active_users),
        "distinct_items": len(distinct_items),
        "params": asdict(config),
    }
    sidecar_tmp = sidecar.with_name(sidecar.name + ".tmp")
    sidecar_tmp.write_text(json.dumps(meta, sort_keys=True), encoding="utf-8")
    os.replace(sidecar_tmp, sidecar)
    return SynthResult(
        path=path,
        fingerprint=fingerprint,
        cache_token=config.cache_token,
        sessions=sessions_written,
        users_active=len(active_users),
        distinct_items=len(distinct_items),
        horizon=horizon,
        reused=False,
    )


def ensure_store(
    config: SynthConfig, directory: Union[str, Path]
) -> SynthResult:
    """A content-addressed store for ``config`` under ``directory``.

    The store lives at ``synth-<region>-<fingerprint16>.store``; an
    existing file with a matching sidecar is reused as-is, so repeated
    synthesis of the same config costs one sidecar read.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    name = f"synth-{config.region}-{config.fingerprint()[:16]}.store"
    return synthesize(config, directory / name)
