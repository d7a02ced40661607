"""Synthetic trace generator: the stand-in for the proprietary iPlayer trace.

The paper drives its simulator from a month of BBC iPlayer session
records (start time, duration, bitrate per session) for London users.
That trace is not public, so this module generates traces with the same
*statistical structure*, every aspect of which is an explicit,
documented parameter:

* Zipf catalogue popularity (Fig. 3's heavy tail),
* per-item Poisson arrivals shaped by a TV diurnal/weekly profile,
* session durations = programme length x a Beta-distributed completion,
* a device/bitrate mix centred on the paper's modal 1.5 Mbps,
* ISP market shares and uniform exchange-point attachment,
* log-normally skewed per-user activity.

Scale is set by ``num_users`` / ``expected_sessions`` -- defaults are
roughly 1:100 of the paper's London month (Table I), which keeps every
experiment laptop-sized while exercising identical code paths.  All
randomness flows from a single seed: traces are fully reproducible.

Generation builds no ``Session`` unless asked to.
:meth:`TraceGenerator.iter_sessions` returns a :class:`GeneratorScan`:
it reduces the catalogue and population to per-item and per-user
columns, then packs each session straight into a raw 56 B store record
(:mod:`repro.trace.store`).  External grouping sorts those records as
they are; iterating the scan, or :meth:`TraceGenerator.generate`,
decodes the same records into ``Session`` values, so both routes see
one implementation and identical sessions.  Beta completions come from
:func:`beta_sampler`, which reproduces ``random.Random.betavariate``
draw for draw.
"""

from __future__ import annotations

import math
import random
import struct
import zlib
from array import array
from dataclasses import dataclass, field, replace
from itertools import accumulate, count
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.topology.city import CityNetwork, default_london
from repro.trace.catalogue import Catalogue
from repro.trace.diurnal import DiurnalProfile, UK_TV_PROFILE
from repro.trace.events import SECONDS_PER_DAY, Trace
from repro.trace.population import DEFAULT_DEVICE_MIX, DeviceProfile, Population
from repro.trace.store import RECORD_SIZE, RecordScan

__all__ = [
    "GeneratorConfig",
    "GeneratorScan",
    "TraceGenerator",
    "beta_sampler",
    "generate_trace",
    "sample_poisson",
]


@dataclass(frozen=True)
class GeneratorConfig:
    """All knobs of the synthetic trace.

    Attributes:
        num_users: population size (paper: 3.3M London users; default is
            a 1:100-ish scale).
        num_items: catalogue size.
        days: trace length in days (paper: one month).
        expected_sessions: expected total session count over the horizon
            (paper: 23.5M for London in Sep 2013).
        zipf_exponent: catalogue popularity skew.
        pinned_views: explicit expected view counts for named items --
            used to plant the Fig. 2 popularity-tier exemplars.
        completion_alpha: alpha of the Beta completion distribution.
        completion_beta: beta of the Beta completion distribution (the
            default Beta(6, 2) has mean 0.75: most viewers watch most of
            a programme).
        min_session_seconds: sessions shorter than this are clamped up
            (trackers rarely log sub-minute sessions).
        activity_sigma: log-normal sigma of the per-user activity skew.
        seed: master seed; every derived stream is deterministic in it.
    """

    num_users: int = 30_000
    num_items: int = 1_500
    days: int = 30
    expected_sessions: float = 200_000.0
    zipf_exponent: float = 0.9
    pinned_views: Mapping[str, float] = field(default_factory=dict)
    completion_alpha: float = 6.0
    completion_beta: float = 2.0
    min_session_seconds: float = 60.0
    activity_sigma: float = 1.0
    seed: int = 20180701

    def __post_init__(self) -> None:
        if self.num_users < 1:
            raise ValueError(f"num_users must be >= 1, got {self.num_users}")
        if self.num_items < 1:
            raise ValueError(f"num_items must be >= 1, got {self.num_items}")
        if self.days < 1:
            raise ValueError(f"days must be >= 1, got {self.days}")
        if self.expected_sessions < 0:
            raise ValueError(
                f"expected_sessions must be >= 0, got {self.expected_sessions}"
            )
        if self.completion_alpha <= 0 or self.completion_beta <= 0:
            raise ValueError("completion Beta parameters must be > 0")
        if self.min_session_seconds <= 0:
            raise ValueError(
                f"min_session_seconds must be > 0, got {self.min_session_seconds}"
            )

    @property
    def horizon(self) -> float:
        """Trace length in seconds."""
        return self.days * SECONDS_PER_DAY

    def scaled(self, factor: float) -> "GeneratorConfig":
        """A copy with users/sessions scaled by ``factor`` (for quick runs)."""
        if factor <= 0:
            raise ValueError(f"factor must be > 0, got {factor}")
        return replace(
            self,
            num_users=max(1, int(self.num_users * factor)),
            expected_sessions=self.expected_sessions * factor,
            pinned_views={k: v * factor for k, v in self.pinned_views.items()},
        )


def sample_poisson(rng: random.Random, lam: float) -> int:
    """Draw from Poisson(lam) using only the stdlib ``random.Random``.

    Knuth's product method below ``lam = 30``; a rounded normal
    approximation (with continuity correction, clamped at 0) above --
    exact tails are irrelevant at that size and the approximation keeps
    generation O(1) for popular items.
    """
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam!r}")
    if lam == 0:
        return 0
    if lam < 30.0:
        threshold = math.exp(-lam)
        count, product = 0, rng.random()
        while product > threshold:
            count += 1
            product *= rng.random()
        return count
    value = rng.gauss(lam, math.sqrt(lam))
    return max(0, int(round(value)))


def beta_sampler(
    rng: random.Random, alpha: float, beta: float
) -> Callable[[int], Iterator[float]]:
    """A function yielding ``k`` values of ``rng.betavariate(alpha, beta)``.

    The values are the floats ``rng.betavariate`` would return, in order,
    and each is drawn from ``rng`` as it is consumed, exactly as
    ``rng.betavariate`` would draw it.  For ``alpha, beta > 1``
    CPython draws a Beta as ``y / (y + z)`` from two unit-scale Gamma
    variates, each by Cheng's rejection algorithm; that code is copied
    here with Cheng's constants computed once, not per draw (its source
    is the same in CPython 3.11, 3.12 and 3.13).  Other shapes fall back
    to ``rng.betavariate`` itself.
    """
    if alpha <= 1.0 or beta <= 1.0:
        betavariate = rng.betavariate
        return lambda k: (betavariate(alpha, beta) for _ in range(k))
    gamma_alpha = _cheng_gamma(rng, alpha)
    gamma_beta = _cheng_gamma(rng, beta)

    def sample(k: int) -> Iterator[float]:
        for _ in range(k):
            # ``y`` is positive here, so ``betavariate`` always draws the
            # second Gamma variate.
            y = gamma_alpha()
            yield y / (y + gamma_beta())

    return sample


def _cheng_gamma(rng: random.Random, shape: float) -> Callable[[], float]:
    """``rng.gammavariate(shape, 1.0)`` for ``shape > 1``, constants hoisted.

    Cheng's rejection algorithm exactly as CPython's ``gammavariate``
    runs it: the same draws and the same float operations (its final
    ``x * 1.0`` scale is exact, so it is left out).
    """
    draw = rng.random
    log, exp = math.log, math.exp
    magic = random.SG_MAGICCONST
    ainv = math.sqrt(2.0 * shape - 1.0)
    bbb = shape - random.LOG4
    ccc = shape + ainv

    def gamma() -> float:
        while True:
            u1 = draw()
            if not 1e-7 < u1 < 0.9999999:
                continue
            u2 = 1.0 - draw()
            v = log(u1 / (1.0 - u1)) / ainv
            x = shape * exp(v)
            z = u1 * u1 * u2
            r = bbb + ccc * v - x
            if r + magic - 4.5 * z >= 0.0 or r >= log(z):
                return x

    return gamma


@dataclass(frozen=True)
class TraceGenerator:
    """Generates reproducible synthetic traces from a config.

    Attributes:
        config: the trace parameters.
        city: the multi-ISP city viewers attach to (default: the paper's
            five-ISP London).
        device_mix: device/bitrate classes.
        profile: diurnal arrival-intensity profile.
    """

    config: GeneratorConfig = field(default_factory=GeneratorConfig)
    city: CityNetwork = field(default_factory=default_london)
    device_mix: Tuple[DeviceProfile, ...] = DEFAULT_DEVICE_MIX
    profile: DiurnalProfile = UK_TV_PROFILE

    def build_catalogue(self) -> Catalogue:
        """The item catalogue implied by the config (deterministic)."""
        return Catalogue.generate(
            self.config.num_items,
            self.config.expected_sessions,
            zipf_exponent=self.config.zipf_exponent,
            pinned_views=self.config.pinned_views,
            rng=random.Random(self._derived_seed("catalogue")),
        )

    def build_population(self) -> Population:
        """The viewer population implied by the config (deterministic)."""
        return Population.generate(
            self.config.num_users,
            city=self.city,
            device_mix=self.device_mix,
            activity_sigma=self.config.activity_sigma,
            rng=random.Random(self._derived_seed("population")),
        )

    def generate(self) -> Trace:
        """Generate the full trace (materialized and start-time-sorted).

        Per item: a Poisson view count, diurnal-shaped start times,
        activity-weighted viewers, Beta-completion durations, the
        viewer's device bitrate.
        """
        return Trace.from_sessions(self.iter_sessions(), horizon=self.config.horizon)

    def iter_sessions(self) -> "GeneratorScan":
        """The trace's sessions as a lazy, resumable record scan.

        The streaming twin of :meth:`generate`: identical sessions (the
        same RNG streams are consumed in the same order), produced a
        chunk of records at a time instead of collected and sorted into
        a :class:`~repro.trace.events.Trace` tuple.  Sessions arrive in
        generation order (grouped by content item), *not* sorted by
        start time; the simulator's canonical sharding makes the result
        independent of that ordering.

        The returned :class:`GeneratorScan` is an iterator of
        ``Session`` values, and also a
        :class:`~repro.trace.store.RecordScan`: external grouping takes
        its records as raw 56 B chunks, so a generated trace is sorted
        without building one ``Session``.
        """
        return GeneratorScan(self)

    def _derived_seed(self, stream: str) -> int:
        """Independent, stable seed per generation stream.

        Uses crc32 rather than ``hash()`` -- string hashing is salted per
        process and would break cross-process reproducibility.
        """
        mixed = zlib.crc32(stream.encode("utf-8")) ^ (self.config.seed * 0x9E3779B1)
        return mixed & 0x7FFFFFFF


#: A viewer's last five record fields: bitrate, ISP ref, pop, exchange,
#: device ref.
_VIEWER = struct.Struct("<dHIIH")
#: A generated record: session id, user id, content ref, start,
#: duration, then the viewer's fields pre-packed.  Byte for byte the
#: store's 56 B record.
_GENERATED = struct.Struct(f"<qqIdd{_VIEWER.size}s")
assert _GENERATED.size == RECORD_SIZE

#: Bytes per raw chunk: 1024 records.  A sort intake call unpacks a
#: whole chunk at once, so the chunk bounds that transient.
_CHUNK_BYTES = 1024 * RECORD_SIZE


class GeneratorScan(RecordScan):
    """A generator's sessions as a resumable record scan.

    What :meth:`TraceGenerator.iter_sessions` returns.  The catalogue
    and population are built on first use and reduced to compact
    columns: per item its expected views and length; per user its id
    (an ``array``), its viewer fields (one packed ``bytes``) and its
    cumulative activity weight.  The ``User`` and ``ContentItem``
    objects are dropped then.  :attr:`tables` interns every content id,
    ISP and device name up front.  Sessions are packed straight into raw
    chunks of at most 1024 records (:meth:`raw_chunks`), and iterating
    the scan decodes those same chunks into ``Session`` values.
    """

    def __init__(self, generator: TraceGenerator) -> None:
        super().__init__()
        self.generator = generator
        self._tables: Optional[Tuple[List[str], List[str], List[str]]] = None
        self._columns: Optional[tuple] = None

    @property
    def tables(self) -> Tuple[List[str], List[str], List[str]]:
        """Every content id, ISP name and device name, interned up front."""
        if self._tables is None:
            self._build_columns()
        return self._tables

    def _build_columns(self) -> None:
        catalogue = self.generator.build_catalogue()
        population = self.generator.build_population()
        isp_refs: Dict[str, int] = {}
        device_refs: Dict[str, int] = {}
        viewers = bytearray(_VIEWER.size * len(population))
        for offset, user in zip(count(0, _VIEWER.size), population.users):
            attachment = user.attachment
            _VIEWER.pack_into(
                viewers,
                offset,
                user.bitrate,
                isp_refs.setdefault(attachment.isp, len(isp_refs)),
                attachment.pop,
                attachment.exchange,
                device_refs.setdefault(user.device.name, len(device_refs)),
            )
        self._columns = (
            [(item.expected_views, item.duration) for item in catalogue],
            array("q", [user.user_id for user in population.users]),
            bytes(viewers),
            list(accumulate(population.activity_weights())),
        )
        self._tables = (
            [item.content_id for item in catalogue],
            list(isp_refs),
            list(device_refs),
        )

    def _chunks(self) -> Iterator[bytes]:
        """Per item: a Poisson view count, diurnal-shaped start times,
        activity-weighted viewers, Beta-completion durations (clamped to
        the horizon; too-short sessions dropped), packed as records."""
        if self._tables is None:
            self._build_columns()
        items, user_ids, viewers, cum_weights = self._columns
        self._columns = None
        generator = self.generator
        config = generator.config
        rng = random.Random(generator._derived_seed("sessions"))
        horizon = config.horizon
        floor = config.min_session_seconds
        completions = beta_sampler(rng, config.completion_alpha, config.completion_beta)
        sample_times = generator.profile.sample_times
        population = range(len(user_ids))
        width = _VIEWER.size
        pack_into = _GENERATED.pack_into
        chunk = bytearray(_CHUNK_BYTES)
        offset = 0
        session_id = 0
        for content_ref, (expected_views, length) in enumerate(items):
            views = sample_poisson(rng, expected_views)
            if views == 0:
                continue
            times = sample_times(views, horizon, rng)
            chosen = rng.choices(population, cum_weights=cum_weights, k=views)
            for start, viewer, completion in zip(times, chosen, completions(views)):
                duration = length * completion
                if duration < floor:
                    duration = floor
                rest = horizon - start
                if rest < duration:
                    duration = rest
                    if duration < floor:
                        continue
                pack_into(
                    chunk,
                    offset,
                    session_id,
                    user_ids[viewer],
                    content_ref,
                    start,
                    duration,
                    viewers[viewer * width : (viewer + 1) * width],
                )
                session_id += 1
                offset += RECORD_SIZE
                if offset == _CHUNK_BYTES:
                    yield bytes(chunk)
                    offset = 0
        if offset:
            yield bytes(chunk[:offset])


def generate_trace(
    config: Optional[GeneratorConfig] = None,
    *,
    city: Optional[CityNetwork] = None,
    profile: Optional[DiurnalProfile] = None,
) -> Trace:
    """One-call trace generation with defaults (see :class:`GeneratorConfig`)."""
    generator = TraceGenerator(
        config=config or GeneratorConfig(),
        city=city or default_london(),
        profile=profile or UK_TV_PROFILE,
    )
    return generator.generate()


