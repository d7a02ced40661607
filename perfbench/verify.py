"""Result verification: digests, invariants and the per-seed digest book.

A result's digest is the SHA-256 of its canonical JSON payload
(:func:`repro.sim.service.result_to_payload`: sorted collections,
shortest-round-trip floats), so two results have equal digests exactly
when they are equal bit for bit.  Every timed run's digest is checked
against the one recorded for its workload and seed:

* ``perfbench/digests.json`` holds digests committed for a range of
  seeds, computed by :mod:`perfbench.record` through a different
  pipeline path than the timed runs (memory grouping, batched
  reduction), so a match also checks the identity contract;
* for any other seed the same reference is computed once per checkout
  and kept under ``.bench_build/digests/``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BOOK = Path(__file__).resolve().parent / "digests.json"


def digest(results: Sequence) -> str:
    """SHA-256 of the canonical payloads of ``results`` (in order).

    The hash is that of the compact, key-sorted JSON array of the
    payloads, fed to it piece by piece: verification must not add a
    whole result's JSON text to the measured process's peak RSS.
    """
    from repro.sim.service import result_to_payload

    encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
    hasher = hashlib.sha256(b"[")
    for position, result in enumerate(results):
        if position:
            hasher.update(b",")
        for chunk in encoder.iterencode(result_to_payload(result)):
            hasher.update(chunk.encode("utf-8"))
    hasher.update(b"]")
    return hasher.hexdigest()


def problems(results: Sequence, sessions: Optional[int]) -> List[str]:
    """Invariant violations of ``results`` over ``sessions`` input sessions.

    Every result must account for every input session, and its offload
    (the share of demanded bits served by peers) must lie in [0, 1].
    ``sessions=None`` skips the count check (the count is not yet known).
    """
    found = []
    for position, result in enumerate(results):
        if sessions is not None and result.total.sessions != sessions:
            found.append(
                f"result {position}: {result.total.sessions} sessions, "
                f"expected {sessions}"
            )
        offload = result.offload_fraction()
        if not 0.0 <= offload <= 1.0:
            found.append(f"result {position}: offload {offload!r} outside [0, 1]")
    return found


class DigestBook:
    """Reference digests by workload and seed: committed, then local."""

    def __init__(self, local_dir: Path, committed: Path = BOOK) -> None:
        self.local_dir = local_dir
        self.committed: Dict[str, Dict[str, Dict]] = (
            json.loads(committed.read_text(encoding="utf-8"))
            if committed.exists()
            else {}
        )

    def _local(self, workload: str, seed: int) -> Path:
        return self.local_dir / f"{workload}-{seed}.json"

    def lookup(self, workload: str, seed: int, inputs: str) -> Optional[Dict]:
        """``{"digest", "sessions", "inputs"}`` recorded for these inputs.

        ``inputs`` is the fingerprint of the seed's inputs: an entry
        recorded for inputs made another way is no reference.
        """
        entries = [self.committed.get(workload, {}).get(str(seed))]
        path = self._local(workload, seed)
        if path.exists():
            entries.append(json.loads(path.read_text(encoding="utf-8")))
        for entry in entries:
            if entry is not None and entry.get("inputs") == inputs:
                return entry
        return None

    def record(self, workload: str, seed: int, entry: Dict) -> None:
        """Keep a freshly computed reference for later runs in this checkout."""
        path = self._local(workload, seed)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(entry) + "\n", encoding="utf-8")
