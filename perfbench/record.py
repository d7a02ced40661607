"""Record reference digests for a range of seeds in ``perfbench/digests.json``.

Usage, from the repository root::

    python3 perfbench/record.py --workload london --seeds 0-31

Each reference is computed by the workload's ``reference`` path
(memory grouping, batched reduction, serial backend) with the same
kernel pinning as its timed runs, from the same seeded inputs.  Timed
runs must then reproduce these digests bit for bit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.run import WORKLOADS, have_sources, prepared, run_child  # noqa: E402
from perfbench.verify import BOOK  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seeds", required=True, help="inclusive range, e.g. 0-31"
    )
    args = parser.parse_args(argv)
    if not have_sources():
        print("no program sources to record from", file=sys.stderr)
        return 2
    first, last = (int(part) for part in args.seeds.split("-"))
    workload = WORKLOADS[args.workload]
    book = json.loads(BOOK.read_text(encoding="utf-8")) if BOOK.exists() else {}
    entries = book.setdefault(workload.name, {})
    for seed in range(first, last + 1):
        with prepared(workload, seed, seconds=1.0) as (spec, _prep):
            entry = run_child(
                dict(spec, role="reference"), Path(spec["work"]), workload.compiled
            )
            entry["inputs"] = spec["inputs"]["fingerprint"]
        entries[str(seed)] = entry
        print(f"{workload.name} seed {seed}: {entry['digest']} ({entry['sessions']})")
        book[workload.name] = dict(sorted(entries.items(), key=lambda kv: int(kv[0])))
        BOOK.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
