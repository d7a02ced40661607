"""The benchmark of record: run one workload, verify it, print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload london --seed 1 --seconds 25 --trace 0

``--trace 0`` times the public entry point with tracing off and prints
the end-to-end metrics; ``--trace 1`` makes a separate traced run and
prints the per-layer metrics.  Every metric is printed as
``name value unit``; the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

The workloads, what each metric means and which layer metric should
move which end-to-end metric are described in ``perfbench/README.md``.
Build products, inputs and traces go under ``.bench_build/`` in the
repository root; nothing is written elsewhere.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
#: ``setup_s`` samples per run: this many set-up-only processes, plus the
#: measured one.
SETUP_PROBES = 4
#: Generous cap on one measured process; a run must end within minutes.
CHILD_TIMEOUT = 170.0

sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import ckernel  # noqa: E402
from perfbench.layers import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.openloop import percentile, tail_percentile  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.verify import DigestBook  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def child_env(work: Path, compiled: bool) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src")])
    # The program's temporary shards and spill logs stay in the checkout.
    env["TMPDIR"] = str(work / "tmp")
    env.pop("REPRO_NO_CKERNEL", None)
    if not compiled:
        env["REPRO_NO_CKERNEL"] = "1"
    return env


def run_child(spec: Dict, work: Path, compiled: bool) -> Dict:
    """Run one measured process to completion; return its JSON outcome."""
    spec_path = work / f"spec-{spec['role']}-{spec['index']}.json"
    spec = dict(spec, out=str(spec_path.with_suffix(".out.json")))
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    process = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(spec_path)],
        env=child_env(work, compiled),
        stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        code = process.wait(timeout=CHILD_TIMEOUT)
    finally:
        # Whatever happened, nothing the child started may outlive it.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if code != 0:
        raise RuntimeError(f"{spec['role']} process exited with {code}")
    return json.loads(Path(spec["out"]).read_text(encoding="utf-8"))


def reference_for(
    workload, seed: int, book: DigestBook, spec: Dict, work: Path
) -> Optional[Dict]:
    """The seed's recorded reference, computing it once if it is new."""
    inputs = spec["inputs"]["fingerprint"]
    entry = book.lookup(workload.name, seed, inputs)
    if entry is None and not workload.open_loop:
        entry = run_child(dict(spec, role="reference"), work, workload.compiled)
        entry["inputs"] = inputs
        book.record(workload.name, seed, entry)
    return entry


def tally(iterations: List[Dict], reference: Optional[Dict], in_run: Optional[str]):
    """``(attempted, failed, notes)`` over the measured iterations."""
    attempted = failed = 0
    notes: List[str] = []
    for iteration in iterations:
        problems = list(iteration["notes"])
        for expected in (reference and reference["digest"], in_run):
            if expected is not None and iteration["digest"] != expected:
                problems.append("result digest differs from the reference")
        if reference is not None and iteration["sessions"] != reference["sessions"]:
            problems.append(
                f"{iteration['sessions']} sessions, reference has "
                f"{reference['sessions']}"
            )
        attempted += iteration["attempted"]
        failed += max(iteration["late"], iteration["attempted"] if problems else 0)
        notes += problems
    return attempted, failed, notes


def end_to_end(workload, iterations: List[Dict], setups: List[float], rss: float):
    if not workload.open_loop:
        rates = [it["sessions"] / it["wall"] for it in iterations]
        latencies = [it["wall"] for it in iterations]
    else:
        (only,) = iterations
        rates = [only["sessions"] / only["wall"]]
        latencies = only["latencies"]
    return {
        "sessions_per_s": statistics.median(rates),
        "epoch_latency_p50_s": percentile(latencies, 50),
        "epoch_latency_p90_s": tail_percentile(latencies, 90),
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setups),
    }


@contextmanager
def prepared(workload, seed: int, seconds: float) -> Iterator[Tuple[Dict, Tracer]]:
    """The workload's inputs for ``seed`` and the spec of its processes.

    Yields ``(spec, prep)``: ``prep`` traced the input preparation.  The
    inputs are removed on exit.
    """
    kernel = ckernel.build(ROOT, BUILD) if workload.compiled else None
    work = BUILD / "work" / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    try:
        prep = Tracer()
        spec = {
            "root": str(ROOT),
            "workload": workload.name,
            "inputs": workload.prepare(seed, work, prep),
            "work": str(work),
            "seconds": seconds,
            "kernel": str(kernel) if kernel else None,
            "index": 0,
            "trace_out": str(BUILD / "traces" / f"{workload.name}-seed{seed}.json"),
        }
        # Write the inputs back now, so that flushing them to disk does
        # not overlap the timed set-up and calls that follow.
        os.sync()
        yield spec, prep
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not have_sources():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    compiled = workload.compiled
    with prepared(workload, args.seed, args.seconds) as (spec, prep):
        work = Path(spec["work"])
        reference = reference_for(
            workload, args.seed, DigestBook(BUILD / "digests"), spec, work
        )
        if args.trace:
            outcome = run_child(dict(spec, role="trace"), work, compiled)
            metrics = dict(outcome["layers"])
            metrics["synth.busy_s"] = prep.busy("synth")
            metrics["synth.sessions"] = prep.counters.get("synth.items", 0)
            units = PER_LAYER
        else:
            setups = [
                run_child(dict(spec, role="setup", index=i), work, compiled)["setup_s"]
                for i in range(SETUP_PROBES)
            ]
            outcome = run_child(dict(spec, role="measure"), work, compiled)
            setups.append(outcome["setup_s"])
            metrics = end_to_end(
                workload, outcome["iterations"], setups, outcome["peak_rss_mb"]
            )
            units = END_TO_END
    attempted, failed, notes = tally(
        outcome["iterations"], reference, outcome.get("reference_digest")
    )

    for note in notes:
        print(f"FAILED: {note}")
    walls = " ".join(f"{it['wall']:.3f}" for it in outcome["iterations"])
    print(f"{workload.name} seed {args.seed}: timed calls took {walls} s")
    if workload.open_loop:
        print(f"epochs delivered: {len(outcome['iterations'][0]['latencies'])}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


def have_sources() -> bool:
    """Whether the checkout holds the program the benchmark builds and runs."""
    return (ROOT / "src" / "repro").is_dir() and (ROOT / ckernel.SOURCE).is_file()


if __name__ == "__main__":
    sys.exit(main())
