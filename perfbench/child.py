"""One measured process: set the program up, then time or trace it.

``perfbench/run.py`` starts one of these per role, so that each
workload's peak RSS is its own process's::

    python3 perfbench/child.py SPEC.json

The spec names the workload, its prepared inputs, the role and where
to write the JSON outcome.  Roles:

* ``setup``: set up and stop (one more ``setup_s`` sample);
* ``measure``: set up, then time the entry point until ``seconds``
  have passed (tracing off);
* ``trace``: set up, time one call untraced and one traced;
* ``reference``: compute the reference results' digest.
"""

import time

# Set-up is timed from here: the program's imports are part of it.
START = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def kernel_notes(workload, pinned) -> list:
    """What ran against what the workload pins, from the ``PROFILE`` counters."""
    from repro.sim import kernel_columns
    from repro.sim.profiling import PROFILE

    notes = []
    if workload.compiled:
        module = sys.modules.get("repro.sim._ckernel")
        if module is None or Path(module.__file__) != Path(pinned):
            notes.append("the kernel built from this checkout was not loaded")
        if PROFILE.compiled_tasks == 0:
            notes.append("the compiled kernel ran no task")
        if workload.fused and PROFILE.fused_tasks == 0:
            notes.append("the fused decoder ran no task")
    elif (
        kernel_columns.HAVE_COMPILED
        or PROFILE.compiled_tasks
        or PROFILE.fused_tasks
    ):
        notes.append("the compiled kernel ran on a pure-python workload")
    return notes


def checked(workload, outcome, pinned) -> dict:
    """An outcome as JSON, with every verification failure it shows."""
    from perfbench.verify import digest, problems

    notes = outcome.notes + kernel_notes(workload, pinned)
    notes += problems(outcome.results, outcome.sessions)
    if outcome.late:
        notes.append(f"{outcome.late} sessions dropped as late")
    return {
        "wall": outcome.wall,
        "latencies": outcome.latencies,
        "sessions": outcome.results[0].total.sessions,
        "attempted": outcome.sessions if workload.open_loop else 1,
        "late": outcome.late,
        "digest": digest(outcome.results),
        "notes": notes,
    }


def profile_snapshot() -> dict:
    from repro.sim.profiling import PROFILE

    return {name: getattr(PROFILE, name) for name in PROFILE.__slots__}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    if spec["kernel"]:
        from perfbench import ckernel

        ckernel.install(Path(spec["kernel"]))
    from perfbench import workloads

    workloads.import_program()
    imported = time.perf_counter()
    from repro.sim.profiling import PROFILE

    workload = workloads.WORKLOADS[spec["workload"]]
    work = Path(spec["work"])
    seconds = spec["seconds"]
    loaded = workload.load(dict(spec["inputs"], root=spec["root"]))
    out: dict = {}
    if spec["role"] == "reference":
        from perfbench.verify import digest

        results = workload.reference(loaded)
        out["digest"] = digest(results)
        out["sessions"] = results[0].total.sessions
        return _finish(spec, out)

    began = time.perf_counter()
    state = workload.setup(loaded, work, seconds)
    out["setup_s"] = (imported - START) + (time.perf_counter() - began)
    PROFILE.enabled = True
    try:
        if spec["role"] == "measure":
            out["iterations"] = []
            began = time.perf_counter()
            while True:
                PROFILE.reset()
                # Each call starts from an empty collector, so the
                # full collections it triggers do not depend on
                # garbage the calls before it left behind.
                gc.collect()
                outcome = workload.run(state)
                out["iterations"].append(checked(workload, outcome, spec["kernel"]))
                # Stop before a call that would end past ``seconds``.
                elapsed = time.perf_counter() - began
                per_call = elapsed / len(out["iterations"])
                if workload.open_loop or elapsed + per_call > seconds:
                    break
        elif spec["role"] == "trace":
            out.update(_trace(workload, state, loaded, work, spec))
            state = out.pop("state")
    finally:
        workload.close(state)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if workload.open_loop:
        # Computed after the timed calls, and after their peak RSS was read.
        from perfbench.verify import digest

        out["reference_digest"] = digest(workload.reference(loaded))
    return _finish(spec, out)


def _trace(workload, state, loaded, work: Path, spec: dict) -> dict:
    """One untraced and one traced call; the traced one's layer metrics."""
    from perfbench.layers import layer_metrics
    from perfbench.tracer import Tracer, instrumented
    from repro.sim.profiling import PROFILE

    PROFILE.reset()
    gc.collect()
    untraced = workload.run(state)
    first = checked(workload, untraced, spec["kernel"])
    if workload.open_loop:
        workload.close(state)
        state = workload.setup(loaded, work, spec["seconds"])
    PROFILE.reset()
    gc.collect()
    tracer = Tracer()
    tracer.group = "epoch-0" if workload.open_loop else "run-1"
    with instrumented(tracer):
        traced = workload.run(state, tracer)
    profile = profile_snapshot()
    second = checked(workload, traced, spec["kernel"])
    if second["digest"] != first["digest"]:
        second["notes"].append("the traced run's result differs from the untraced")
    tracer.dump(Path(spec["trace_out"]))
    return {
        "state": state,
        "iterations": [first, second],
        "layers": layer_metrics(tracer, profile, traced, untraced.wall),
    }


def _finish(spec: dict, out: dict) -> int:
    Path(spec["out"]).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
