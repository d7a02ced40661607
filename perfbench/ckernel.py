"""Build the compiled kernel from the checkout's own source, outside ``src/``.

Compiled workloads must run the ``_ckernel.c`` of the commit under
test, never a stale ``.so`` left in the source tree.  :func:`build`
compiles it into ``.bench_build/ckernel-<hash>/`` (keyed by the source
bytes and interpreter, so a rebuild happens exactly when either
changes), and :func:`install` makes ``repro.sim._ckernel`` resolve to
that file ahead of anything on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import importlib.abc
import importlib.machinery
import importlib.util
import subprocess
import sys
from pathlib import Path

MODULE = "repro.sim._ckernel"
SOURCE = Path("src/repro/sim/_ckernel.c")

#: The flags ``setup.py`` builds the extension with.  ``-ffp-contract=off``
#: is load-bearing: fused multiply-adds would break the kernel's
#: bit-for-bit contract with the python kernels.
COMPILE_ARGS = ("-O2", "-ffp-contract=off")

_BUILD_SCRIPT = """
import sys
from setuptools import Distribution, Extension
source, build_lib, build_temp, *args = sys.argv[1:]
dist = Distribution({"ext_modules": [Extension(%r, sources=[source],
    extra_compile_args=args)], "script_name": "build"})
command = dist.get_command_obj("build_ext")
command.build_lib, command.build_temp = build_lib, build_temp
command.ensure_finalized()
command.run()
print(command.get_outputs()[0])
""" % MODULE


def build(root: Path, build_root: Path) -> Path:
    """Compile ``root``'s kernel source (cached); return the ``.so`` path."""
    source = root / SOURCE
    digest = hashlib.sha256(source.read_bytes())
    digest.update(sys.version.encode())
    digest.update(" ".join(COMPILE_ARGS).encode())
    target = build_root / f"ckernel-{digest.hexdigest()[:16]}"
    built = sorted(target.glob("lib/repro/sim/_ckernel*.so"))
    if built:
        return built[0]
    # A separate interpreter keeps the compiler's chatter off this
    # process's stdout, whose last line is the benchmark's result.
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            _BUILD_SCRIPT,
            str(source),
            str(target / "lib"),
            str(target / "tmp"),
            *COMPILE_ARGS,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=600,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"kernel build failed:\n{completed.stdout}")
    return Path(completed.stdout.strip().splitlines()[-1])


class _KernelFinder(importlib.abc.MetaPathFinder):
    def __init__(self, path: Path) -> None:
        self.path = str(path)

    def find_spec(self, name, path=None, target=None):
        if name != MODULE:
            return None
        loader = importlib.machinery.ExtensionFileLoader(name, self.path)
        return importlib.util.spec_from_file_location(name, self.path, loader=loader)


def install(path: Path) -> None:
    """Resolve ``repro.sim._ckernel`` to ``path`` in this process."""
    sys.meta_path.insert(0, _KernelFinder(path))
