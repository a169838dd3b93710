#!/usr/bin/env python3
"""Determinism guard: no wall-clock or ambient randomness in the sim.

Every run of the simulator must be a pure function of its seed — that is
what makes traces byte-identical and bugs replayable.  This lint fails
if any module under ``src/repro`` imports ``time`` or ``random``
directly; :mod:`repro.sim.rng` is the single sanctioned wrapper (it
derives streams from explicit seeds and never touches global state),
:mod:`repro.mc.explorer` may import ``time`` for its *search*
budget only (``--budget 60s`` bounds wall-clock exploration; every
simulated world it explores stays seed-deterministic), and
:mod:`repro.bench.baseline` may import it to time the headline run for
the text report's wall ms/txn line (never serialized, never read by
the simulation).

The model checker gets one extra rule: modules under ``src/repro/mc``
must not import :mod:`repro.sim.rng` either.  The checker's whole
premise is that a run is a pure function of the choice trace — a
controller or digest drawing from an RNG stream would silently break
trace replay.

Usage: ``python tools/lint_determinism.py [src-root]`` — exits non-zero
and lists offenders if any are found.
"""

from __future__ import annotations

import ast
import os
import sys

BANNED = {"time", "random"}
ALLOWED_FILES = {
    os.path.join("repro", "sim", "rng.py"),
    # wall-clock use is confined to the exploration budget; the explored
    # worlds themselves are deterministic (see the module docstring).
    os.path.join("repro", "mc", "explorer.py"),
    # the baseline's wall ms/txn report line; the JSON stays wall-free.
    os.path.join("repro", "bench", "baseline.py"),
}
#: modules under this prefix must not pull seeded randomness either —
#: a model-checking run must be a pure function of its choice trace.
MC_PREFIX = os.path.join("repro", "mc") + os.sep
MC_BANNED_MODULES = {"repro.sim.rng"}


def banned_imports(path: str, relative: str) -> list:
    with open(path) as fp:
        tree = ast.parse(fp.read(), filename=path)
    in_mc = relative.startswith(MC_PREFIX)
    allowed = relative in ALLOWED_FILES
    offenses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if not allowed and alias.name.split(".")[0] in BANNED:
                    offenses.append((node.lineno, "import %s" % alias.name))
                if in_mc and alias.name in MC_BANNED_MODULES:
                    offenses.append(
                        (node.lineno,
                         "import %s (mc must be trace-pure)" % alias.name)
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module:
                if not allowed and node.module.split(".")[0] in BANNED:
                    offenses.append(
                        (node.lineno, "from %s import ..." % node.module)
                    )
                if in_mc and node.module in MC_BANNED_MODULES:
                    offenses.append(
                        (node.lineno,
                         "from %s import ... (mc must be trace-pure)"
                         % node.module)
                    )
            elif in_mc and node.level > 0 and node.module and \
                    node.module.endswith("sim.rng"):
                offenses.append(
                    (node.lineno,
                     "relative import of sim.rng (mc must be trace-pure)")
                )
    return offenses


def main(argv: list) -> int:
    root = argv[1] if len(argv) > 1 else "src"
    failures = []
    for dirpath, _dirnames, filenames in os.walk(os.path.join(root, "repro")):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            relative = os.path.relpath(path, root)
            for lineno, what in banned_imports(path, relative):
                failures.append("%s:%d: %s" % (path, lineno, what))
    if failures:
        print("determinism lint: banned wall-clock/randomness imports "
              "(see tools/lint_determinism.py docstring for the rules):")
        for failure in failures:
            print("  " + failure)
        return 1
    print("determinism lint: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
