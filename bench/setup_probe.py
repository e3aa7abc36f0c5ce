"""One cold set-up of a workload, timed in a fresh interpreter.

    python3 bench/setup_probe.py <workload> <work dir>

Prints the seconds from before `import csbb` until the workload is ready for
its first operation: the import, then the workload's setup (registry, child
spawn and first round trip, fixed patterns and rules, Tympanic spec and
schema). Before the clock starts only the interpreter's own start-up modules
are loaded. The benchmark's modules are imported after csbb, with the clock
stopped, so the standard library modules csbb needs are charged to csbb.
"""

import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

t0 = time.perf_counter()
import csbb  # noqa: E402
import csbb.jsonlang  # noqa: E402,F401
import csbb.pretty  # noqa: E402,F401
import_s = time.perf_counter() - t0

import harness  # noqa: E402
import run  # noqa: E402

harness.use_checkout()  # so that child processes import the same csbb
wl = run.WORKLOADS[sys.argv[1]]
m = harness.csbb_modules()
t0 = time.perf_counter()
state = wl.setup(m, sys.argv[2])
setup_s = time.perf_counter() - t0
wl.close(state)
print(f"{import_s:.9f} {import_s + setup_s:.9f}")
