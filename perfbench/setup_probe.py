"""Set-up probe: a fresh interpreter from start to ready.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Imports repdtc, resolves the workload's preset, validates it and calls
``estimate_seconds``, then prints ``time.monotonic_ns()``.  ``run.py``
reads the same clock just before starting this process, so the
difference is the set-up time a CLI user waits before the first cycle.
"""

import sys
import time

import pipeline
from repdtc.harness import estimate_seconds

estimate_seconds(pipeline.make_config(sys.argv[1], int(sys.argv[2])))
print(time.monotonic_ns())
