#!/usr/bin/env python3
"""Write pins.json: the exact counts of every engine run in the first
default-seed iterations of each workload.

    python3 perfbench/make_pins.py

Re-pin only with a change that deliberately alters seeded counts, and say
why in that change.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402

PINNED_ITERATIONS = 2


def main() -> int:
    digests = {}
    tap = harness.RunTap()
    tap.install()
    try:
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            for name, cls in harness.WORKLOADS.items():
                workload = cls()
                workload.setup(Path(tmp))
                runs = [
                    harness.run_iteration(workload, harness.DEFAULT_SEED, i, tap, None)
                    for i in range(PINNED_ITERATIONS)
                ]
                for it in runs:
                    if it.failures:
                        raise SystemExit(f"{name} iteration {it.index}: {it.failures}")
                digests[name] = [[list(d) for d in it.digest] for it in runs]
    finally:
        tap.restore()
    pins = {"seed": harness.DEFAULT_SEED, "digests": digests}
    harness.PINS_PATH.write_text(json.dumps(pins) + "\n", encoding="utf-8")
    print(f"wrote {harness.PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
