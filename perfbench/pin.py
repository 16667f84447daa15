"""Recompute ``pins.json``: the output digest of every pool instance.

    python3 perfbench/pin.py

Runs each workload family once per pool seed at the full and smoke sizes,
checks its invariants, and writes the digests the benchmark compares
against. The cascade digests are taken on the numpy leg and must equal the
python leg's, or nothing is written. Only re-pin when a change is meant to
alter the library's outputs.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import PINS_PATH, WORKLOADS, make_state  # noqa: E402


def pool_digests(name: str, smoke: bool) -> dict:
    """Digest of every pool instance (run seed 0 visits them in seed order)."""
    workload = WORKLOADS[name]
    state = make_state(name, 0, smoke)
    digests = {}
    for i in range(state.pool):
        output = workload.op(state, i)
        workload.invariants(state, i, output)
        digests[str(state.seed_of(i))] = workload.digest(state, i, output)
    return digests


def main() -> None:
    pins = {}
    for mode in ("smoke", "full"):
        smoke = mode == "smoke"
        pins[mode] = {name: pool_digests(name, smoke) for name in
                      ("fkp_pipeline", "isp_design", "cascade", "growth")}
        python_leg = pool_digests("cascade_python", smoke)
        assert python_leg == pins[mode]["cascade"], (python_leg, pins[mode]["cascade"])
        print(mode, json.dumps(pins[mode], indent=1), flush=True)
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS_PATH}")


if __name__ == "__main__":
    main()
