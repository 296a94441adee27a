"""Write ``bench/reference_hfms.csv``, the real hf-ms trajectory behind the synthetic log.

It is the ``hfms-days`` unit at the default seed: hf-ms over 2022-01-02
(the bootstrap day) and 2022-01-03 (a steady-state day) on the strips in
``data/``. ``inputs.synthetic_log`` replays its days, so the season log
that ``log-analyze`` writes has the temperatures and currents hf-ms
really chooses. Regenerate it from the root of a source checkout with

    python3 bench/make_reference.py
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import inputs

sys.path.insert(0, str(inputs.ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        inp = inputs.setup("hfms-days", inputs.DEFAULT_SEED, work / "inputs")
        res = workloads.hfms_days(inp, tracing.Tracer(), work)
        if res.failed or res.errors:
            sys.exit(f"reference run failed: {res.failures + res.errors}")
        shutil.copyfile(work / "trajectory_hf-ms.csv", inputs.REFERENCE_LOG)
    print(inputs.REFERENCE_LOG)


if __name__ == "__main__":
    main()
