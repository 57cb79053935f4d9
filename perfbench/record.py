"""Re-record perfbench/expected.json: the seed-0 counts, verdicts and CSV
digests that every benchmark run compares against.

    python3 perfbench/record.py

Re-record only for a change meant to alter these values, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from tracing import Tracer
    from workloads import WORKLOADS

    tracer = Tracer(run.load_modules())
    expected = {}
    for name, cls in WORKLOADS.items():
        workload = cls(str(run.ROOT), 0)
        (run.ROOT / ".perfbench_work").mkdir(exist_ok=True)
        work = tempfile.mkdtemp(prefix="record-", dir=run.ROOT / ".perfbench_work")
        try:
            _, outcome, layers = run.one_op(workload, work, 0, tracer)
        finally:
            shutil.rmtree(work)
        if outcome.problems:
            print(f"{name}: not recorded, checks failed: {outcome.problems}", file=sys.stderr)
            return 1
        expected[name] = {
            "counts": run.observed_counts(outcome, layers),
            "verdicts": outcome.verdicts,
            "digests": outcome.digests,
        }
        print(f"{name}: {expected[name]['counts']}")
    with open(run.HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
