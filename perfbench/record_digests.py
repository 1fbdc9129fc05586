"""Rewrite digests.json: the sha256 of every op's machine output on the
default seed.  Run from the root of a checkout after a change that is meant
to alter the reports:

    python3 perfbench/record_digests.py

Every op must pass the rest of the correctness gate first.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads
from run import HERE, ROOT, SRC, run_op


def main() -> int:
    sys.path.insert(0, str(SRC))
    from latring.cli import main as cli_main

    digests = {}
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="record-", dir=ROOT / ".perfbench_work")
    try:
        for name in sorted(workloads.GENERATORS):
            work = workloads.build(name, workloads.DEFAULT_SEED, Path(workdir))
            digests[name] = {}
            for op in work.ops:
                outcome = run_op(cli_main, op)
                if outcome.failure:
                    print(f"{name}: {op.key}: {outcome.failure}", file=sys.stderr)
                    return 1
                digests[name][op.key] = outcome.digest
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
