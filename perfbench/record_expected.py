"""Record the sha256 of every operation's stdout into expected.json.

    python3 perfbench/record_expected.py

Run once, at the commit that defines the benchmark.  An operation whose exit
code is the paper's verdict has its stdout recorded; one that cannot answer
at this commit is recorded from its ``derived`` stdout.  Any other outcome
stops the recording, because it would make a wrong answer the reference.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
from inputs import write_sets
from workloads import EXPECTED_FILE, WORKLOADS, compare_ops, pass_ops, sha256


def main() -> int:
    cli = run.import_package()
    record = {}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        files = write_sets(0, 1, Path(tmp))[0]
        ops = [op for w in WORKLOADS if WORKLOADS[w] is not None for op in pass_ops(w, [], 0)]
        ops += compare_ops(files)
        for op in ops:
            code, text = run.capture(cli.main, op.argv)
            if code == op.exit:
                record[op.name] = {"stdout_sha256": sha256(text), "source": "recorded"}
            elif op.derived is not None:
                record[op.name] = {"stdout_sha256": sha256(op.derived), "source": "derived",
                                   "observed": str(code)}
            else:
                print(f"{op.name}: exit {code}, expected {op.exit}", file=sys.stderr)
                return 1
    EXPECTED_FILE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
