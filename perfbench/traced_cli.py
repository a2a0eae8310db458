"""`qexpand <args>` with the tracer installed, for the traced cli_numeric run.

Stdout is exactly the command's own.  The span aggregate goes to stderr as
one last line, `perfbench-trace <json>`, with `ready_at`: the wall-clock
time at which qexpand.cli had been imported, so the parent can compute
start-up time from the moment it spawned this process.

Usage: python3 perfbench/traced_cli.py numeric-verify --output json ...
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import qexpand.cli  # noqa: E402

ready_at = time.time()

from tracer import Tracer  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    rc = tracer.call("cli.invoke", qexpand.cli.main, (sys.argv[1:],), {})
    sys.stdout.flush()
    snap = tracer.snapshot()
    snap["ready_at"] = ready_at
    sys.stderr.write("perfbench-trace " + json.dumps(snap) + "\n")
    sys.exit(rc)
