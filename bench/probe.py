"""Set-up probe, run in a fresh interpreter by run.py.

Imports idrabi from the checkout's src/ and runs one tiny job of each kind
the workload uses, so the time from interpreter start to exit covers imports,
any JIT compile and other lazy set-up.  Usage: probe.py WORKLOAD WORKDIR
"""

import contextlib
import io
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import idrabi.cli  # noqa: E402

from workloads import warmup_jobs  # noqa: E402


def main() -> int:
    workload, workdir = sys.argv[1], sys.argv[2]
    os.chdir(workdir)
    for job in warmup_jobs(workload):
        with contextlib.redirect_stdout(io.StringIO()):
            code = idrabi.cli.main(list(job.argv))
        if code != job.expect:
            print(f"warm-up job {' '.join(job.argv)} exited {code}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
