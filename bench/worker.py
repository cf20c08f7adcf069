"""Run one skyfade CLI command in this process and write a timing record.

Usage: python3 worker.py SPEC_JSON

The spec names the source directory, the CLI arguments, whether to trace
and where to write the record.  The record holds the clock reading at the
first call into a work entry point (the end of set-up), the clock at exit
from ``skyfade.cli.main``, the exit code and, when tracing, the trace.
The record also carries this process's peak resident set, read from
the kernel's high-water mark of its own address space: the ``ru_maxrss``
the parent gets from ``wait4`` would also include the parent's own peak,
which a vfork-spawned child inherits until ``exec``.
"""

import json
import sys
from pathlib import Path


def peak_rss_kb() -> int | None:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, spec["src"])
    import skyfade.cli

    from tracer import SetupMarker, Tracer, now

    hooks = Tracer(spec["run_id"]) if spec["trace"] else SetupMarker()
    hooks.install()
    try:
        rc = skyfade.cli.main(spec["argv"])
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    end = now()
    record = {
        "first_call": hooks.first_call,
        "end": end,
        "rc": rc,
        "peak_rss_kb": peak_rss_kb(),
    }
    if spec["trace"]:
        record["trace"] = hooks.record()
    else:
        record["missing"] = hooks.missing
    Path(spec["record"]).write_text(json.dumps(record))
    return rc


if __name__ == "__main__":
    sys.exit(main())
