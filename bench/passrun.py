"""One benchmark pass in a fresh interpreter.

Usage: passrun.py SPEC_JSON T_SPAWN

T_SPAWN is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is shared by all processes), so set-up time counts
interpreter start.  The pass imports gaussfactor.cli, builds its parser,
then calls gaussfactor.cli.main(argv) for each operation in order, in this
process.  With "trace" set it installs the tracer after set-up; otherwise
the tracer is never imported.  Results go to the spec's "result" path;
each operation's stdout goes to the spec's "stdout_dir".
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def peak_rss_kb(usage) -> int:
    """Peak resident set of this process image in KiB.

    On Linux ru_maxrss also covers the parent's memory image that the child
    was spawned from, so the kernel's per-image high-water mark VmHWM is used
    where it exists.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return usage.ru_maxrss


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text())
    t_spawn = float(sys.argv[2])
    import gaussfactor.cli as cli

    cli.build_parser()
    t_setup = time.monotonic()
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ops, outputs = [], []
    for argv in spec["ops"]:
        buf = io.StringIO()
        rc, error = None, None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(argv))
        except Exception:  # an exception is a failed operation, not a failed pass
            error = traceback.format_exc()
        latency = time.perf_counter() - t0
        ops.append({"rc": rc, "error": error, "latency_s": latency})
        outputs.append(buf.getvalue())
    t_end = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    stdout_dir = Path(spec["stdout_dir"])
    stdout_dir.mkdir(parents=True, exist_ok=True)
    for i, text in enumerate(outputs):
        (stdout_dir / f"{i}.txt").write_text(text)
    result = {
        "setup_s": t_setup - t_spawn,
        "wall_s": t_end - t_spawn,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": peak_rss_kb(usage),
        "ops": ops,
        "trace": tracer.snapshot() if tracer is not None else None,
    }
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
