"""Timed phase of one workload run, executed by run.py in a fresh process.

Items run one at a time in a closed loop (one client), each command through
`shapescene.cli.main(argv)` in-process. The loop cycles over the workload's
item list: the first pass always completes, after which it stops before the
item that would end past `--seconds`. With `--passes 1` it runs exactly one
pass; with `--traced` every shapescene layer is wrapped by the span tracer.

Writes a JSON summary to `--result`; prints nothing on standard output.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from shapescene import cli  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, digest_dir  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--inputs", type=Path, required=True, help="absolute path")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True, help="absolute path")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--passes", type=int, default=0, help="0 = until --seconds")
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    items = workload.items(args.seed, args.inputs)
    tracer = Tracer() if args.traced else None
    if tracer is not None:
        tracer.install()

    item_s, failures, digests = [], [], []
    n = lap = 0
    stop = False
    start = time.perf_counter()
    while not stop and not (args.passes and lap >= args.passes):
        # Outputs are named relative to the pass directory, so the paths the
        # commands print, and so the output digests, match across passes and runs.
        (args.out / f"p{lap}").mkdir(parents=True)
        os.chdir(args.out / f"p{lap}")
        for pos, item in enumerate(items):
            elapsed = time.perf_counter() - start
            if lap > 0 and elapsed + elapsed / n > args.seconds:
                stop = True
                break
            out = Path(f"i{pos:03d}")
            out.mkdir()
            commands = []

            def run(cmd_argv, out=out, commands=commands, item_id=(lap, pos)):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    if tracer is None:
                        code = cli.main(cmd_argv)
                    else:
                        code = tracer.command(cli.main, cmd_argv, item_id)
                (out / f"{len(commands)}.{cmd_argv[0]}.out").write_text(buf.getvalue())
                commands.append(cmd_argv[0])
                return code

            problem = None
            t0 = time.perf_counter()
            try:
                codes = workload.run_item(run, args.seed, args.inputs, item, out)
            except Exception:  # an item that raises counts as failed, the run goes on
                codes = None
                problem = traceback.format_exc(limit=3)
            item_s.append(time.perf_counter() - t0)
            n += 1
            if codes is not None and any(codes):
                problem = f"exit codes {dict(zip(commands, codes))}"
            digest = digest_dir(out)
            if lap == 0:
                digests.append(digest)
            else:
                if problem is None and digest != digests[pos]:
                    problem = "output differs from the first pass of the same item"
                shutil.rmtree(out)
            failures.append(problem)
        lap += 1

    result = {
        "items": n,
        "busy_s": sum(item_s),
        "failures": failures,
        "digests": digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["restored"] = tracer.uninstall()
        result["trace"] = tracer.summary()
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
