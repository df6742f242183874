"""One benchmark iteration in a fresh process.

Usage: python3 child.py SPEC.json   (run with the work directory as cwd)

SPEC holds ``{"invocations": [argv, ...], "trace": bool}``.  The process
imports ``compasscoh.cli`` first, so the parent can time set-up from spawn
to the end of that import, then calls ``compasscoh.cli.main(argv)`` for each
invocation with stdout and stderr captured to ``stdout_<i>.txt`` and
``stderr_<i>.txt``.  Timestamps (``time.monotonic``, shared with the
parent), exit codes and, when traced, the spans go to ``result.json``.
"""

import contextlib
import json
import sys
import time
import traceback

import compasscoh.cli

SETUP_END = time.monotonic()


def main(spec_path: str) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = None
    unavailable: list[str] = []
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
        unavailable = tracing.install(tracer)

    exit_codes = []
    for i, argv in enumerate(spec["invocations"]):
        with open(f"stdout_{i}.txt", "w") as out, open(f"stderr_{i}.txt", "w") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = compasscoh.cli.main(argv)
            except Exception:  # a crash is a failed operation, not a failed run
                traceback.print_exc()
                code = -1
        exit_codes.append(code)
    end = time.monotonic()

    result = {
        "setup_end": SETUP_END, "end": end, "exit_codes": exit_codes,
        "package": compasscoh.__file__,
        "kernel_backend": getattr(compasscoh, "KERNEL_BACKEND", "absent"),
    }
    if tracer is not None:
        result.update(spans=tracer.spans, notes=tracer.notes,
                      unavailable=sorted(set(unavailable) | tracer.broken))
    with open("result.json", "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
