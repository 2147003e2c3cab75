"""One benchmark job: a wreathprob CLI command in a fresh interpreter.

    python3 child.py SRC MARKS SPANS JOB [CLI_ARG ...]

Imports ``wreathprob.cli`` from SRC, runs ``cli.main`` on the CLI
arguments and writes MARKS, a JSON object with the monotonic times at
which the import finished (``ready``) and the command returned (``end``)
and the command's exit code.  With no CLI arguments it only imports,
which measures set-up alone.  SPANS is ``-`` for an untraced job;
otherwise the job installs the wrappers of ``spans.py`` after the import
and writes its spans to SPANS when it ends.  Exits with the command's code.
"""

import sys
import time

launched = time.monotonic()


def main():
    src, marks_path, spans_path, job = sys.argv[1:5]
    argv = sys.argv[5:]
    sys.path.insert(0, src)
    from wreathprob import cli

    ready = time.monotonic()
    import json
    from pathlib import Path

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"wreathprob was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 4
    tracer = None
    if spans_path != "-":
        import spans

        tracer = spans.Tracer(job)
        tracer.record(spans.IMPORT_SPAN, launched, ready)
        spans.install(tracer)
    rc = 1
    end = None
    try:
        rc = cli.main(argv) if argv else 0
        sys.stdout.flush()
        end = time.monotonic()
    finally:
        Path(marks_path).write_text(json.dumps({"ready": ready, "end": end, "rc": rc}))
        if tracer is not None:
            spans.write(tracer, spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(main())
