"""Launch the measurement daemon from source, optionally traced.

``python3 perfbench/serve.py [--trace SPANS.json] serve --store DIR``
is ``python -m repro serve --store DIR`` with the checkout's ``src`` on
the path.  With ``--trace`` the layer tracer is installed first and the
daemon's spans are written to ``SPANS.json`` once it has drained.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    argv = sys.argv[1:]
    spans_path = None
    if argv[:1] == ["--trace"]:
        spans_path, argv = argv[1], argv[2:]
        import tracer

        tracer.install()
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        if spans_path is not None:
            tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
