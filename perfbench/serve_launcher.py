"""Start ``dygroups serve`` with the layer wrappers installed (traced runs only).

``python3 perfbench/serve_launcher.py SPANS_PATH serve [options...]`` wraps
the layer targets of :mod:`perfbench.layers`, runs the unchanged
``repro.cli.main`` entry point with the remaining arguments, and when it
returns (SIGTERM shuts the server down gracefully) writes the recorded
spans to ``SPANS_PATH``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    from perfbench import layers
    from perfbench.spans import Recorder, dump_spans

    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    layers.install(recorder)
    from repro.cli import main as cli_main

    code = cli_main(cli_args)
    Path(spans_path).write_text(json.dumps(dump_spans(recorder.spans)))
    return code


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main(sys.argv[1:]))
