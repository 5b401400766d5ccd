"""One benchmark process: set up, then run passes of `fieldosc run`.

Started by run.py in a fresh interpreter with `src/` on the path.  It
imports `fieldosc.cli`, parses every config (so a bad generated config
fails before any timing) and prints `ready`; run.py times set-up from
process start to that line.  With `--setup-only` it stops there: the
set-up probes of a run are such processes.  Otherwise it runs the passes
of passes.py and prints one JSON result line.

Only modules that `fieldosc.cli` imports anyway are imported before
`ready`, so that set-up time holds no cost of the harness's own.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--configs", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--check-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    from fieldosc import cli

    configs = sorted(args.configs.glob("*.cfg"))
    scenarios = [cli.parse_scenario(c) for c in configs]
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import json

    from passes import measure

    print(json.dumps(measure(cli, configs, scenarios, args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
