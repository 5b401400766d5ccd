#!/usr/bin/env python3
"""Run every demo scenario (scenarios/*.cfg) through `fieldosc.cli.run`
into a temporary directory and print a fingerprint of the results: one
line per artifact (file name and sha256) and one per check (scenario,
check name and the `repr` of its defect).  Two builds that print the same
lines produce the same artifacts byte for byte and the same defects to the
last bit."""

import hashlib
import tempfile
from pathlib import Path

from fieldosc.cli import parse_scenario, run

DEMOS = Path(__file__).resolve().parent.parent / "scenarios"


def main():
    with tempfile.TemporaryDirectory() as out:
        for config in sorted(DEMOS.glob("*.cfg")):
            report = run(parse_scenario(config), out_dir=out)
            for artifact in report.artifacts:
                digest = hashlib.sha256(Path(artifact).read_bytes()).hexdigest()
                print(f"artifact {Path(artifact).name} {digest}")
            for check in report.checks:
                print(f"check {report.scenario} {check.name} {check.defect!r}")


if __name__ == "__main__":
    main()
