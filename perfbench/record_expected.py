"""Record the "check status" rows of ``tft verify -n k`` that the
``verify`` workload expects, for the n it runs (2 is the warm-up and
smoke size).  Run from the root of a checkout:

    python3 perfbench/record_expected.py

Re-record only when a change to the check registry is intended to
change its verdicts, and say so in the change.
"""

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import EXPECTED_VERIFY, run_cli, verify_rows  # noqa: E402

import tftflip.cli  # noqa: E402


def main() -> int:
    os.environ["TFT_COLOR"] = "0"
    expected = {}
    for k in (2, 3, 5, 6):
        status, text = run_cli(tftflip, ("verify", "-n", str(k)))
        if status != 0:
            print(f"verify -n {k} exited with {status}", file=sys.stderr)
            return 1
        expected[str(k)] = verify_rows(text)
    with open(EXPECTED_VERIFY, "w") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
