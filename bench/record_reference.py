"""Write reference.json: the output of op 0 at the default seed, for every
workload. Run it on the commit whose outputs are the reference:

    python3 bench/record_reference.py
"""

import json
import shutil
import sys

import workloads
from run import WORK


def main():
    workdir = WORK / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    data = {}
    try:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(workloads.DEFAULT_SEED, workdir)
            out = wl.run(wl.prepare(0))
            failed, problems = wl.check(out)
            if failed:
                print(f"{name}: output fails its own checks: {problems}", file=sys.stderr)
                return 1
            data[name] = wl.summary(out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # One output row a line, so that a diff shows which row changed.
    text = ",\n".join(
        f"{json.dumps(name)}: [\n  " + ",\n  ".join(json.dumps(r) for r in rows) + "\n]"
        for name, rows in data.items())
    workloads.REFERENCE.write_text("{\n" + text + "\n}\n")
    print(f"wrote {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
