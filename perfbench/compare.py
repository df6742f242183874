"""Compare two result files written by run.py.

Usage: python3 perfbench/compare.py BASE.json NEW.json

Prints each metric's median in both files and the relative change.
Refuses (exit 2) to compare results of different workloads, trace modes
or kernel backends: a compiled and a fallback count table are different
programs, not a speed-up.
"""

import json
import sys


def main(argv) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 1
    base, new = (json.loads(open(path).read()) for path in argv)
    for key in ("workload", "trace"):
        if base[key] != new[key]:
            sys.stderr.write(f"compare: {key} differs: {base[key]!r} vs {new[key]!r}\n")
            return 2
    if base["env"]["kernel_backend"] != new["env"]["kernel_backend"]:
        sys.stderr.write("compare: kernel backend differs: "
                         f"{base['env']['kernel_backend']!r} vs "
                         f"{new['env']['kernel_backend']!r}\n")
        return 2
    for name, old in base["metrics"].items():
        cur = new["metrics"].get(name)
        if cur is None:
            print(f"{name}: {old['value']:.6g} {old['unit']} -> absent")
            continue
        change = (cur["value"] / old["value"] - 1.0) if old["value"] else float("nan")
        print(f"{name}: {old['value']:.6g} -> {cur['value']:.6g} {cur['unit']} "
              f"({change:+.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
