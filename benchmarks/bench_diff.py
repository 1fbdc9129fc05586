"""Write a BENCH file, and print the per-case ratios of BENCH files.

A BENCH file (`BENCH_<n>.json` at the repository root) holds the results of
`benchmarks/` at a change's parent commit and at the change, run on the same
machine: per case, the median, the quartiles and the number of rounds, in
seconds, and for the file, the machine they ran on.

    python benchmarks/bench_diff.py --write BENCH_<n>.json PARENT.json CHANGE.json
        trims two `--benchmark-json` outputs of pytest-benchmark into one BENCH file
    python benchmarks/bench_diff.py BENCH_<n>.json
        prints the change's median over the parent's, case by case
    python benchmarks/bench_diff.py BENCH_<m>.json BENCH_<n>.json
        prints the second file's change over the first file's change
"""

from __future__ import annotations

import argparse
import json

STATS = ("median", "q1", "q3", "rounds")
MACHINE = ("machine", "processor", "system", "release", "python_implementation", "python_version")


def trim(raw: dict) -> dict:
    """Per case name, the kept statistics of one pytest-benchmark JSON output."""
    return {b["name"]: {key: b["stats"][key] for key in STATS} for b in raw["benchmarks"]}


def write(path: str, parent_json: str, change_json: str) -> None:
    with open(parent_json, encoding="utf-8") as fh:
        parent = json.load(fh)
    with open(change_json, encoding="utf-8") as fh:
        change = json.load(fh)
    info = change["machine_info"]
    machine = {key: info.get(key) for key in MACHINE}
    machine["cpu"] = {key: info.get("cpu", {}).get(key) for key in ("brand_raw", "count")}
    bench = {"unit": "s", "machine": machine, "parent": trim(parent), "change": trim(change)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")


def ratios(old: dict, new: dict) -> list[str]:
    """One line per case: the old and new medians and new / old."""
    lines = [f"{'case':32s} {'old median':>12s} {'new median':>12s} {'new/old':>8s}"]
    for name in sorted(old.keys() | new.keys()):
        if name not in old or name not in new:
            lines.append(f"{name:32s} {'only in ' + ('new' if name in new else 'old'):>34s}")
            continue
        a, b = old[name]["median"], new[name]["median"]
        lines.append(f"{name:32s} {a:12.6g} {b:12.6g} {b / a:8.3f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", metavar="BENCH", help="write this BENCH file from PARENT.json and CHANGE.json")
    parser.add_argument("files", nargs="+")
    args = parser.parse_args(argv)
    if args.write:
        if len(args.files) != 2:
            parser.error("--write takes the parent's and the change's --benchmark-json outputs")
        write(args.write, *args.files)
        return 0
    if len(args.files) > 2:
        parser.error("give one BENCH file, or two to compare their changes")
    benches = []
    for path in args.files:
        with open(path, encoding="utf-8") as fh:
            benches.append(json.load(fh))
    old, new = (benches[0]["parent"], benches[0]["change"]) if len(benches) == 1 else (b["change"] for b in benches)
    print("\n".join(ratios(old, new)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
