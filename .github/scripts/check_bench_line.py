"""Check the result line of a benchmark run: the last line of stdin.

Exits 0 only when that line is strict JSON (NaN and Infinity are refused),
"correct" is true, and setup_s, work_per_s and peak_rss_mb are each present
with a finite value above 0.  Usage:

    python .github/scripts/check_bench_line.py < bench_out.txt
"""
import json
import math
import sys

METRICS = ("setup_s", "work_per_s", "peak_rss_mb")


def refuse(constant: str):
    raise ValueError(f"non-finite number {constant}")


def problems(line: str) -> list[str]:
    try:
        result = json.loads(line, parse_constant=refuse)
    except ValueError as exc:
        return [f"not a strict JSON result: {exc}"]
    if not isinstance(result, dict):
        return ["the result is not a JSON object"]
    found = [] if result.get("correct") is True else ["correct is not true"]
    metrics = result.get("metrics")
    for name in METRICS:
        entry = metrics.get(name) if isinstance(metrics, dict) else None
        value = entry.get("value") if isinstance(entry, dict) else None
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value) or value <= 0:
            found.append(f"{name} is {value!r}, not a finite number > 0")
    return found


def main() -> int:
    lines = sys.stdin.read().splitlines()
    found = problems(lines[-1]) if lines else ["no output"]
    for p in found:
        print(f"bench result: {p}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
