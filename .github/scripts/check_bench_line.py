"""Check the result line of a benchmark run: the last line of stdin.

Exits 0 only when that line is strict JSON (NaN and Infinity are refused)
and "correct" is true.  An untraced run must also hold setup_s, work_per_s
and peak_rss_mb, each with a finite value above 0.  A traced run (--traced)
must hold every per_layer metric that BENCHMARK.json names, each with a
finite value.  Usage:

    python .github/scripts/check_bench_line.py < bench_out.txt
    python .github/scripts/check_bench_line.py --traced BENCHMARK.json < bench_out.txt
"""
import json
import math
import sys

METRICS = ("setup_s", "work_per_s", "peak_rss_mb")


def refuse(constant: str):
    raise ValueError(f"non-finite number {constant}")


def problems(line: str, traced_names=None) -> list[str]:
    try:
        result = json.loads(line, parse_constant=refuse)
    except ValueError as exc:
        return [f"not a strict JSON result: {exc}"]
    if not isinstance(result, dict):
        return ["the result is not a JSON object"]
    found = [] if result.get("correct") is True else ["correct is not true"]
    metrics = result.get("metrics")
    for name in METRICS if traced_names is None else traced_names:
        entry = metrics.get(name) if isinstance(metrics, dict) else None
        value = entry.get("value") if isinstance(entry, dict) else None
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            found.append(f"{name} is {value!r}, not a finite number")
        elif traced_names is None and value <= 0:
            found.append(f"{name} is {value!r}, not above 0")
    return found


def main(argv: list[str]) -> int:
    traced_names = None
    if argv[:1] == ["--traced"] and len(argv) == 2:
        with open(argv[1]) as f:
            traced_names = [m["name"] for m in json.load(f)["per_layer"]]
    elif argv:
        print(__doc__, file=sys.stderr)
        return 2
    lines = sys.stdin.read().splitlines()
    found = problems(lines[-1], traced_names) if lines else ["no output"]
    for p in found:
        print(f"bench result: {p}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
