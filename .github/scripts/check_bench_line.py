"""Check the result line of a benchmark run: the last line of stdin.

Exits 0 only when that line is strict JSON (NaN and Infinity are refused)
and "correct" is true.  An untraced run must also hold setup_s, work_per_s
and peak_rss_mb, each with a finite value above 0.  A traced run (--traced)
must hold every per_layer metric that BENCHMARK.json names, each with a
finite value.  Each --max NAME=VALUE requires metric NAME to be a finite
number at most VALUE.  Usage:

    python .github/scripts/check_bench_line.py < bench_out.txt
    python .github/scripts/check_bench_line.py --traced BENCHMARK.json \\
        --max scribe.gap_evals_per_solve=30 < bench_out.txt
"""
import argparse
import json
import math
import sys

METRICS = ("setup_s", "work_per_s", "peak_rss_mb")


def refuse(constant: str):
    raise ValueError(f"non-finite number {constant}")


def bound(text: str) -> tuple[str, float]:
    """NAME=VALUE as (NAME, VALUE), VALUE a finite number."""
    name, sep, value = text.partition("=")
    try:
        limit = float(value)
    except ValueError:
        limit = math.nan
    if not (sep and name and math.isfinite(limit)):
        raise argparse.ArgumentTypeError(f"{text!r} is not NAME=VALUE")
    return name, limit


def problems(line: str, traced_names=None, maxima=()) -> list[str]:
    try:
        result = json.loads(line, parse_constant=refuse)
    except ValueError as exc:
        return [f"not a strict JSON result: {exc}"]
    if not isinstance(result, dict):
        return ["the result is not a JSON object"]
    found = [] if result.get("correct") is True else ["correct is not true"]
    metrics = result.get("metrics")

    def value_of(name):
        entry = metrics.get(name) if isinstance(metrics, dict) else None
        value = entry.get("value") if isinstance(entry, dict) else None
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            found.append(f"{name} is {value!r}, not a finite number")
            return None
        return value

    for name in METRICS if traced_names is None else traced_names:
        value = value_of(name)
        if value is not None and traced_names is None and value <= 0:
            found.append(f"{name} is {value!r}, not above 0")
    for name, limit in maxima:
        value = value_of(name)
        if value is not None and value > limit:
            found.append(f"{name} is {value!r}, above its bound {limit!r}")
    return found


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Check the last line of a benchmark run read from stdin.")
    parser.add_argument("--traced", metavar="BENCHMARK.json",
                        help="require every per_layer metric it names")
    parser.add_argument("--max", type=bound, action="append", default=[],
                        metavar="NAME=VALUE", help="require NAME <= VALUE")
    args = parser.parse_args(argv)
    traced_names = None
    if args.traced:
        with open(args.traced) as f:
            traced_names = [m["name"] for m in json.load(f)["per_layer"]]
    lines = sys.stdin.read().splitlines()
    found = problems(lines[-1], traced_names, args.max) if lines else ["no output"]
    for p in found:
        print(f"bench result: {p}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
