"""The meshbound benchmark: one command, every workload, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                  # every workload, untraced and traced

Run it from the repository root. It builds the `perfbench` child binary
(into `$CARGO_TARGET_DIR`, default `.bench_build`), then starts one fresh
child process per repetition for about `--seconds` (at least `min_reps`
repetitions). Each child times one run of the workload spec
pinned in `workloads.json`; this script reads its CPU time and peak
resident memory from the kernel's rusage for that child. A calibration
child before the first repetition and after each one measures the host's
speed, and the end-to-end times are scaled to a reference speed.

With `--trace 0` the last stdout line is a JSON object carrying every
end-to-end metric of BENCHMARK.json (medians over the repetitions); with
`--trace 1` it carries every per-layer metric, taken from one extra traced
child. A fingerprint mismatch makes `correct` false and the exit code 1.
See README.md for the metrics and workloads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build():
    """Builds the child binary; returns its path, or None on failure."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--locked",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, check=False)
    except OSError as e:
        print(f"run.py: cannot start cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "perfbench")


def run_child(binary, workload, seed, trace):
    """One fresh child process. Returns its record, or None if it failed.

    The record gains `cpu_s` (user + system) and `peak_rss_mb` (the
    child's high-water RSS, `ru_maxrss`) from `wait4`.
    """
    spec = workload["spec"].format(seed=seed)
    cmd = [binary, workload["kind"], spec] + (["--trace"] if trace else [])
    # One pipe for both streams, drained to EOF before reaping, so the
    # child never blocks on a full pipe; `wait4` (not Popen.wait) reaps it
    # so that its rusage is ours to read.
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    out = child.stdout.read()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    code = child.returncode = os.waitstatus_to_exitcode(status)
    lines = out.decode(errors="replace").splitlines()
    if code != 0 or not lines or not lines[-1].startswith("RECORD "):
        sys.stderr.write("\n".join(lines[-5:]) + "\n")
        print(f"run.py: {workload['name']} child exited {code} without a record", file=sys.stderr)
        return None
    record = json.loads(lines[-1][len("RECORD "):])
    record["cpu_s"] = usage.ru_utime + usage.ru_stime
    record["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return record


def calibrate(binary, threads):
    """Seconds the calibration kernel takes on `threads` threads now."""
    done = subprocess.run([binary, "calibrate", str(threads)], capture_output=True, check=False)
    lines = done.stdout.decode(errors="replace").splitlines()
    if done.returncode != 0 or not lines or not lines[-1].startswith("RECORD "):
        return None
    return json.loads(lines[-1][len("RECORD "):])["cal_s"]


def measure(binary, workload, seed, seconds, config):
    """Untraced repetitions for about `seconds`, at least `min_reps` of
    them; stops at the first repetition that fails.

    The calibration kernel runs before the first repetition and after
    each one, on as many threads as the workload uses. Each record gains
    `slowdown`: the mean of the two calibration times around it, divided
    by the reference time `calibration_ref_s`.

    A new repetition starts only if it is expected to end less than half
    a repetition past the budget, so runs of slow workloads do not
    overshoot by a whole repetition.
    """
    threads, ref = workload["threads"], config["calibration_ref_s"]
    records = []
    start = time.monotonic()
    before = calibrate(binary, threads)
    while True:
        elapsed = time.monotonic() - start
        if len(records) >= config["min_reps"] and elapsed + 0.5 * elapsed / len(records) >= seconds:
            return records
        record = run_child(binary, workload, seed, trace=False)
        after = calibrate(binary, threads)
        if record is not None and (before is None or after is None):
            print("run.py: the calibration kernel failed", file=sys.stderr)
            record = None
        if record is not None:
            record["slowdown"] = (before + after) / 2 / ref
        records.append(record)
        if record is None:
            return records
        before = after


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_end_to_end(bench, samples, slowdowns, attempted, failed, failing):
    print(f"  {'metric':<18}{'unit':<11}{'median':>12}  {'tail (pN)':>16}  {'n':>3}")
    for m in bench["end_to_end"]:
        values = samples[m["name"]]
        tail = metrics.tail_percentile(values)
        tail_txt = f"p{tail[0]} {fmt(tail[1])}" if tail else "-"
        print(f"  {m['name']:<18}{m['unit']:<11}{fmt(statistics.median(values)):>12}  {tail_txt:>16}  {len(values):>3}")
    slow = metrics.tail_percentile(slowdowns)
    slow_txt = f"p{slow[0]} {fmt(slow[1])}" if slow else "-"
    print(f"  {'host slowdown':<18}{'ratio':<11}{fmt(statistics.median(slowdowns)):>12}  {slow_txt:>16}  {len(slowdowns):>3}")
    frac = metrics.failed_frac(attempted, failed)
    print(f"  {'failed_frac':<18}{'ratio':<11}{fmt(frac):>12}  {f'{failed}/{attempted} ops':>16}")
    for name in sorted(set(failing)):
        print(f"  failing: {name}")


def print_per_layer(bench, layers, values):
    print(f"  {'layer metric':<31}{'unit':<7}{'value':>14}  should move (on)")
    for m in bench["per_layer"]:
        info = layers[m["name"]]
        moves = ", ".join(info["moves"]) or info.get("note", "")
        on = f" ({', '.join(info['on'])})" if info["on"] else ""
        print(f"  {m['name']:<31}{m['unit']:<7}{fmt(values[m['name']]):>14}  {moves}{on}")


def run_workload(binary, bench, layers, config, workload, seed, seconds, trace):
    """Measures one workload and prints its tables.

    Returns `(correct, attempted, failed, end_to_end, per_layer)`, the
    last two as `{name: value}` (`per_layer` is None untraced, and both
    are None when no repetition produced a record).
    """
    use_pinned = seed == config["default_seed"]
    records = measure(binary, workload, seed, seconds, config)
    traced = None
    if trace and records[-1] is not None:
        traced = run_child(binary, workload, seed, trace=True)
        records_checked = records + [traced]
    else:
        records_checked = records
    problems, attempted, failed = metrics.check_run(workload, records_checked, use_pinned)
    ok = [r for r in records if r is not None]
    mode = "untraced + traced" if trace else "untraced"
    print(f"== {workload['name']} (seed {seed}, {len(ok)} untraced repetitions, {mode}) ==")
    for p in problems:
        print(f"  FINGERPRINT: {p}")
    if not ok or (trace and traced is None):
        return False, attempted, failed, None, None
    samples = metrics.end_to_end(ok)
    failing = [n for r in records_checked if r for n in r.get("failed_names", [])]
    print_end_to_end(bench, samples, [r["slowdown"] for r in ok], attempted, failed, failing)
    e2e = {name: statistics.median(v) for name, v in samples.items()}
    layer_values = None
    if traced is not None:
        layer_values = metrics.per_layer(traced, statistics.median(r["wall_s"] for r in ok))
        print_per_layer(bench, layers, layer_values)
    return not problems, attempted, failed, e2e, layer_values


def main():
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    config = load_json(os.path.join(HERE, "workloads.json"))
    layers = load_json(os.path.join(HERE, "layers.json"))
    workloads = {w["name"]: w for w in config["workloads"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all"] + list(workloads))
    ap.add_argument("--seed", type=int, default=config["default_seed"])
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 2
    if args.workload == "all":
        # Every workload, untraced and traced; exit 1 on any mismatch.
        summary, all_correct = {}, True
        for w in bench["workloads"]:
            correct, attempted, failed, e2e, layer_values = run_workload(
                binary, bench, layers, config, workloads[w["name"]], args.seed, args.seconds, True)
            all_correct &= correct
            summary[w["name"]] = {"correct": correct, "attempted": attempted, "failed": failed,
                                  "end_to_end": e2e, "per_layer": layer_values}
        print(json.dumps({"correct": all_correct, "workloads": summary}))
        return 0 if all_correct else 1

    correct, attempted, failed, e2e, layer_values = run_workload(
        binary, bench, layers, config, workloads[args.workload], args.seed, args.seconds,
        bool(args.trace))
    if e2e is None:
        return 1
    chosen, values = (bench["per_layer"], layer_values) if args.trace else (bench["end_to_end"], e2e)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
