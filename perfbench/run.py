"""ferro benchmark: closed-loop CLI workloads with reference-checked outputs.

Usage (from the repository root):
    python3 perfbench/run.py --workload {sweep,oneshot,choi} --seed N --seconds S --trace {0,1}

One client runs `python -m ferro.cli ...` commands back to back, each in a fresh
interpreter, so import and cold caches count as users pay them.  Commands come
in fixed rounds (workloads.py); whole rounds repeat while the next one is
expected to end inside the --seconds window, and at least one round runs.
With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 it carries the per-layer metrics, taken from a
second, traced pass over the same commands (trace_cli.py), and the traced
outputs must equal the untraced ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
REQUIRED = ("src/ferro/cli.py", "tests/oracles/compute_reference.py",
            "tests/oracles/reference_values.json", "BENCHMARK.json")
SETUP_MIN = 7  # fewest `import ferro.cli` probes behind setup_s
PROBE_EVERY = 3.0  # seconds between set-up probes during the window
WORKLOADS = ("sweep", "oneshot", "choi")
TAIL_MIN_COMMANDS = 20  # below this the tail is the slowest command
TAIL_BEYOND = 10


class Result:
    def __init__(self, cmd, rc, wall, rss_kb, stdout, stderr, out):
        self.cmd, self.rc, self.wall, self.rss_kb = cmd, rc, wall, rss_kb
        self.stdout, self.stderr, self.out = stdout, stderr, out


def drop_thread_caps():
    """Remove FERRO_THREADS and every *_NUM_THREADS variable, as users have them unset.

    Called before numpy is first imported, so this process's BLAS, which the
    machine facts report, runs with the same thread count as the children.
    """
    for k in [k for k in os.environ if k == "FERRO_THREADS" or k.endswith("_NUM_THREADS")]:
        del os.environ[k]


def child_env(threads=None):
    """This process's environment, with ferro taken from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")) if p)
    if threads is not None:
        env["FERRO_THREADS"] = str(threads)
    return env


def spawn(argv, env, work, tag):
    """Run one child to completion; returns (rc, wall seconds, peak RSS in KB, stdout, stderr)."""
    out_path = os.path.join(work, f"{tag}.stdout")
    err_path = os.path.join(work, f"{tag}.stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, errors="replace") as f:
        stdout = f.read()
    with open(err_path, errors="replace") as f:
        stderr = f.read()
    return proc.returncode, wall, usage.ru_maxrss, stdout, stderr


def run_command(cmd, env, work, tag, prefix):
    if cmd.out and os.path.exists(cmd.out):
        os.remove(cmd.out)
    rc, wall, rss, stdout, stderr = spawn(prefix + cmd.argv, env, work, tag)
    out = None
    if cmd.out and os.path.exists(cmd.out):
        with open(cmd.out, errors="replace") as f:
            out = f.read()
    return Result(cmd, rc, wall, rss, stdout, stderr, out)


def probe(env, work, tag):
    """Wall time of a fresh interpreter running `import ferro.cli`."""
    return spawn([sys.executable, "-c", "import ferro.cli"], env, work, tag)[1]


def timed_rounds(make_round, seconds, env, work):
    """Closed loop over whole rounds, with set-up probes spread over the window.

    Whole rounds repeat while the next one is expected to end inside `seconds`
    of command time.  make_round(r) writes round r's inputs and returns its
    commands; it runs before the round's first command, outside the command
    times.  Before a command, an `import ferro.cli`
    probe runs once PROBE_EVERY seconds have passed since the last one, so
    setup_s samples the machine across the whole run rather than during one
    stretch of it.  Returns (results, probe walls, rounds run).
    """
    prefix = [sys.executable, "-m", "ferro.cli"]
    results, probes = [], []
    busy = 0.0
    last_probe = -math.inf
    r = 0
    while True:
        round_busy = 0.0
        for i, cmd in enumerate(make_round(r)):
            if time.perf_counter() - last_probe >= PROBE_EVERY:
                probes.append(probe(env, work, f"p{len(probes)}"))
                last_probe = time.perf_counter()
            results.append(run_command(cmd, env, work, f"c{r}_{i}", prefix))
            round_busy += results[-1].wall
        r += 1
        busy += round_busy
        if busy + round_busy > seconds:
            break
    while len(probes) < SETUP_MIN:
        probes.append(probe(env, work, f"p{len(probes)}"))
    return results, probes, r


def tail(walls):
    """(value, percentile, count): the highest percentile with ten commands beyond it."""
    s = sorted(walls)
    n = len(s)
    if n < TAIL_MIN_COMMANDS:
        return s[-1], 100.0, n
    return s[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n


def blas_facts():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        import ctypes

        with open("/proc/self/maps") as f:
            libs = {ln.split()[-1] for ln in f if "openblas" in ln and ln.rstrip().endswith(".so")}
        for lib in libs:
            so = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(so, sym):
                    threads = int(getattr(so, sym)())
                    break
    except OSError:
        pass
    return f"{blas.get('name')} {blas.get('version')}", threads


def machine_facts():
    import numpy
    import scipy

    blas, threads = blas_facts()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "blas_threads": threads,
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env_unset": True,
    }


def end_to_end(results, wall, setup_s, items):
    """End-to-end metric values, and the line that states the tail's percentile."""
    walls = [r.wall for r in results]
    value, pct, count = tail(walls)
    return {
        "setup_s": setup_s,
        "items_per_s": items / wall,
        "cmd_p50_s": statistics.median(walls),
        "cmd_tail_s": value,
        "peak_rss_mb": max(r.rss_kb for r in results) / 1024.0,
    }, f"cmd_tail_s is p{pct:.1f} of {count} commands"


def traced_pass(results, env, work):
    """Re-run every command under trace_cli.py; returns (span dumps, wall, mismatches)."""
    prefix = [sys.executable, os.path.join(HERE, "trace_cli.py")]
    dumps, wall, mismatches = [], 0.0, []
    for i, res in enumerate(results):
        spans = os.path.join(work, f"t{i}.json")
        traced = run_command(res.cmd, env, work, f"t{i}",
                             prefix + [spans, f"{i}:{res.cmd.name}", "--"])
        wall += traced.wall
        if (traced.rc, traced.stdout, traced.out) != (res.rc, res.stdout, res.out):
            mismatches.append(f"{res.cmd.name}: traced output differs from untraced")
        with open(spans) as f:
            dumps.append(json.load(f))
    return dumps, wall, mismatches


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run still kills and reaps its current child (see spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: run from a ferro checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 1
    drop_thread_caps()
    sys.path[:0] = [HERE, os.path.join(ROOT, "tests", "oracles")]
    import numpy as np

    import layers
    import verify
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        env = child_env()
        results, probes, rounds = timed_rounds(
            lambda r: workloads.build_round(args.workload, args.seed, r, work),
            args.seconds, env, work)
        wall = sum(r.wall for r in results)

        checker = verify.Checker(np.random.default_rng([args.seed, 1 << 20]))
        failures, items, valid_bad = [], 0, 0
        for res in results:
            why = checker.check(res.cmd, res)
            if why is None:
                items += res.cmd.items
            else:
                failures.append(f"{res.cmd.name}: {why}")
                valid_bad += res.cmd.expect["kind"] != "malformed"

        note, mismatches = "", []
        if args.trace:
            dumps, traced_wall, mismatches = traced_pass(results, env, work)
            values = layers.aggregate(dumps)
            values["bench.trace_overhead_s"] = traced_wall - wall
            values["cli.fig2.serial_s"] = 0.0
            fig2 = next((r.cmd for r in results if r.cmd.name == "fig2"), None)
            if fig2 is not None:
                values["cli.fig2.serial_s"] = spawn(
                    [sys.executable, "-m", "ferro.cli"] + fig2.argv,
                    child_env(threads=1), work, "serial")[1]
            names = spec["per_layer"]
            correct = valid_bad == 0 and not mismatches
        else:
            values, note = end_to_end(results, wall, statistics.median(probes), items)
            names = spec["end_to_end"]
            correct = valid_bad == 0

        metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in names}
        attempted, failed = len(results), len(failures)
        print(f"workload {args.workload} seed {args.seed}: {attempted} commands in "
              f"{rounds} rounds, {wall:.2f} s")
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        print(f"  fail_frac = {failed / attempted:.4f} ({failed} of {attempted} commands)")
        if note:
            print(f"  {note}")
        by_name = {}
        for r in results:
            by_name.setdefault(re.sub(r"_\d+$", "", r.cmd.name), []).append(r.wall)
        for name, walls in by_name.items():
            print(f"  {name}: {len(walls)} commands, median {statistics.median(walls):.3f} s")
        for line in failures + mismatches:
            print(f"  FAIL {line}")
        print("machine: " + json.dumps(machine_facts(), sort_keys=True))
        print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
