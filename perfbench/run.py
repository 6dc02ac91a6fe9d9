#!/usr/bin/env python3
"""The repository benchmark: host cost of the simulator per simulated op.

Run from the repository root:

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and the simulator libraries under src/) into
$CARGO_TARGET_DIR (default .bench_build), runs the workload for --seconds,
checks its result digests and prints one JSON object as the last line of
stdout: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones, including
a sampled self-time split by src/<module>/. The exit code is 0 only when the
outputs are correct. NOTES.md explains the workloads and metrics.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUNNER = "perfbench_runner"

# Layers reported as <layer>.self_pct: the src/ modules a workload can reach,
# plus "runtime" for samples with no src/ frame on their stack.
LAYERS = [
    "crypto", "sim", "net", "transport", "gfw", "http", "dns", "vpn",
    "openvpn", "tor", "shadowsocks", "core", "fleet", "serverless",
    "population", "survey", "obs", "measure", "util", "regulation",
]
# Below this many samples of the untraced half, shares are unreliable.
MIN_SAMPLES = 500
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
ADDR_RE = re.compile(r"^0x[0-9a-f]+$")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures once, then builds incrementally; returns the runner path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under src/ to build")
    out = build_dir()
    log = sys.stderr
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "--target", RUNNER, "-j", jobs],
                      stdout=log, stderr=log).returncode != 0:
        fail("build failed")
    return os.path.join(out, RUNNER)


def run_runner(exe, workload, seed, seconds, trace, stacks):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if stacks:
        cmd += ["--stacks", stacks]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("runner printed no result (exit %d)" % proc.returncode)
    return json.loads(lines[-1]), proc.returncode


# ---- sampled profile ------------------------------------------------------

def parse_stacks(text):
    """Runner stack dump -> [(phase, count, [frame, ...])].

    A frame is an executable offset (int) or None (outside the executable).
    """
    stacks = []
    for line in text.splitlines():
        parts = line.split()
        if len(parts) < 3:
            continue
        frames = [None if p == "-" else int(p[1:], 16) for p in parts[2:]]
        stacks.append((int(parts[0]), int(parts[1]), frames))
    return stacks


def has_debug_info(exe):
    out = subprocess.run(["readelf", "-S", "--wide", exe],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True).stdout
    return ".debug_line" in out and ".debug_info" in out


def symbolise(exe, offsets):
    """{offset: [(function, file), ...]} innermost inlined frame first."""
    offsets = sorted(set(offsets))
    if not offsets:
        return {}
    proc = subprocess.run(
        ["addr2line", "-e", exe, "-a", "-f", "-i", "-C"],
        input="".join("0x%x\n" % o for o in offsets),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    result, cur = {}, None
    lines = iter(proc.stdout.splitlines())
    for line in lines:
        if ADDR_RE.match(line):
            cur = int(line, 16)
            result[cur] = []
        elif cur is not None:
            location = next(lines, "??:0")
            result[cur].append((line, location.rsplit(":", 1)[0]))
    return result


def src_modules():
    src = os.path.join(ROOT, "src")
    return {d for d in os.listdir(src) if os.path.isdir(os.path.join(src, d))}


def module_of(path, modules):
    """src/<module>/ of a source path, or None outside src/."""
    prefix = os.path.join(ROOT, "src") + os.sep
    if path.startswith(prefix):
        mod = path[len(prefix):].split(os.sep, 1)[0]
        return mod if mod in modules else None
    # Built in another checkout: take the last /src/<known module>/.
    for m in reversed(list(re.finditer(r"/src/([A-Za-z0-9_]+)/", path))):
        if m.group(1) in modules:
            return m.group(1)
    return None


def attribute(stacks, symbols, modules, phase=0):
    """Buckets samples of `phase` by the first src/ module on their stack.

    Frame 0 is the interrupted PC; for it and every caller the inline chain
    is searched innermost first. Samples in libc/libstdc++ or in code with
    no src/ frame at all go to "runtime". Returns ({bucket: samples},
    {function: samples} for frame 0, total).
    """
    buckets, functions, total = {}, {}, 0
    for ph, count, frames in stacks:
        if ph != phase:
            continue
        total += count
        owner = None
        for frame in frames:
            if frame is None:
                continue
            for _func, path in symbols.get(frame, []):
                owner = module_of(path, modules)
                if owner:
                    break
            if owner:
                break
        bucket = owner or "runtime"
        buckets[bucket] = buckets.get(bucket, 0) + count
        top = frames[0]
        fn = (symbols.get(top) or [("?", "")])[0][0] if top is not None \
            else "(outside executable)"
        functions[fn] = functions.get(fn, 0) + count
    return buckets, functions, total


def profile_metrics(buckets, total, reliable):
    m = {}
    for layer in LAYERS + ["runtime"]:
        m[layer + ".self_pct"] = 100.0 * buckets.get(layer, 0) / total \
            if total else 0.0
    attributed = sum(v for k, v in buckets.items() if k != "runtime")
    m["profile.samples"] = float(total)
    m["profile.attributed_pct"] = 100.0 * attributed / total if total else 0.0
    m["profile.reliable"] = 1.0 if reliable else 0.0
    return m


def profile_from_dump(exe, stacks_text):
    """Per-layer profile metrics from the untraced reps of a stack dump."""
    stacks = parse_stacks(stacks_text)
    debug = has_debug_info(exe)
    offsets = [f for _p, _c, frames in stacks for f in frames if f is not None]
    symbols = symbolise(exe, offsets) if debug else {}
    buckets, functions, total = attribute(stacks, symbols, src_modules())
    reliable = debug and total >= MIN_SAMPLES
    if not reliable:
        print("perfbench: per-layer shares unreliable (%d samples, debug info "
              "%s)" % (total, "present" if debug else "missing"),
              file=sys.stderr)
    return profile_metrics(buckets, total, reliable), functions


# ---- metrics ---------------------------------------------------------------

def e2e_metrics(res):
    attempted = res["attempted"]
    return {
        "host_us_per_op": res["host_us_per_op"],
        "setup_s": res["setup_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "completed_op_ratio": (attempted - res["failed"]) / attempted,
    }


def check_names(metrics, declared):
    """Emitted and declared metric names must match exactly."""
    emitted = set(metrics)
    problems = ["undeclared metric " + n for n in sorted(emitted - declared)]
    problems += ["declared metric not emitted " + n
                 for n in sorted(declared - emitted)]
    problems += ["bad metric name " + n for n in sorted(emitted)
                 if not NAME_RE.match(n)]
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload %r" % args.workload)
    exe = build()
    stacks = None
    if args.trace:
        stacks = os.path.join(build_dir(), "stacks-%s-%d.txt" %
                              (args.workload, args.seed))
    res, code = run_runner(exe, args.workload, args.seed, args.seconds,
                           args.trace, stacks)
    if res["attempted"] < 1:
        fail("the workload attempted no operation")
    for err in res["errors"]:
        print("perfbench: CHECK FAILED: " + err, file=sys.stderr)
    print("perfbench: %s seed=%d digest=%s reps=%d traced_reps=%d" %
          (args.workload, args.seed, res["digest"], res["reps"],
           res["traced_reps"]))

    if args.trace:
        with open(stacks) as f:
            prof, functions = profile_from_dump(exe, f.read())
        os.remove(stacks)
        if res["samples_dropped"] > 0:
            print("perfbench: sampler dropped %d samples; shares unreliable" %
                  res["samples_dropped"], file=sys.stderr)
            prof["profile.reliable"] = 0.0
        metrics = dict(res["layer"])
        metrics.update(prof)
        top = sorted(functions.items(), key=lambda kv: -kv[1])[:8]
        for fn, n in top:
            print("perfbench: self %5.1f%%  %s" %
                  (100.0 * n / max(1, prof["profile.samples"]), fn[:100]))
        declared = spec["per_layer"]
    else:
        metrics = e2e_metrics(res)
        declared = spec["end_to_end"]
    problems = check_names(metrics, {m["name"] for m in declared})
    for p in problems:
        print("perfbench: " + p, file=sys.stderr)
    units = {m["name"]: m["unit"] for m in declared}
    correct = code == 0 and not res["errors"] and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {k: {"value": v, "unit": units.get(k, "")}
                    for k, v in sorted(metrics.items())},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
