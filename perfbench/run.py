#!/usr/bin/env python3
"""EDA benchmark: builds the program and the benchmark from source, runs one
workload in one JVM, checks its outputs and prints the metrics.

    python3 perfbench/run.py --workload report-wide --seed 1 --seconds 5 --trace 0

Run it from the root of the repository. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, measured
with no listener registered; with --trace 1 they are its per-layer metrics,
from one traced pass over the workload's timed block (one report, or the 15
calls of the interactive block). Lines before it describe the run; the full
record of each run is kept in .bench_build/results/.

The first run in a checkout builds with sbt (offline) into target/ and
perfbench/target/; later runs reuse the build while the sources are
unchanged. Spark runs as local[N] with N = min(4, nproc).
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RESULTS = os.path.join(BUILD, "results")
# The JVM's deadline; the first run in a checkout also builds, for at most
# BUILD_TIMEOUT_S.
DEADLINE_S = 170
BUILD_TIMEOUT_S = 700
CORES = min(4, len(os.sched_getaffinity(0)))
HEAP = "3g"
# Relative tolerance on the digest sums of the fixed reference inputs.
DIGEST_RTOL = 1e-6

SPARK_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    patterns = ["build.sbt", "project/*.properties", "project/*.sbt", "project/*.scala",
                "src/main/**/*", "jobs/**/*", "perfbench/build.sbt", "perfbench/project/*.properties",
                "perfbench/src/**/*"]
    files = set()
    for p in patterns:
        files.update(f for f in glob.glob(os.path.join(ROOT, p), recursive=True)
                     if os.path.isfile(f))
    return sorted(files)


def source_digest():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return None
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return r.stdout.strip() or None


def run_bounded(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the group if it outlives timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{cmd[0]} did not finish within {timeout:.0f} s")
    return proc.returncode, out


def build(digest):
    """Build once per source state, and again if build outputs on the
    classpath are gone; return the runtime classpath."""
    stamp = os.path.join(BUILD, "build.json")
    if os.path.exists(stamp):
        with open(stamp) as fh:
            cached = json.load(fh)
        if cached.get("digest") == digest and all(
                os.path.exists(p) for p in cached["classpath"].split(os.pathsep)):
            return cached["classpath"]
    if not shutil.which("sbt"):
        fail("sbt not found on PATH")
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ, SPARK_HOME=spark_home())
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.offline=true")
    code, out = run_bounded(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
         "-Dsbt.global.base=" + os.path.join(BUILD, "sbt"), "export Runtime/fullClasspath"],
        BUILD_TIMEOUT_S, cwd=HERE, env=env, stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL, text=True)
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("[")]
    if code != 0 or not lines:
        sys.stderr.write(out)
        fail(f"build failed (sbt exit {code})")
    classpath = lines[-1].strip()
    with open(stamp, "w") as fh:
        json.dump({"digest": digest, "classpath": classpath}, fh)
    return classpath


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("Spark not found: set SPARK_HOME")
    return home


def percentile(xs, q):
    """Linear-interpolated percentile, q in [0, 1]."""
    xs = sorted(xs)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def close(a, b, rtol):
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


def digest_mismatches(actual, recorded):
    """Names of reference calls whose digest differs from the recorded one."""
    bad = []
    for name, want in recorded.items():
        got = actual.get(name, {}).get("digest")
        if got is None or set(got) != set(want):
            bad.append(name)
            continue
        for kind, w in want.items():
            g = got[kind]
            if isinstance(w, dict):
                ok = (g["n"] == w["n"] and g["nan"] == w["nan"]
                      and close(g["sum"], w["sum"], DIGEST_RTOL)
                      and close(g["abs"], w["abs"], DIGEST_RTOL))
            else:
                ok = g == w
            if not ok:
                bad.append(f"{name}:{kind}")
    return bad


def end_to_end(res):
    walls = [o["wall_s"] for o in res["ops"]]
    return {
        "setup_s": res["session_s"] + statistics.median(res["data_s"]) + res["warmup_s"],
        "op_mean_s": statistics.mean(walls),
        "op_p90_s": percentile(walls, 0.9),
    }


def per_layer(res):
    """Per-layer values of the traced calls; a listed `spark.<key>.*` name
    missing here is a key that ran no Spark job, and reads 0."""
    sp = res["spark"]
    block_wall = sum(o["wall_s"] for o in res["ops"])
    values = {
        "spark.jobs": sp["jobs"], "spark.stages": sp["stages"], "spark.tasks": sp["tasks"],
        "spark.busy_s": sp["busy_s"], "spark.task_s": sp["task_s"], "plan_s": sp["plan_s"],
        "spark.util": sp["task_s"] / (sp["busy_s"] * res["env"]["spark_cores"])
        if sp["busy_s"] > 0 else 0.0,
        "driver.local_s": block_wall - sp["busy_s"] - sp["plan_s"],
        "traced.op_mean_s": block_wall / len(res["ops"]),
        "jvm.heap_peak_mb": res["heap_peak_mb"],
    }
    values.update(res["modules"])
    for key, stats in sp["keys"].items():
        for field, v in stats.items():
            values[f"spark.{key}.{field}"] = v
    return values


def untraced_record(workload, seed):
    path = os.path.join(RESULTS, f"{workload}-seed{seed}-trace0.json")
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", default="default")
    ap.add_argument("--seconds", type=float, default=5)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(bench_json):
        fail("BENCHMARK.json not found; run from the repository root")
    with open(bench_json) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")) or \
            not os.path.exists(os.path.join(ROOT, "build.sbt")):
        fail("program sources (build.sbt, src/main/scala) not found next to perfbench/")
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)

    digest = source_digest()
    classpath = build(digest)
    for d in (RESULTS, os.path.join(BUILD, "tmp"), os.path.join(BUILD, "spark-local")):
        os.makedirs(d, exist_ok=True)
    out_path = os.path.join(BUILD, "tmp", f"raw-{os.getpid()}.json")
    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-Djava.io.tmpdir=" + os.path.join(BUILD, "tmp"),
            "-Dspark.driver.host=127.0.0.1"]
           + [f"--add-opens={p}=ALL-UNNAMED" for p in SPARK_OPENS]
           + ["-cp", classpath, "perfbench.Bench", "--workload", args.workload,
              "--seed", args.seed, "--seconds", str(args.seconds), "--trace", args.trace,
              "--cores", str(CORES), "--out", out_path])
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(BUILD, "spark-local"))
    code, _ = run_bounded(cmd, DEADLINE_S, cwd=ROOT, env=env,
                          stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if code != 0 or not os.path.exists(out_path):
        fail(f"benchmark JVM exited with {code}")
    with open(out_path) as fh:
        res = json.load(fh)
    os.remove(out_path)

    ref = res.get("reference", {"calls": {}})
    ref_errors = {k: v["errors"] for k, v in ref["calls"].items() if v["errors"]}
    recorded = reference["digests"] if reference.get("spark_cores") == CORES else {}
    mismatched = digest_mismatches(ref["calls"], recorded) if ref["calls"] else []
    ref_failed = len(set(ref_errors) | {m.split(":")[0] for m in mismatched})
    checked_ops = res["warmup"] + res["ops"]
    op_failed = sum(1 for o in checked_ops if o["errors"])
    attempted = len(checked_ops) + len(ref["calls"])
    failed = op_failed + ref_failed

    flags = []
    if ref["calls"] and ref["jobs_narrow"] != ref["jobs_wide"]:
        flags.append(f"createReport jobs depend on width: {ref['jobs_narrow']} on 5+5 columns, "
                     f"{ref['jobs_wide']} on 40+20")
    if ref["calls"] and not recorded:
        flags.append(f"no recorded digests for local[{CORES}]; digest check skipped")

    if args.trace == "0":
        listed, values = spec["end_to_end"], end_to_end(res)
    else:
        listed, values = spec["per_layer"], per_layer(res)
        want = reference["jobs_per_block"].get(args.workload)
        if want is not None and res["spark"]["jobs"] != want:
            flags.append(f"Spark jobs per block changed: {res['spark']['jobs']} "
                         f"(recorded {want})")
        base = untraced_record(args.workload, res["seed"])
        if base:
            # Same seed, so both runs time the same block of calls.
            k = min(len(base["ops"]), len(res["ops"]))
            res["trace_overhead"] = (sum(o["wall_s"] for o in res["ops"][:k])
                                     / sum(o["wall_s"] for o in base["ops"][:k]))
    metrics = {}
    for m in listed:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        elif args.trace == "1" and m["name"].startswith("spark."):
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            fail(f"metric {m['name']} is not produced")

    families = {}
    for o in res["ops"]:
        families.setdefault(o["family"], []).append(o["wall_s"])
    res.update({
        "metrics": metrics, "flags": flags, "failed_frac": failed / attempted,
        "digest_mismatches": mismatched, "reference_errors": ref_errors,
        "family_p50_s": {f: statistics.median(w) for f, w in families.items()},
        "source_digest": digest, "git_sha": git_sha(), "seconds": args.seconds,
    })
    record = os.path.join(RESULTS, f"{args.workload}-seed{res['seed']}-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)

    env_info = res["env"]
    print(f"workload={args.workload} seed={res['seed']} trace={args.trace} "
          f"ops={len(res['ops'])} failed={failed}/{attempted} "
          f"nproc={env_info['nproc']} local[{env_info['spark_cores']}] "
          f"heap={env_info['heap_max_mb']}MB spark={env_info['spark']} "
          f"scala={env_info['scala']} java={env_info['java']} "
          f"git={res['git_sha']} src={digest[:12]}")
    print("per-function p50 s: " + json.dumps(res["family_p50_s"], sort_keys=True))
    if args.trace == "0":
        print(f"op_p90_s: {values['op_p90_s']:.4f} (90th percentile of {len(res['ops'])} calls)")
    if ref["calls"]:
        print(f"createReport jobs on fixed inputs: narrow={ref['jobs_narrow']} "
              f"wide={ref['jobs_wide']}")
    if "trace_overhead" in res:
        print(f"tracing overhead (traced/untraced wall of the same calls): "
              f"{res['trace_overhead']:.3f}")
    for f in flags:
        print(f"FLAG: {f}")
    for e in list(ref_errors.items())[:5] + [(o["call"], o["errors"]) for o in checked_ops
                                              if o["errors"]][:5]:
        print(f"CHECK FAILED: {e[0]}: {e[1][:3]}")
    for m in mismatched[:5]:
        print(f"DIGEST MISMATCH: {m}")
    if args.trace == "1":
        keys = res["spark"]["keys"]
        for k in sorted(keys, key=lambda k: -keys[k]["busy_s"]):
            print(f"  spark.{k}: " + json.dumps(keys[k], sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
