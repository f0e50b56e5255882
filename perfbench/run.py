#!/usr/bin/env python3
"""Time-to-solution benchmark for rss-sim.

Builds the simulator library and the benchmark harness from source, writes
the scenario spec of one named workload from a seed, runs it through the
harness for a fixed wall-time budget, checks the results, and prints one
JSON result line:

    python3 perfbench/run.py --workload paper_wan --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
(BENCHMARK.json lists both). Other modes:

    python3 perfbench/run.py --selftest          # short-horizon check of every workload
    python3 perfbench/run.py --record $(seq 0 20)  # rewrite refs/ for seeds 0-20

See perfbench/NOTES.md for the workloads, the metrics and the baseline.
"""

import argparse
import json
import math
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD_DIR, "rss_perfbench")
REFS_DIR = os.path.join(HERE, "refs")

# Simulated horizon per workload, in ms. The harness runs every point to its
# horizon in 250 equal run_until steps, each one slice_ms sample.
HORIZON_MS = {
    "paper_wan": 12000,
    "parkinglot_aqm": 4000,
    "scale_mesh": 500,
    "scale_fluid_p4": 4000,
}
SELFTEST_HORIZON_FRACTION = 0.2
PARKINGLOT_POINTS = 4

# Reference tolerances: per-flow goodput within REF_GOODPUT_REL (plus a
# small absolute floor for near-idle flows); SendStall, PktsRetrans and
# Timeouts within REF_COUNT_REL or REF_COUNT_ABS, whichever is larger.
# The simulator is deterministic, so a correct build matches exactly; the
# slack admits only floating-point reassociation, not behaviour changes.
REF_GOODPUT_REL = 0.005
REF_GOODPUT_ABS = 0.01
REF_COUNT_REL = 0.01
REF_COUNT_ABS = 1
REF_FIELDS = ("goodput_mbps", "send_stalls", "pkts_retrans", "timeouts")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


# --- workload specs ---------------------------------------------------------


def _ms(value):
    return "%dms" % value


def _us(value):
    return "%dus" % value


def paper_wan_spec(seed, horizon_ms):
    """The paper's ANL-LBNL testbed (the wanpath preset): 100 Mb/s NIC, IFQ
    100, 30 ms one way, Web100 polling; one bulk flow swept over standard
    TCP, limited slow-start and RSS. The seed does not enter: this workload
    is the control."""
    del seed
    return {
        "name": "paper_wan",
        "nodes": ["sender", "receiver"],
        "links": [{
            "a": "sender", "b": "receiver", "delay": "30ms",
            "a_dev": {"rate": "100mbps", "ifq_packets": 100, "name": "sender/nic"},
            "b_dev": {"name": "receiver/nic"},
        }],
        "flows": [{"src": "sender", "dst": "receiver", "id": 1, "start": "0s",
                   "cc": "reno", "web100": {}}],
        "run": {"duration": _ms(horizon_ms)},
        "sweep": {"axes": [{"field": "flows[0].cc",
                            "values": ["reno", "limited-slow-start",
                                       "restricted-slow-start"]}]},
    }


def parkinglot_aqm_spec(seed, horizon_ms):
    """3-hop parking lot, 8 cross flows per hop. Hop 0 is drop-tail, hop 1
    RED and hop 2 CoDel; every flow negotiates ECN, and flows are striped
    over reno, cubic, dctcp and rss. The seed sets the flow start offsets
    (0-100 ms), the per-hop delays (8-12 ms) and the spec seeds (RED's RNG)
    of a PARKINGLOT_POINTS-point sweep: one seed's work varies chaotically
    by up to 20%, and averaging four points per pass keeps it within a few
    percent across seeds."""
    rng = random.Random(seed)
    hops, cross = 3, 8
    qdiscs = [{"qdisc": "droptail"},
              {"qdisc": "red", "red": {"min_threshold": 20, "max_threshold": 60}},
              {"qdisc": "codel"}]
    ccs = ["reno", "cubic", "dctcp", "rss"]
    routers = ["r%d" % r for r in range(hops + 1)]
    nodes = routers + ["src", "dst"]
    links = []
    for h in range(hops):
        dev = {"rate": "100mbps", "ifq_packets": 100, "name": "hop%d" % h}
        dev.update(qdiscs[h])
        links.append({"a": routers[h], "b": routers[h + 1],
                      "delay": _ms(rng.randint(8, 12)),
                      "a_dev": dev, "b_dev": {"rate": "100mbps", "ifq_packets": 100}})

    def access(host, router):
        links.append({"a": host, "b": router, "delay": "1ms",
                      "a_dev": {"ifq_packets": 100}, "b_dev": {}})

    access("src", routers[0])
    access("dst", routers[hops])
    flows = [("src", "dst")]
    for h in range(hops):
        for k in range(cross):
            xs, xd = "xs%d_%d" % (h, k), "xd%d_%d" % (h, k)
            nodes += [xs, xd]
            access(xs, routers[h])
            access(xd, routers[h + 1])
            flows.append((xs, xd))
    return {
        "name": "parkinglot_aqm",
        "nodes": nodes,
        "links": links,
        "flows": [{"src": s, "dst": d, "start": _ms(rng.randint(0, 100)),
                   "cc": ccs[i % len(ccs)], "ecn": True}
                  for i, (s, d) in enumerate(flows)],
        "run": {"duration": _ms(horizon_ms)},
        "sweep": {"axes": [{"field": "seed",
                            "values": [rng.getrandbits(32)
                                       for _ in range(PARKINGLOT_POINTS)]}]},
    }


def _mesh_spec(name, seed, horizon_ms, fluid_local):
    """ScaleMesh with 4 segments: each a dumbbell (10 Gb/s access, 1 Gb/s
    5 ms bottleneck) carrying 25 local flows, joined by 10 ms trunks that
    each carry 5 cross flows. Every flow starts at 0, as the preset's
    start_all does; the seed enters only as the spec seed, from which
    nothing in these specs draws, so like paper_wan they are fixed across
    seeds. Seeded start offsets change these workloads' work and speed by
    up to 3x and 10x from seed to seed (NOTES.md), more than any bound can
    absorb."""
    segments, local, cross = 4, 25, 5
    nodes, links = [], []
    for i in range(segments):
        nodes += ["hL%d" % i, "rL%d" % i, "rR%d" % i, "hR%d" % i]
    for i in range(segments):
        links.append({"a": "hL%d" % i, "b": "rL%d" % i, "delay": "50us",
                      "a_dev": {"rate": "10gbps", "ifq_packets": 100},
                      "b_dev": {"rate": "10gbps"}})
        links.append({"a": "rL%d" % i, "b": "rR%d" % i, "delay": "5ms",
                      "a_dev": {"ifq_packets": 200, "name": "seg%d/bottleneck" % i},
                      "b_dev": {"ifq_packets": 200}})
        links.append({"a": "rR%d" % i, "b": "hR%d" % i, "delay": "50us",
                      "a_dev": {"rate": "10gbps"}, "b_dev": {"rate": "10gbps"}})
        if i + 1 < segments:
            links.append({"a": "rR%d" % i, "b": "rL%d" % (i + 1), "delay": "10ms",
                          "a_dev": {"rate": "10gbps", "ifq_packets": 200,
                                    "name": "trunk%d" % i},
                          "b_dev": {"rate": "10gbps", "ifq_packets": 200}})
    flows = []
    for i in range(segments):
        for _ in range(local):
            flow = {"src": "hL%d" % i, "dst": "hR%d" % i, "start": "0s"}
            if fluid_local:
                flow["model"] = "fluid"
            flows.append(flow)
    for i in range(segments - 1):
        for _ in range(cross):
            flows.append({"src": "hL%d" % i, "dst": "hR%d" % (i + 1), "start": "0s"})
    spec = {"name": name, "seed": seed % 2**64, "nodes": nodes, "links": links, "flows": flows,
            "run": {"duration": _ms(horizon_ms)}}
    if fluid_local:
        spec["execution"] = {"partitions": 4, "threads": 2}
    return spec


def scale_mesh_spec(seed, horizon_ms):
    """All 115 flows are packet Reno on the default execution policy."""
    return _mesh_spec("scale_mesh", seed, horizon_ms, fluid_local=False)


def scale_fluid_p4_spec(seed, horizon_ms):
    """Local flows are fluid aggregates; the 15 cross flows stay packet
    Reno; 4 partitions on 2 threads."""
    return _mesh_spec("scale_fluid_p4", seed, horizon_ms, fluid_local=True)


SPEC_MAKERS = {
    "paper_wan": paper_wan_spec,
    "parkinglot_aqm": parkinglot_aqm_spec,
    "scale_mesh": scale_mesh_spec,
    "scale_fluid_p4": scale_fluid_p4_spec,
}


def write_spec(workload, seed, horizon_ms):
    spec = SPEC_MAKERS[workload](seed, horizon_ms)
    path = os.path.join(BUILD_DIR, "specs", "%s-seed%d-%dms.json" % (workload, seed, horizon_ms))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(spec, f, indent=1)
    return path


# --- build and run ----------------------------------------------------------


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no simulator sources at %s; run from a full checkout" % ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "rss_perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                fail("build failed; see %s" % log_path)


def run_harness(spec_path, seconds, trace, trace_out=None):
    cmd = [HARNESS, "--spec", spec_path, "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=170)
    if proc.returncode != 0:
        fail("harness exited with %d" % proc.returncode)
    return json.loads(proc.stdout)


# --- result checks ----------------------------------------------------------


def load_reference(workload, seed, horizon_ms):
    """Recorded per-flow results for (workload, seed), or None. A workload
    whose results were identical for every recorded seed is stored once,
    under "*", and that entry serves every seed."""
    path = os.path.join(REFS_DIR, workload + ".json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        refs = json.load(f)
    if refs["horizon_ms"] != horizon_ms:
        return None
    points = refs["seeds"].get(str(seed), refs["seeds"].get("*"))
    if points is None:
        return None
    return [[dict(zip(refs["fields"], row)) for row in point] for point in points]


def compare_reference(flows, ref_flows):
    """Differences between one point's flows and its reference, as strings."""
    if len(flows) != len(ref_flows):
        return ["flow count %d != reference %d" % (len(flows), len(ref_flows))]
    problems = []
    for i, (got, want) in enumerate(zip(flows, ref_flows)):
        tol = REF_GOODPUT_ABS + REF_GOODPUT_REL * abs(want["goodput_mbps"])
        if abs(got["goodput_mbps"] - want["goodput_mbps"]) > tol:
            problems.append("flow %d goodput %.6f != reference %.6f"
                            % (i, got["goodput_mbps"], want["goodput_mbps"]))
        for key in ("send_stalls", "pkts_retrans", "timeouts"):
            tol = max(REF_COUNT_ABS, REF_COUNT_REL * want[key])
            if abs(got[key] - want[key]) > tol:
                problems.append("flow %d %s %d != reference %d" % (i, key, got[key], want[key]))
    return problems


def paper_verdict(points):
    """The paper's result on one pass of paper_wan: RSS never stalls,
    standard TCP does, and RSS's goodput is at least standard TCP's."""
    by_cc = {p["flows"][0]["cc"]: p["flows"][0] for p in points}
    std, rss = by_cc.get("reno"), by_cc.get("restricted-slow-start")
    if std is None or rss is None:
        return ["paper_wan pass lacks the reno or rss point"]
    problems = []
    if rss["send_stalls"] != 0:
        problems.append("RSS had %d send-stalls" % rss["send_stalls"])
    if std["send_stalls"] == 0:
        problems.append("standard TCP had no send-stalls")
    if rss["goodput_mbps"] < std["goodput_mbps"]:
        problems.append("RSS goodput %.3f < standard TCP %.3f"
                        % (rss["goodput_mbps"], std["goodput_mbps"]))
    return problems


def check_points(workload, points, reference):
    """Attach every failed check to its point; returns the failed count."""
    for p in points:
        p["problems"] = list(p["failures"])
        if reference is not None:
            if p["point"] < len(reference):
                p["problems"] += compare_reference(p["flows"], reference[p["point"]])
            else:
                p["problems"].append("no reference for point %d" % p["point"])
    if workload == "paper_wan":
        passes = {}
        for p in points:
            passes.setdefault((p["pass"], p["traced"]), []).append(p)
        for group in passes.values():
            problems = paper_verdict(group)
            if problems:
                rss = [p for p in group if p["flows"][0]["cc"] == "restricted-slow-start"]
                (rss or group)[0]["problems"] += problems
    return sum(1 for p in points if p["problems"])


# --- modes --------------------------------------------------------------------


def benchmark_metrics():
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json lists
    them: the metrics a result line must carry."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def measure(workload, seed, seconds, trace, horizon_ms=None, reference="auto"):
    horizon_ms = horizon_ms or HORIZON_MS[workload]
    spec_path = write_spec(workload, seed, horizon_ms)
    trace_out = None
    if trace:
        trace_out = os.path.join(BUILD_DIR, "traces", "%s-seed%d.json" % (workload, seed))
        os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    result = run_harness(spec_path, seconds, trace, trace_out)
    if reference == "auto":
        reference = load_reference(workload, seed, horizon_ms)
    failed = check_points(workload, result["points"], reference)
    return result, failed


def report(result, failed, trace):
    points = result["points"]
    for p in points:
        for problem in p["problems"]:
            print("check failed (pass %d point %d%s): %s"
                  % (p["pass"], p["point"], " traced" if p["traced"] else "", problem),
                  file=sys.stderr)
    e2e = result["e2e"]
    print("passes=%d slices=%d probe_ms=%.4f (%d samples) check_fail_frac=%.4f"
          % (e2e["passes"], e2e["slice_samples"], e2e["probe_ms"], e2e["probe_samples"],
             failed / len(points)), file=sys.stderr)
    e2e_units, layer_units = benchmark_metrics()
    values, units = (result["layers"], layer_units) if trace else (e2e, e2e_units)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(points), "failed": failed,
                      "metrics": metrics}))


def selftest():
    """Short-horizon run of every workload. Checks that every metric
    BENCHMARK.json names is emitted and finite, that the result checks
    pass, and that a corrupted reference is counted as a failure."""
    e2e_units, layer_units = benchmark_metrics()
    problems = []
    for workload, full_horizon_ms in HORIZON_MS.items():
        horizon_ms = int(full_horizon_ms * SELFTEST_HORIZON_FRACTION)
        result, failed = measure(workload, 1, 0, True, horizon_ms, reference=None)
        emitted = dict(result["e2e"], **result["layers"])
        for name in list(e2e_units) + list(layer_units):
            value = emitted.get(name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append("%s: metric %s missing or not finite" % (workload, name))
        if failed:
            problems.append("%s: %d of %d points failed their checks: %s"
                            % (workload, failed, len(result["points"]),
                               [p["problems"] for p in result["points"] if p["problems"]]))
        # The run's own results are a reference it must match; the same
        # reference with one flow's goodput and stalls perturbed must fail.
        points = [p for p in result["points"] if p["pass"] == 0 and not p["traced"]]
        own = [p["flows"] for p in points]
        corrupted = json.loads(json.dumps(own))
        corrupted[0][0]["goodput_mbps"] = corrupted[0][0]["goodput_mbps"] * 1.5 + 1.0
        corrupted[0][0]["send_stalls"] += 10
        if check_points(workload, json.loads(json.dumps(points)), own):
            problems.append("%s: results do not match themselves as a reference" % workload)
        if not check_points(workload, json.loads(json.dumps(points)), corrupted):
            problems.append("%s: a corrupted reference was not counted as a failure" % workload)
        print("selftest %s: %d points, %d slices" % (workload, len(result["points"]),
                                                     result["e2e"]["slice_samples"]))
    for problem in problems:
        print("selftest FAILED: " + problem, file=sys.stderr)
    print("selftest %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def record(seeds):
    """Run every workload once per seed at its full horizon and write the
    per-flow results to refs/<workload>.json, one line per seed."""
    os.makedirs(REFS_DIR, exist_ok=True)
    for workload, horizon_ms in HORIZON_MS.items():
        by_seed = {}
        for seed in seeds:
            result, failed = measure(workload, seed, 0, False, reference=None)
            if failed:
                fail("%s seed %d fails its checks; not recording" % (workload, seed))
            points = sorted(result["points"], key=lambda p: p["point"])
            by_seed[str(seed)] = [[[f[k] for k in REF_FIELDS] for f in p["flows"]]
                                  for p in points]
        if len({json.dumps(v) for v in by_seed.values()}) == 1:
            by_seed = {"*": next(iter(by_seed.values()))}
        lines = ['{"horizon_ms": %d, "fields": %s, "seeds": {'
                 % (horizon_ms, json.dumps(list(REF_FIELDS)))]
        lines += ['  "%s": %s%s' % (seed, json.dumps(points, separators=(",", ":")),
                                    "," if i + 1 < len(by_seed) else "")
                  for i, (seed, points) in enumerate(by_seed.items())]
        lines.append("}}")
        with open(os.path.join(REFS_DIR, workload + ".json"), "w") as f:
            f.write("\n".join(lines) + "\n")
        print("recorded %s for seeds %s" % (workload, " ".join(by_seed)))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(HORIZON_MS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record", type=int, nargs="+", metavar="SEED")
    args = parser.parse_args()
    if not (args.selftest or args.record or args.workload):
        parser.error("one of --workload, --selftest or --record is required")
    build()
    if args.selftest:
        return selftest()
    if args.record:
        return record(args.record)
    result, failed = measure(args.workload, args.seed, args.seconds, args.trace == 1)
    report(result, failed, args.trace == 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
