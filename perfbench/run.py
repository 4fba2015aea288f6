"""Run a workload of the CDC benchmark and print its metrics.

    python3 perfbench/run.py --workload tail_index --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a source tree of the program. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (every end-to-end metric with ``--trace 0``,
every per-layer metric with ``--trace 1``). ``--workload all`` runs the
three in one Ray session; ``--smoke`` runs them small. The exit code is
0 only when every operation matched the oracle. See
``perfbench/README.md``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
STATE = ROOT / ".perfbench"
OBJECT_STORE_BYTES = 384 * 2**20
# Ray puts unix sockets up to 67 characters deep under its temp dir
# (session_<date>_<time>_<usec>_<pid>/sockets/plasma_store), and a socket
# path may not exceed 107: on a deeper tree Ray's default is used
_MAX_RAY_TMP = 40


def _wait_gone(pids: list[int], timeout_s: float = 20.0) -> None:
    """Wait until every process in ``pids`` has exited (reaping the ones
    that are this process's children); kill what is left after
    ``timeout_s``. Takes pids, not a process tree: Ray's agents are the
    raylet's children and outlive it as orphans for a moment."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        left = [p for p in pids if _alive(p)]
        if not left:
            return
        if time.monotonic() > deadline:
            for p in left:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.1)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z" or _is_child(pid)


def _is_child(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return int(f.read().rsplit(")", 1)[1].split()[1]) == os.getpid()
    except (OSError, IndexError, ValueError):
        return False


def _remove_dead_runs() -> None:
    """Stop the processes and remove the directories that runs killed
    before their clean-up left behind (``.perfbench/runs/<pid>``). Ray's
    own SIGTERM handling can end a driver before its ``finally`` is done."""
    runs = STATE / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    dead = [str(d) for d in runs.iterdir()
            if d.name.isdigit() and int(d.name) != os.getpid()
            and not Path(f"/proc/{d.name}").exists()]
    if not dead:
        return
    strays = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read().decode(errors="replace")
        except OSError:
            continue
        if int(pid) != os.getpid() and any(d + os.sep in cmd for d in dead):
            strays.append(int(pid))
    for pid in strays:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    _wait_gone(strays)
    for d in dead:
        shutil.rmtree(d, ignore_errors=True)


def _steal_s() -> float:
    """CPU time the hypervisor gave to others, summed over all CPUs."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _record_untraced(workload: str, stamp: str, metrics: dict) -> None:
    STATE.mkdir(exist_ok=True)
    with open(STATE / "untraced.jsonl", "a") as f:
        f.write(json.dumps({"workload": workload, "stamp": stamp,
                            "metrics": metrics}) + "\n")


def _tracing_gap(workload: str, stamp: str, traced: dict) -> dict | None:
    """Traced end-to-end figures relative to the median of this tree's
    untraced runs of the same workload and shape."""
    path = STATE / "untraced.jsonl"
    if not path.exists():
        return None
    runs = [r["metrics"]
            for r in map(json.loads, path.read_text().splitlines())
            if r["workload"] == workload and r["stamp"] == stamp]
    if not runs:
        return None
    gap = {}
    for name, v in traced.items():
        xs = [r[name] for r in runs if name in r]
        base = statistics.median(xs) if xs else None
        gap[name] = v / base - 1.0 if base else None
    return {"untraced_runs": len(runs), "relative_gap": gap}


def _result_line(ctx, ray_init_s: float, cores: int, load) -> dict:
    """The workload's JSON result, after a line with its wall-clock
    figures; a traced run also writes its spans, per-layer metrics and
    tracing overhead to ``.perfbench/traces/``."""
    from perfbench import workloads

    e2e = workloads.end_to_end(ctx, ray_init_s)
    wall = workloads.wall_figures(ctx)
    print(json.dumps({"workload": ctx.name,
                      "wall": {k: {"value": v, "unit": u}
                               for k, (v, u) in wall.items()}}), flush=True)
    figures = {k: v for k, (v, _) in {**e2e, **wall}.items()}
    stamp = json.dumps(dataclasses.asdict(ctx.shape), sort_keys=True)
    if ctx.tracer.on:
        layers = workloads.per_layer(ctx, cores)
        metrics = {k: layers[k] for k in workloads.PER_LAYER}
        gap = _tracing_gap(ctx.name, stamp, figures)
        path = STATE / "traces" / \
            f"{ctx.name}-seed{ctx.seed}-{int(time.time())}.json"
        ctx.tracer.dump(path, {
            "workload": ctx.name, "seed": ctx.seed, "cpu_count": cores,
            "loadavg": load,
            "end_to_end": figures,
            "per_layer": {k: v for k, (v, _) in layers.items()},
            "tracing_overhead": {"tracer_self_s": ctx.tracer.self_s,
                                 "end_to_end_vs_untraced": gap}})
        print(json.dumps({"workload": ctx.name,
                          "trace_file": str(path.relative_to(ROOT)),
                          "workload_layers": {
                              k: layers[k][0]
                              for k in workloads.WORKLOAD_LAYERS[ctx.name]},
                          "tracing_overhead": gap}), flush=True)
    else:
        metrics = e2e
        _record_untraced(ctx.name, stamp, figures)
    return {"correct": ctx.failed == 0, "attempted": ctx.attempted,
            "failed": ctx.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="drain_backlog, tail_index, mor_serve or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs, one round per workload")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT))
    import chomper_ray  # noqa: F401  (fails fast outside a source tree)

    from perfbench import gen, workloads
    from perfbench.oracle import Oracle
    from perfbench.trace import Tracer, descendants

    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        ap.error(f"unknown workload {args.workload!r}")
    shapes = workloads.SMOKE if args.smoke else workloads.SHAPES
    cores = os.cpu_count()
    load = os.getloadavg()
    steal0 = _steal_s()
    print(json.dumps({"workloads": names, "seed": args.seed,
                      "cpu_count": cores, "loadavg": load}), flush=True)
    t = time.perf_counter()
    inputs = {n: gen.ensure_inputs(STATE / "inputs", shapes[n].spec,
                                   args.seed) for n in names}
    oracles = {n: Oracle(inputs[n]) for n in names}
    unmeasured = time.perf_counter() - t

    _remove_dead_runs()
    run_dir = STATE / "runs" / str(os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)  # a dead run with our pid
    ray_tmp = run_dir / "r"
    own_ray_tmp = len(str(ray_tmp)) <= _MAX_RAY_TMP
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True)
    # scratch of the program (index and view refresh) and of the Ray
    # workers, which inherit the environment at session start
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    done = []
    import ray

    try:
        ray.init(num_cpus=cores, object_store_memory=OBJECT_STORE_BYTES,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False,
                 _temp_dir=str(ray_tmp) if own_ray_tmp else None)
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        ray_init_s = time.perf_counter() - T_START - unmeasured
        for n in names:
            ctx = workloads.Ctx(name=n, shape=shapes[n], seed=args.seed,
                                seconds=args.seconds,
                                tracer=Tracer(bool(args.trace)),
                                inputs=inputs[n], work=run_dir / n,
                                oracle=oracles[n])
            ctx.work.mkdir()
            t = time.perf_counter()
            workloads.WORKLOADS[n](ctx)
            print(json.dumps({"workload": n, "rounds": len(ctx.poll_s),
                              "setup_builds_s": ctx.setup_builds,
                              "commit_s": ctx.commit_s,
                              "fresh_s": ctx.fresh_s,
                              "workload_s": time.perf_counter() - t,
                              "inputs_s": unmeasured,
                              "ray_init_s": ray_init_s,
                              "host_steal_s": _steal_s() - steal0,
                              "loadavg": os.getloadavg()}),
                  file=sys.stderr)
            shutil.rmtree(ctx.work)
            done.append(ctx)
    finally:
        session = descendants(os.getpid())
        node = ray._private.worker._global_node
        session_dir = node.get_session_dir_path() if node else None
        ray.shutdown()
        _wait_gone(session + descendants(os.getpid()))
        shutil.rmtree(run_dir, ignore_errors=True)
        if session_dir and not own_ray_tmp:
            shutil.rmtree(session_dir, ignore_errors=True)
            latest = Path(session_dir).parent / "session_latest"
            if os.path.realpath(latest) == os.path.realpath(session_dir):
                latest.unlink(missing_ok=True)

    lines = [_result_line(ctx, ray_init_s, cores, load) for ctx in done]
    if len(lines) == 1:
        last = lines[0]
    else:
        for n, line in zip(names, lines):
            print(json.dumps({"workload": n, **line}), flush=True)
        last = {"correct": all(x["correct"] for x in lines),
                "attempted": sum(x["attempted"] for x in lines),
                "failed": sum(x["failed"] for x in lines),
                "metrics": {f"{n}.{k}": v for n, line in zip(names, lines)
                            for k, v in line["metrics"].items()}}
    print(json.dumps(last), flush=True)
    return 0 if last["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
