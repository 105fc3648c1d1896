"""Command-line interface.

::

    repro synthesize "uniq -c"
    repro explain "cat in.txt | sort | uniq -c" --file in.txt
    repro run "cat in.txt | sort | uniq -c" --file in.txt -k 4
    repro serve --port 7070 --concurrency 4 --store combiners.json
    repro submit "cat in.txt | sort | uniq -c" --file in.txt -k 4
    repro status

(also reachable as ``python -m repro`` or ``python -m repro.cli``).

Subcommands:

* ``synthesize CMD`` — synthesize and print the combiner for one
  command (optionally persisting to ``--store combiners.json``).
* ``explain PIPELINE`` — run the pipeline optimizer, synthesize every
  stage, and print the rewrite trace plus the chosen compiled plan
  without executing the job (cost-based selection does run the
  candidates on a bounded input sample; ``--no-optimize`` shows the
  plan exactly as written).
* ``run PIPELINE`` — compile and execute the pipeline with ``-k``-way
  parallelism, writing the output stream to stdout (or ``--output``).
* ``serve`` — run the resident parallelization daemon: jobs are
  accepted over a local HTTP API, scheduled fair-share across clients,
  and served from a shared compiled-plan cache.  With ``--nodes N``
  the daemon also forks N local executor processes, making it a
  one-command distributed cluster.
* ``executor --join URL`` — join a running daemon as an executor node:
  pull chunk tasks, run them, return per-chunk outputs (plans arrive
  by content digest and are cached locally).
* ``submit PIPELINE`` — send one job to a running daemon and print its
  output (``--no-wait`` to only print the job id; ``--distribute`` to
  run its chunk tasks on the daemon's executor nodes).
* ``nodes`` — list a running daemon's executor nodes.
* ``status`` — print a running daemon's status counters as JSON.
* ``bench`` — run the perf-trajectory benchmark suite (tables,
  optimizer/scheduler/streaming scenarios, fuzz corpus, service soak)
  and write machine-readable ``BENCH_<runid>.json``
  (``--smoke`` keeps the whole suite under two minutes).

Files referenced by the pipeline are loaded from the real filesystem
into the sandboxed virtual filesystem with ``--file PATH`` (repeatable).
Execution uses the chunk-pipelined streaming data plane by default;
``--barrier`` restores the paper's stage-at-a-time materialization,
``--stats`` prints per-stage throughput and overlap accounting, and
``--stats-json PATH`` writes the same accounting as machine-readable
JSON (``-`` for stderr) — the service's job results carry the identical
serialization.  ``--store combiners.json`` persists synthesis results
so repeated runs (and daemon restarts) skip re-synthesis.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

from . import parallelize
from .core.synthesis import CombinerStore, SynthesisConfig, synthesize
from .shell import Command


def _load_files(paths: List[str]) -> Dict[str, str]:
    fs: Dict[str, str] = {}
    for path in paths:
        with open(path, "r") as fh:
            fs[os.path.basename(path)] = fh.read()
    return fs


def _parse_env(pairs: Optional[List[str]]) -> Dict[str, str]:
    env: Dict[str, str] = {}
    for kv in pairs or []:
        name, sep, value = kv.partition("=")
        if not sep or not name:
            print(f"error: --env expects NAME=VALUE, got {kv!r}",
                  file=sys.stderr)
            raise SystemExit(2)
        env[name] = value
    return env


def _config(args) -> SynthesisConfig:
    return SynthesisConfig(max_size=args.max_size, seed=args.seed)


def cmd_synthesize(args) -> int:
    command = Command.from_string(args.command)
    store = _open_store(args.store)
    if store is not None:
        cached = store.get(command.key())
        if cached is not None:
            print(f"(cached) {cached.command_display}: "
                  f"{'; '.join(cached.pretty_survivors()) if cached.ok else cached.status}")
            return 0 if cached.ok else 1
    result = synthesize(command, _config(args))
    rec, struct, run = result.search_space
    print(f"command:      {result.command_display}")
    print(f"search space: {rec + struct + run} candidates "
          f"(delims {[repr(d)[1:-1] for d in result.delims]})")
    print(f"executions:   {result.executions} in {result.elapsed:.2f}s")
    if result.ok:
        print("plausible combiners:")
        for pretty in result.pretty_survivors():
            print(f"  {pretty}")
    else:
        print(f"UNSUPPORTED ({result.status}): {result.reason}")
    if store is not None:
        store.put(command.key(), result)
        store.save()
        print(f"stored in {args.store}")
    return 0 if result.ok else 1


def _open_store(path: Optional[str]) -> Optional[CombinerStore]:
    if not path:
        return None
    try:
        return CombinerStore(path)
    except Exception as exc:
        print(f"error: cannot load combiner store {path}: {exc}",
              file=sys.stderr)
        raise SystemExit(2)


def _build(args):
    files = _load_files(args.file or [])
    env = _parse_env(args.env)
    return parallelize(args.pipeline, k=args.k, files=files, env=env,
                       engine=args.engine, optimize=args.optimize,
                       config=_config(args), store=_open_store(args.store),
                       streaming=not args.barrier,
                       scheduler=args.scheduler, speculate=args.speculate)


def cmd_explain(args) -> int:
    pp = _build(args)
    plan = pp.plan
    if args.optimize:
        if plan.rewrite_trace:
            print(f"rewrites ({plan.rewrites} applied):")
            for line in plan.rewrite_trace:
                print("  " + line)
        else:
            print("rewrites: none profitable")
        print(f"pipeline: {plan.pipeline.render()}")
    print(f"plan ({plan.parallelized}/{plan.num_stages} stages "
          f"parallelized, {plan.eliminated} combiners eliminated, "
          f"scheduler={plan.scheduler}):")
    for line in plan.describe():
        print("  " + line)
    return 0


def _emit_stats_json(stats, destination: str) -> None:
    payload = json.dumps(stats.to_dict(), indent=1)
    if destination == "-":
        print(payload, file=sys.stderr)
    else:
        with open(destination, "w") as fh:
            fh.write(payload + "\n")


def _print_stats(stats) -> None:
    for s in stats.stages:
        print(f"# {s.display[:40]:40s} {s.mode:11s} "
              f"chunks={s.chunks} in={s.bytes_in}B out={s.bytes_out}B "
              f"{s.seconds:.3f}s overlap={s.overlap_seconds:.3f}s "
              f"({s.throughput_mbs:.1f} MB/s)", file=sys.stderr)
    print(f"# total {stats.seconds:.3f}s "
          f"overlap={stats.total_overlap:.3f}s "
          f"(k={stats.k}, engine={stats.engine}, "
          f"plane={stats.data_plane})",
          file=sys.stderr)


def cmd_run(args) -> int:
    pp = _build(args)
    out = pp.run()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    if pp.last_stats:
        if args.stats:
            _print_stats(pp.last_stats)
        if args.stats_json:
            _emit_stats_json(pp.last_stats, args.stats_json)
    return 0


# ---------------------------------------------------------------------------
# service subcommands


def _default_server() -> str:
    return os.environ.get("REPRO_SERVER", "http://127.0.0.1:7070")


def _parse_quotas(pairs: Optional[List[str]]) -> Dict[str, int]:
    quotas: Dict[str, int] = {}
    for kv in pairs or []:
        name, sep, value = kv.partition("=")
        try:
            quotas[name] = int(value)
        except ValueError:
            sep = ""
        if not sep or not name or quotas.get(name, 0) < 1:
            print(f"error: --quota expects TENANT=N (N >= 1), got {kv!r}",
                  file=sys.stderr)
            raise SystemExit(2)
    return quotas


def cmd_serve(args) -> int:
    import subprocess

    from .service.server import ServiceConfig, serve_forever

    config = ServiceConfig(
        host=args.host, port=args.port, concurrency=args.concurrency,
        max_queued=args.max_queued,
        max_queued_per_client=args.per_client_queue,
        quotas=_parse_quotas(args.quota),
        plan_cache_capacity=args.plan_cache_size,
        store_path=args.store, plan_cache_path=args.plan_cache,
        max_request_bytes=args.max_request_mb * 1024 * 1024,
        heartbeat_timeout=args.heartbeat_timeout)
    executors: List[subprocess.Popen] = []

    def announce(service) -> None:
        print(f"repro service listening on {service.url} "
              f"(concurrency={args.concurrency}, "
              f"plan-cache={args.plan_cache_size}"
              f"{', store=' + args.store if args.store else ''}"
              f"{', snapshot=' + args.plan_cache if args.plan_cache else ''}"
              f"{f', nodes={args.nodes}' if args.nodes else ''})",
              flush=True)
        # --nodes N: a one-command local cluster — fork N executor
        # processes joined to this controller over localhost
        for _ in range(args.nodes):
            executors.append(subprocess.Popen(
                [sys.executable, "-m", "repro", "executor",
                 "--join", service.url,
                 "--capacity", str(args.node_capacity)]))

    try:
        return serve_forever(config, ready=announce)
    finally:
        for proc in executors:
            proc.terminate()
        for proc in executors:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()


def cmd_executor(args) -> int:
    from .distrib import ExecutorAgent, HttpTransport
    from .parallel.scheduler import FaultPolicy
    from .service.client import ServiceClient, ServiceUnavailable

    client = ServiceClient(args.join, timeout=args.timeout)
    fault_policy = None
    if args.die_after is not None:
        # fault-injection hook for resilience drills: complete N tasks,
        # then crash without completing the next one (keyed by the
        # ordinal the controller assigns at registration)
        fault_policy = FaultPolicy()
    agent = ExecutorAgent(HttpTransport(client), capacity=args.capacity,
                          node_id=args.node_id, fault_policy=fault_policy,
                          poll_wait=args.poll_wait)
    try:
        agent.register()
    except Exception as exc:  # noqa: BLE001 - startup failure is exit 2
        print(f"error: cannot join {args.join}: {exc}", file=sys.stderr)
        return 2
    if fault_policy is not None:
        fault_policy.node_kill = {agent.ordinal: args.die_after}
    print(f"executor {agent.node_id} joined {args.join} "
          f"(ordinal={agent.ordinal}, capacity={args.capacity})",
          flush=True)
    agent.run()
    print(f"executor {agent.node_id} exiting "
          f"(ran={agent.tasks_run}, errors={agent.tasks_errored}, "
          f"plans={agent.plans_fetched})", flush=True)
    return 0


def cmd_nodes(args) -> int:
    from .service.client import ServiceClient, ServiceUnavailable

    try:
        nodes = ServiceClient(args.server, timeout=args.timeout).nodes()
    except ServiceUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(nodes, indent=1))
        return 0
    if not nodes:
        print("no executor nodes have registered")
        return 0
    header = (f"{'ORDINAL':>7}  {'NODE':<12}  {'STATE':<5}  {'CAP':>3}  "
              f"{'DONE':>6}  {'FAIL':>5}  {'PULLS':>6}  LAST-SEEN")
    print(header)
    for n in nodes:
        print(f"{n['ordinal']:>7}  {n['node_id']:<12}  {n['state']:<5}  "
              f"{n['capacity']:>3}  {n['tasks_done']:>6}  "
              f"{n['tasks_failed']:>5}  {n['pulls']:>6}  "
              f"{n['last_seen_seconds_ago']:.1f}s ago")
    return 0


def cmd_bench(args) -> int:
    from .evaluation.benchsuite import main as bench_main

    argv = []
    if args.smoke:
        argv.append("--smoke")
    argv += ["--out", args.out, "-k", str(args.k),
             "--clients", str(args.clients),
             "--concurrency", str(args.concurrency)]
    if args.runid:
        argv += ["--runid", args.runid]
    if args.stages:
        argv += ["--stages", args.stages]
    if args.scale is not None:
        argv += ["--scale", str(args.scale)]
    if args.fuzz_iterations is not None:
        argv += ["--fuzz-iterations", str(args.fuzz_iterations)]
    return bench_main(argv)


def cmd_submit(args) -> int:
    from .service.client import ServiceClient, ServiceUnavailable
    from .service.protocol import ValidationError

    files = _load_files(args.file or [])
    env = _parse_env(args.env)
    client = ServiceClient(args.server, client_id=args.client_id,
                           timeout=args.timeout)
    try:
        job_id = client.submit(
            args.pipeline, files=files, env=env, k=args.k,
            engine=args.engine, streaming=not args.barrier,
            optimize=args.optimize, scheduler=args.scheduler,
            speculate=args.speculate, distribute=args.distribute,
            max_size=args.max_size, seed=args.seed)
        if args.no_wait:
            print(job_id)
            return 0
        result = client.wait(job_id, timeout=args.timeout)
    except (ServiceUnavailable, ValidationError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if result.status != "done":
        print(f"job {result.job_id} {result.status}: {result.error}",
              file=sys.stderr)
        return 1
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(result.output or "")
    else:
        sys.stdout.write(result.output or "")
    if result.stats is not None:
        if args.stats:
            _print_stats(result.stats)
            print(f"# plan cache: {result.plan_cache}, "
                  f"waited {result.wait_seconds:.3f}s, "
                  f"ran {result.run_seconds:.3f}s", file=sys.stderr)
        if args.stats_json:
            _emit_stats_json(result.stats, args.stats_json)
    return 0


def cmd_status(args) -> int:
    from .service.client import ServiceClient, ServiceUnavailable

    try:
        status = ServiceClient(args.server, timeout=args.timeout).status()
    except ServiceUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(status, indent=1))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="repro", description=__doc__)
    ap.add_argument("--max-size", type=int, default=7,
                    help="max combiner AST size (default 7)")
    ap.add_argument("--seed", type=int, default=0, help="synthesis RNG seed")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("synthesize", help="synthesize one command's combiner")
    sp.add_argument("command")
    sp.add_argument("--store", help="JSON combiner store to read/update")
    sp.set_defaults(func=cmd_synthesize)

    for name, func in (("explain", cmd_explain), ("run", cmd_run)):
        p = sub.add_parser(name)
        p.add_argument("pipeline")
        p.add_argument("-k", type=int, default=4, help="parallelism degree")
        p.add_argument("--file", action="append",
                       help="load a real file into the virtual fs (repeatable)")
        p.add_argument("--env", action="append", metavar="NAME=VALUE")
        p.add_argument("--engine", default="serial",
                       choices=("serial", "threads", "processes"))
        p.add_argument("--optimize", dest="optimize", action="store_true",
                       default=True,
                       help="enable the pipeline optimizer: rewrite-engine "
                            "plan selection + combiner elimination (default)")
        p.add_argument("--no-optimize", dest="optimize",
                       action="store_false",
                       help="run the pipeline exactly as written")
        p.add_argument("--barrier", action="store_true",
                       help="use the barrier data plane (full stream "
                            "materialization between stages) instead of "
                            "the chunk-pipelined streaming plane")
        p.add_argument("--scheduler", default="auto",
                       choices=("auto", "static", "stealing"),
                       help="chunk scheduler for parallel stages: fixed "
                            "k-way split, a finer split balanced by the "
                            "worker pool's queue, or cost-model choice "
                            "(default)")
        p.add_argument("--speculate", action="store_true",
                       help="re-execute straggler chunk tasks "
                            "speculatively; first result wins")
        p.add_argument("--store",
                       help="JSON combiner store to read/update, skipping "
                            "re-synthesis of known commands")
        if name == "run":
            p.add_argument("--output", help="write output here, not stdout")
            p.add_argument("--stats", action="store_true",
                           help="print per-stage timings to stderr")
            p.add_argument("--stats-json", metavar="PATH",
                           help="write RunStats as JSON to PATH "
                                "('-' for stderr)")
        p.set_defaults(func=func)

    sv = sub.add_parser("serve", help="run the parallelization daemon")
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=7070,
                    help="listen port (0 picks an ephemeral one)")
    sv.add_argument("--concurrency", type=int, default=2,
                    help="jobs executing at once")
    sv.add_argument("--max-queued", type=int, default=256,
                    help="admission bound on queued jobs")
    sv.add_argument("--per-client-queue", type=int, default=None,
                    help="default per-tenant admission bound "
                         "(unbounded if omitted)")
    sv.add_argument("--quota", action="append", metavar="TENANT=N",
                    help="per-tenant admission quota overriding "
                         "--per-client-queue (repeatable); over-quota "
                         "submissions get HTTP 429")
    sv.add_argument("--plan-cache-size", type=int, default=128,
                    help="compiled plans kept before LRU eviction")
    sv.add_argument("--plan-cache", metavar="PATH",
                    help="plan-cache snapshot surviving restarts: "
                         "previously compiled pipelines come back as "
                         "warm hits (no re-synthesis)")
    sv.add_argument("--store",
                    help="persistent combiner store for warm starts")
    sv.add_argument("--max-request-mb", type=int, default=64,
                    help="largest request (pipeline + files) accepted")
    sv.add_argument("--nodes", type=int, default=0,
                    help="fork N local executor processes joined to this "
                         "daemon (a one-command cluster; jobs submitted "
                         "with --distribute run on them)")
    sv.add_argument("--node-capacity", type=int, default=2,
                    help="concurrent chunk tasks per --nodes executor")
    sv.add_argument("--heartbeat-timeout", type=float, default=5.0,
                    help="seconds of executor silence before eviction "
                         "and chunk-task reassignment")
    sv.set_defaults(func=cmd_serve)

    ex = sub.add_parser("executor",
                        help="join a controller as an executor node")
    ex.add_argument("--join", required=True, metavar="URL",
                    help="controller address, e.g. http://127.0.0.1:7070")
    ex.add_argument("--capacity", type=int, default=2,
                    help="concurrent chunk tasks pulled per round")
    ex.add_argument("--node-id", default=None,
                    help="rejoin under a fixed node id (default: assigned)")
    ex.add_argument("--poll-wait", type=float, default=0.2,
                    help="seconds each pull blocks waiting for work")
    ex.add_argument("--timeout", type=float, default=30.0,
                    help="controller HTTP timeout")
    ex.add_argument("--die-after", type=int, default=None, metavar="N",
                    help="fault drill: crash after completing N tasks")
    ex.set_defaults(func=cmd_executor)

    nd = sub.add_parser("nodes",
                        help="list a controller's executor nodes")
    nd.add_argument("--server", default=_default_server())
    nd.add_argument("--timeout", type=float, default=10.0)
    nd.add_argument("--json", action="store_true",
                    help="raw JSON instead of the table")
    nd.set_defaults(func=cmd_nodes)

    bn = sub.add_parser("bench",
                        help="run the perf-trajectory benchmark suite, "
                             "writing BENCH_<runid>.json")
    bn.add_argument("--smoke", action="store_true",
                    help="small presets: the whole suite in under two "
                         "minutes")
    bn.add_argument("--out", default=".", metavar="DIR",
                    help="directory for BENCH_<runid>.json (default .)")
    bn.add_argument("--runid", help="override the timestamp+sha run id")
    bn.add_argument("--stages", metavar="A,B,...",
                    help="comma-separated stage subset (default: all)")
    bn.add_argument("-k", type=int, default=4, help="parallelism degree")
    bn.add_argument("--clients", type=int, default=4,
                    help="concurrent loadgen tenants in the soak stage")
    bn.add_argument("--concurrency", type=int, default=4,
                    help="daemon worker slots in the soak stage")
    bn.add_argument("--scale", type=int, default=None,
                    help="table-stage input scale override")
    bn.add_argument("--fuzz-iterations", type=int, default=None,
                    help="fixed-seed fuzz corpus size override")
    bn.set_defaults(func=cmd_bench)

    sb = sub.add_parser("submit", help="submit one job to a running daemon")
    sb.add_argument("pipeline")
    sb.add_argument("--server", default=_default_server(),
                    help="daemon address (default $REPRO_SERVER or "
                         "http://127.0.0.1:7070)")
    sb.add_argument("--client-id", default=os.environ.get("USER", "cli"),
                    help="fair-share scheduling identity")
    sb.add_argument("-k", type=int, default=4, help="parallelism degree")
    sb.add_argument("--file", action="append",
                    help="load a real file into the job's virtual fs")
    sb.add_argument("--env", action="append", metavar="NAME=VALUE")
    sb.add_argument("--engine", default="serial",
                    choices=("serial", "threads", "processes"))
    sb.add_argument("--optimize", dest="optimize", action="store_true",
                    default=True)
    sb.add_argument("--no-optimize", dest="optimize", action="store_false")
    sb.add_argument("--barrier", action="store_true")
    sb.add_argument("--scheduler", default="auto",
                    choices=("auto", "static", "stealing"))
    sb.add_argument("--speculate", action="store_true")
    sb.add_argument("--distribute", action="store_true",
                    help="run chunk tasks on the daemon's executor nodes "
                         "(falls back to local when none are live)")
    sb.add_argument("--timeout", type=float, default=120.0,
                    help="seconds to wait for the result")
    sb.add_argument("--no-wait", action="store_true",
                    help="print the job id instead of waiting")
    sb.add_argument("--output", help="write output here, not stdout")
    sb.add_argument("--stats", action="store_true",
                    help="print per-stage timings to stderr")
    sb.add_argument("--stats-json", metavar="PATH",
                    help="write RunStats as JSON to PATH ('-' for stderr)")
    sb.set_defaults(func=cmd_submit)

    st = sub.add_parser("status", help="print a running daemon's counters")
    st.add_argument("--server", default=_default_server())
    st.add_argument("--timeout", type=float, default=10.0)
    st.set_defaults(func=cmd_status)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
