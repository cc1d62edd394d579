"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``report [names...]``
    Regenerate paper tables/figures (default: all) and print the
    paper-vs-measured report.
``campaign [--trials N] [--mode fp32|fp32c] ...``
    Run the randomized datapath fault-injection campaign through the
    ABFT-guarded GEMM and print the outcome table. Exits nonzero if any
    injected fault caused silent data corruption that escaped the guard.
``gemm --m --n --k [--complex] [--kernel ...]``
    Model one GEMM on every (or one) Table IV kernel.
``synthesis``
    Print the Table III synthesis model.
``accuracy``
    Run the Section V-B exactness study.
``design-space``
    Tabulate the Section IV-C higher-bitwidth design points.
``peaks [--gpu a100|h100|mi100]``
    Print the device peak-throughput table (Table I).
``lint [paths...] [--fix] [--json] [--list-rules] [--graph OUT] [--sarif OUT]``
    Run the repo's static-analysis rule packs (precision-safety,
    determinism, fork-safety, resilience hygiene, exactness-flow,
    async-safety) over the given paths (default: ``src``). ``--graph``
    dumps the interprocedural call graph as JSON; ``--sarif`` writes
    SARIF 2.1.0 for CI annotations. Exits 0 when clean (warnings
    allowed), 1 on any error-severity finding, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="M3XU reproduction: models, experiments, reports.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="regenerate paper tables/figures")
    rep.add_argument("names", nargs="*", help="experiment names (default: all)")

    gemm = sub.add_parser("gemm", help="model one GEMM problem")
    gemm.add_argument("--m", type=int, required=True)
    gemm.add_argument("--n", type=int, required=True)
    gemm.add_argument("--k", type=int, required=True)
    gemm.add_argument("--complex", action="store_true", dest="is_complex")
    gemm.add_argument("--kernel", default=None, help="single kernel name")
    gemm.add_argument("--gpu", default="a100_emulation",
                      choices=["a100", "a100_emulation", "h100", "mi100"])

    sub.add_parser("synthesis", help="print the Table III model")
    sub.add_parser("accuracy", help="run the Section V-B study")
    sub.add_parser("design-space", help="Section IV-C design points")

    peaks = sub.add_parser("peaks", help="device peak throughput (Table I)")
    peaks.add_argument("--gpu", default="a100",
                       choices=["a100", "a100_emulation", "h100", "mi100"])

    camp = sub.add_parser("campaign",
                          help="randomized fault-injection campaign vs ABFT")
    camp.add_argument("--trials", type=int, default=200,
                      help="injected faults (default: 200)")
    camp.add_argument("--seed", type=int, default=2024)
    camp.add_argument("--mode", default="fp32", choices=["fp32", "fp32c"])
    camp.add_argument("--m", type=int, default=24)
    camp.add_argument("--n", type=int, default=20)
    camp.add_argument("--k", type=int, default=24)
    camp.add_argument("--tile", type=int, default=8,
                      help="ABFT checksum tile edge")
    camp.add_argument("--engine", default="m3xu", choices=["m3xu", "bitlevel"],
                      help="'bitlevel' runs the true split/multiply/shift/"
                           "accumulate datapath (REPRO_BITLEVEL selects "
                           "vector or scalar) and adds product-stage faults")

    srv = sub.add_parser("serve",
                         help="run the GEMM-as-a-service front end "
                              "(line-delimited JSON over TCP)")
    srv.add_argument("--host", default=None,
                     help="bind address (default: REPRO_SERVE_HOST or "
                          "127.0.0.1)")
    srv.add_argument("--port", type=int, default=None,
                     help="TCP port, 0 for OS-assigned (default: "
                          "REPRO_SERVE_PORT or 8135)")
    srv.add_argument("--max-queue", type=int, default=None, dest="max_queue",
                     help="admitted-but-unfinished request ceiling "
                          "(default: 64)")
    srv.add_argument("--rate", type=float, default=None,
                     help="token-bucket admission rate in req/s "
                          "(default: 0, which disables it)")
    srv.add_argument("--deadline-ms", type=float, default=None,
                     dest="deadline_ms",
                     help="default per-request deadline (default: 10000)")
    srv.add_argument("--degrade", default=None,
                     choices=["auto", "off", "0", "1", "2", "3"],
                     help="degradation policy (default: auto)")
    srv.add_argument("--workers", type=int, default=None,
                     help="pool fan-out width (default: REPRO_WORKERS)")
    srv.add_argument("--abft", action="store_true", default=None,
                     help="force the ABFT guard on served results "
                          "(default: REPRO_ABFT gate)")
    srv.add_argument("--fault-injection", action="store_true", default=None,
                     dest="fault_injection",
                     help="honour per-request fault directives (load "
                          "tests only)")
    srv.add_argument("--allow-shutdown", action="store_true", default=None,
                     dest="allow_shutdown",
                     help="honour the remote 'shutdown' op")
    srv.add_argument("--run-table", default=None, dest="run_table",
                     help="write the per-request run_table.csv here on exit")

    lg = sub.add_parser("loadgen",
                        help="drive a server with generated load + "
                             "injected faults; checks every OK result "
                             "against a float64 reference (SDC detector)")
    lg.add_argument("--host", default="127.0.0.1")
    lg.add_argument("--port", type=int, default=0,
                    help="target server port; 0 self-hosts a throwaway "
                         "in-process server with fault injection enabled")
    lg.add_argument("--duration", type=float, default=10.0,
                    help="seconds per load level")
    lg.add_argument("--mode", default="closed", choices=["closed", "open"],
                    help="closed: N workers, one request in flight each; "
                         "open: dispatch at --rate regardless of "
                         "completions")
    lg.add_argument("--concurrency", type=int, default=4)
    lg.add_argument("--rate", type=float, default=50.0,
                    help="open-loop dispatch rate (req/s)")
    lg.add_argument("--size", type=int, default=16,
                    help="square-GEMM dimension of generated requests")
    lg.add_argument("--deadline-ms", type=float, default=2000.0,
                    dest="deadline_ms")
    lg.add_argument("--fault-rate", type=float, default=0.0,
                    dest="fault_rate",
                    help="fraction of requests carrying an injected fault "
                         "(worker kill / stall / poisoned datapath)")
    lg.add_argument("--seed", type=int, default=0)
    lg.add_argument("--json", action="store_true", dest="as_json",
                    help="machine-readable report on stdout")

    lint = sub.add_parser("lint",
                          help="run the precision/determinism/fork-safety "
                               "static analysis")
    lint.add_argument("paths", nargs="*", default=None,
                      help="files or directories (default: src)")
    lint.add_argument("--fix", action="store_true",
                      help="apply safe autofixes, then re-lint")
    lint.add_argument("--json", action="store_true", dest="as_json",
                      help="machine-readable findings on stdout")
    lint.add_argument("--list-rules", action="store_true", dest="list_rules",
                      help="print every registered rule and exit")
    lint.add_argument("--graph", metavar="OUT.json", default=None,
                      dest="graph_out",
                      help="dump the project call graph (symbol table + "
                           "typed edges) to a JSON file")
    lint.add_argument("--sarif", metavar="OUT.sarif", default=None,
                      dest="sarif_out",
                      help="write findings as SARIF 2.1.0 for CI "
                           "annotation upload")
    return p


def _get_gpu(name: str):
    from . import gpusim

    return getattr(gpusim, name)()


def _cmd_report(args) -> int:
    from .eval import ALL_EXPERIMENTS, render_report, run_all

    unknown = [n for n in args.names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiments {unknown}; available: {sorted(ALL_EXPERIMENTS)}")
        return 2
    print(render_report(run_all(args.names or None)))
    return 0


def _cmd_gemm(args) -> int:
    from .kernels import ALL_KERNELS, CGEMM_KERNELS, SGEMM_KERNELS, GemmProblem

    gpu = _get_gpu(args.gpu)
    problem = GemmProblem(args.m, args.n, args.k, complex=args.is_complex)
    pool = CGEMM_KERNELS if args.is_complex else SGEMM_KERNELS
    if args.kernel:
        if args.kernel not in ALL_KERNELS:
            print(f"unknown kernel {args.kernel!r}; known: {sorted(ALL_KERNELS)}")
            return 2
        pool = {args.kernel: ALL_KERNELS[args.kernel]}
    print(f"GEMM {problem} on {gpu.name}:")
    base_time = None
    for name, kernel in pool.items():
        t = kernel.time(problem, gpu)
        if base_time is None:
            base_time = t
        print(
            f"  {name:26s} {t * 1e3:10.3f} ms  {kernel.tflops(problem, gpu):7.1f} TFLOPS"
            f"  ({base_time / t:5.2f}x)"
        )
    return 0


def _cmd_synthesis(_args) -> int:
    from .synthesis import PAPER_TABLE3, synthesis_table

    print(f"{'design':20s} {'area':>6s} {'cycle':>6s} {'power':>6s}   (paper)")
    for r in synthesis_table():
        ref = PAPER_TABLE3[r.design]
        print(
            f"{r.design:20s} {r.area:6.2f} {r.cycle:6.2f} {r.power:6.2f}   "
            f"({ref['area']:.2f}/{ref['cycle']:.2f}/{ref['power']:.2f})"
        )
    return 0


def _cmd_accuracy(_args) -> int:
    from .accuracy import cgemm_accuracy_study, sgemm_accuracy_study

    print("FP32 GEMM implementations vs float64 reference:")
    for r in sgemm_accuracy_study():
        print(f"  {r.name:12s} matching_bits={r.matching_bits:5.1f}  "
              f"max_rel={r.max_rel_error:.2e}")
    print("FP32C GEMM implementations vs complex128 reference:")
    for r in cgemm_accuracy_study():
        print(f"  {r.name:12s} matching_bits={r.matching_bits:5.1f}  "
              f"max_rel={r.max_rel_error:.2e}")
    return 0


def _cmd_design_space(_args) -> int:
    from .mxu import design_space

    print(f"{'point':12s} {'slices':>6s} {'steps':>6s} {'tput':>8s} {'bits':>6s}")
    for p in design_space():
        print(
            f"{p.name:12s} {p.n_slices:6d} {p.steps:6d} "
            f"{p.throughput_fraction:8.4f} {p.matching_bits:6.1f}"
        )
    return 0


def _cmd_peaks(args) -> int:
    gpu = _get_gpu(args.gpu)
    print(f"{gpu.name}: peak throughput")
    for path in ("fp32", "fp16", "bf16", "tf32_tc", "fp16_tc", "bf16_tc",
                 "m3xu_fp32", "m3xu_fp32c"):
        print(f"  {path:12s} {gpu.peak_tflops(path):8.1f} TFLOPS")
    return 0


def _cmd_campaign(args) -> int:
    from .resilience.campaign import (
        BITLEVEL_STAGES,
        CLASSIC_STAGES,
        CampaignConfig,
        run_campaign,
    )

    engine = getattr(args, "engine", "m3xu")
    config = CampaignConfig(
        trials=args.trials,
        seed=args.seed,
        mode=args.mode,
        m=args.m,
        n=args.n,
        k=args.k,
        tile=args.tile,
        engine=engine,
        stages=BITLEVEL_STAGES if engine == "bitlevel" else CLASSIC_STAGES,
    )
    result = run_campaign(config)
    print(result.render())
    if result.undetected_sdc:
        print(f"FAIL: {result.undetected_sdc} fault(s) escaped the ABFT guard",
              file=sys.stderr)
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .analysis import all_rules, apply_fixes, lint_paths, load_config

    if args.list_rules:
        for rule in all_rules():
            severity = rule.default_severity.value
            fix = " [fixable]" if rule.fixable else ""
            print(f"{rule.rule_id}  {rule.pack:20s} {severity:7s} "
                  f"{rule.summary}{fix}")
        return 0

    paths = [Path(p) for p in (args.paths or ["src"])]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"repro lint: no such path(s): {missing}", file=sys.stderr)
        return 2
    cfg = load_config(paths[0])
    report = lint_paths(list(paths), cfg)
    if args.fix:
        applied = apply_fixes(report)
        if applied:
            print(f"applied {applied} fix(es); re-linting", file=sys.stderr)
        report = lint_paths(list(paths), cfg)
    if args.graph_out:
        Path(args.graph_out).write_text(
            report.project.to_json(), encoding="utf-8"
        )
        print(f"repro lint: call graph written to {args.graph_out}",
              file=sys.stderr)
    if args.sarif_out:
        from .analysis import render_sarif

        Path(args.sarif_out).write_text(
            render_sarif(report), encoding="utf-8"
        )
        print(f"repro lint: SARIF written to {args.sarif_out}",
              file=sys.stderr)
    if args.as_json:
        print(json.dumps(
            {
                "findings": [f.to_dict() for f in report.findings],
                "files_checked": report.files_checked,
                "parse_errors": report.parse_errors,
                "exit_code": report.exit_code,
            },
            indent=2,
        ))
    else:
        print(report.render())
    return report.exit_code


def _cmd_serve(args) -> int:
    import asyncio

    from .serve import GemmServer, ServeConfig

    cfg = ServeConfig.from_env(
        host=args.host,
        port=args.port,
        max_queue=args.max_queue,
        rate=args.rate,
        deadline_ms=args.deadline_ms,
        degrade=args.degrade,
        workers=args.workers,
        abft=args.abft,
        fault_injection=args.fault_injection,
        allow_shutdown=args.allow_shutdown,
    )
    server = GemmServer(cfg)

    async def _run() -> int:
        await server.start()
        print(f"repro serve: listening on {cfg.host}:{server.port} "
              f"(degrade={cfg.degrade}, max_queue={cfg.max_queue}, "
              f"fault_injection={cfg.fault_injection})", flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.stop()
        return 0

    try:
        code = asyncio.run(_run())
    finally:
        # The CSV write is blocking file I/O: it runs after the event
        # loop has exited, never on it (AS601) — and in a finally so an
        # interrupt still flushes the table (the exit-130 contract keeps
        # run tables and journals intact).
        if args.run_table:
            rows = server.run_table.write_csv(args.run_table)
            print(f"repro serve: wrote {rows} rows to {args.run_table}")
    return code


def _cmd_loadgen(args) -> int:
    import json

    from .serve import LoadgenConfig, run_loadgen

    cfg = LoadgenConfig(
        host=args.host,
        port=args.port,
        duration_s=args.duration,
        mode=args.mode,
        concurrency=args.concurrency,
        rate=args.rate,
        size=args.size,
        deadline_ms=args.deadline_ms,
        fault_rate=args.fault_rate,
        seed=args.seed,
    )
    report = run_loadgen(cfg)
    if args.as_json:
        print(json.dumps(report, indent=2))
    else:
        print(f"loadgen: sent={report['sent']} outcomes={report['outcomes']} "
              f"reasons={report['reasons']}")
        print(f"loadgen: p50={report['p50_latency_ms']:.1f}ms "
              f"p95={report['p95_latency_ms']:.1f}ms "
              f"throughput={report['throughput_rps']:.1f}rps")
        print(f"loadgen: faults={report['faults_sent']} "
              f"sdc_count={report['sdc_count']}")
    # An undetected SDC is the one unacceptable outcome.
    return 1 if report["sdc_count"] else 0


_COMMANDS = {
    "report": _cmd_report,
    "gemm": _cmd_gemm,
    "synthesis": _cmd_synthesis,
    "accuracy": _cmd_accuracy,
    "design-space": _cmd_design_space,
    "peaks": _cmd_peaks,
    "campaign": _cmd_campaign,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "lint": _cmd_lint,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Dispatch one CLI invocation.

    Exit codes: ``0`` success; ``1`` execution failure (an experiment or
    campaign failed); ``2`` usage error (argparse or unknown names);
    ``130`` interrupted (SIGINT) — one line on stderr, no traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except KeyboardInterrupt:
        print("repro: interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:  # e.g. `repro report | head`
        return 0
    except Exception as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
