"""Command-line interface: the artifact's push-button workflow.

Mirrors the paper artifact's README commands::

    python -m repro list                 # Table 2 inventory
    python -m repro table1               # regenerate Table 1
    python -m repro reproduce D2         # push-button bug reproduction
    python -m repro verify-fix D2        # run the same scenario on the fix
    python -m repro losscheck D2         # full LossCheck workflow
    python -m repro fsms D2              # FSM detection report
    python -m repro instrument D2        # emit the instrumented Verilog
    python -m repro profile D2           # span tree + metrics for one run
    python -m repro fuzz --cases 500     # differential fuzz campaign
    python -m repro faults --seed 1      # fault-injection campaign
    python -m repro check design.v       # recovering parse + lint + passes
    python -m repro wave D8 out.vcd      # dump a scenario's VCD waveform
    python -m repro wavediff C4          # golden-vs-buggy trace diff + OSDD
    python -m repro repair D1            # template repair search + ranking
    python -m repro serve                # debugging-as-a-service job server
    python -m repro submit check D2      # run a job on a serve instance

Global flags: ``--version`` prints the package version; ``--quiet``
suppresses stdout (the exit status still reports success/failure).

Exit codes are distinct per failure stage so scripts and CI can tell
them apart: 0 success, 1 command-specific failure (e.g. fuzz oracle
failures, or ``wavediff`` finding a divergence), 2 usage/unknown bug,
3 parse, 4 elaborate, 5 simulate, 6 tool pass, 130 interrupted.
``fuzz``, ``faults``, and ``profile`` flush their partial reports
before exiting on Ctrl-C.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_ELABORATE = 4
EXIT_SIMULATE = 5
EXIT_TOOL = 6
EXIT_INTERRUPT = 130

_STAGE_NAMES = {
    EXIT_PARSE: "parse",
    EXIT_ELABORATE: "elaborate",
    EXIT_SIMULATE: "simulate",
    EXIT_TOOL: "tool pass",
}


def classify_failure(exc):
    """Map a stack exception to the CLI's stage-specific exit code."""
    from .hdl.elaborate import ElaborationError
    from .hdl.lexer import LexerError
    from .hdl.parser import ParseError
    from .sim.simulator import SimulatorError
    from .sim.values import EvaluationError

    if isinstance(exc, (LexerError, ParseError)):
        return EXIT_PARSE
    if isinstance(exc, ElaborationError):
        return EXIT_ELABORATE
    if isinstance(exc, (SimulatorError, EvaluationError)):
        return EXIT_SIMULATE
    return EXIT_TOOL


def _cmd_list(args):
    from .testbed import BUG_IDS, SPECS

    print("%-4s %-28s %-22s %-8s %s" % ("ID", "Subclass", "Application",
                                         "Platform", "Symptoms"))
    for bug_id in BUG_IDS:
        spec = SPECS[bug_id]
        symptoms = ", ".join(sorted(s.value for s in spec.symptoms))
        print(
            "%-4s %-28s %-22s %-8s %s"
            % (bug_id, spec.subclass.value, spec.application,
               spec.platform.value, symptoms)
        )
    return 0


def _cmd_table1(args):
    from .study import format_table1

    print(format_table1())
    return 0


def _cmd_reproduce(args):
    from .testbed import SPECS, reproduce

    result = reproduce(args.bug_id)
    spec = SPECS[args.bug_id]
    print("%s reproduced." % args.bug_id)
    print("root cause: %s" % spec.root_cause)
    print(
        "observed symptoms: %s"
        % ", ".join(sorted(s.value for s in result.observation.symptoms))
    )
    for key, value in result.observation.details.items():
        print("  %s: %s" % (key, value))
    return 0


def _cmd_verify_fix(args):
    from .testbed import SPECS, verify_fix

    verify_fix(args.bug_id)
    print("%s fix verified clean (%s)." % (args.bug_id, SPECS[args.bug_id].fix))
    return 0


def _cmd_losscheck(args):
    from .testbed import SPECS, run_losscheck

    outcome = run_losscheck(args.bug_id)
    print("LossCheck on %s (source=%s, sink=%s):" % (
        args.bug_id,
        SPECS[args.bug_id].losscheck.source,
        SPECS[args.bug_id].losscheck.sink,
    ))
    for warning in outcome.result.warnings[:10]:
        print("  %s" % warning)
    if len(outcome.result.warnings) > 10:
        print("  ... %d more warnings" % (len(outcome.result.warnings) - 10))
    print("filtered (intentional drops): %s" % (sorted(outcome.result.filtered) or "-"))
    print("localized: %s" % (outcome.result.localized or "-"))
    print("matches the paper's outcome: %s" % outcome.matches_paper)
    return 0


def _cmd_fsms(args):
    from .analysis import detect_fsms
    from .testbed import SPECS, load_design

    spec = SPECS[args.bug_id]
    detected = detect_fsms(load_design(args.bug_id).top)
    print("manually identified: %s" % (", ".join(spec.manual_fsms) or "-"))
    print("detected:")
    for fsm in detected:
        print(
            "  %s: %d states, %d transition arcs"
            % (fsm.name, len(fsm.states), len(fsm.transitions))
        )
    missed = set(spec.manual_fsms) - {f.name for f in detected}
    if missed:
        print("missed (two-process FSMs): %s" % ", ".join(sorted(missed)))
    return 0


def _cmd_instrument(args):
    from .testbed.debug_configs import instrument_for_debugging
    from .hdl.codegen import generate_module

    instr = instrument_for_debugging(args.bug_id, buffer_depth=args.buffer)
    print(generate_module(instr.module))
    print(
        "// generated instrumentation: %d lines; recorder sample width: "
        "%d bits" % (instr.generated_lines, instr.recorder_width),
        file=sys.stderr,
    )
    return 0


def _cmd_profile(args):
    import os

    from . import obs
    from .testbed import reproduce
    from .testbed.debug_configs import instrument_for_debugging

    obs.reset()
    result = None
    interrupted = False
    with obs.observed():
        try:
            with obs.span("profile", bug=args.bug_id):
                result = reproduce(args.bug_id)
                instrument_for_debugging(args.bug_id, buffer_depth=args.buffer)
        except KeyboardInterrupt:
            # Still flush the partial span tree + metrics below.
            interrupted = True
        meta = {"bug": args.bug_id, "interrupted": interrupted}
        if result is not None:
            meta["reproduced"] = result.reproduced
            meta["symptoms"] = sorted(
                s.value for s in result.observation.symptoms
            )
        report = obs.build_report("profile:%s" % args.bug_id, meta=meta)
    print(obs.render_span_tree(report["spans"]))
    print()
    print(obs.render_metrics_table(report["metrics"]))
    output = args.output
    if output is None:
        os.makedirs("results", exist_ok=True)
        output = os.path.join("results", "profile_%s.json" % args.bug_id)
    obs.write_report(report, output)
    print("wrote %s" % output)
    return EXIT_INTERRUPT if interrupted else 0


def _cmd_fuzz(args):
    import os

    from . import obs
    from .fuzz import ORACLE_NAMES, CampaignConfig, run_campaign

    oracles = (
        tuple(args.oracle) if args.oracle else ORACLE_NAMES
    )
    config = CampaignConfig(
        cases=args.cases,
        seed=args.seed,
        jobs=args.jobs,
        cycles=args.cycles,
        oracles=oracles,
        time_budget=args.time_budget,
        output_dir=args.output_dir or os.path.join("results", "fuzz"),
    )

    def progress(result):
        if result.status not in ("ok", "invalid"):
            print(
                "case %d: %s%s %s"
                % (
                    result.index,
                    result.status,
                    " (%s)" % result.oracle if result.oracle else "",
                    result.detail[:100],
                )
            )

    obs.reset()
    with obs.observed():
        report = run_campaign(config, progress=progress)
        run_report = obs.build_report("fuzz", meta=report.to_meta())
    counts = report.counts
    print(
        "fuzz: %d cases in %.1fs — %d ok, %d invalid, %d oracle failures, "
        "%d crashes, %d timeouts (%d unique buckets)%s"
        % (
            len(report.results),
            report.elapsed,
            counts["ok"],
            counts["invalid"],
            counts["oracle_fail"],
            counts["crash"],
            counts["timeout"],
            len(report.buckets),
            " [interrupted]" if report.interrupted else "",
        )
    )
    for signature, path in report.reproducers.items():
        print("  reproducer %s -> %s" % (signature[:60], path))
    os.makedirs(config.output_dir, exist_ok=True)
    output = args.report or os.path.join(
        config.output_dir, "report_seed%d.json" % config.seed
    )
    obs.write_report(run_report, output)
    print("wrote %s" % output)
    if report.interrupted:
        return EXIT_INTERRUPT
    return EXIT_FAILURE if report.failures else EXIT_OK


def _cmd_faults(args):
    import os

    from . import obs
    from .faults import (
        FaultCampaignConfig,
        TOOL_NAMES,
        run_fault_campaign,
        write_detection_report,
    )
    from .testbed import BUG_IDS

    bugs = tuple(args.bug) if args.bug else tuple(BUG_IDS)
    for bug_id in bugs:
        if bug_id not in BUG_IDS:
            raise KeyError(bug_id)
    config = FaultCampaignConfig(
        bugs=bugs,
        faults_per_bug=args.faults_per_bug,
        seed=args.seed,
        events_per_fault=args.events_per_fault,
        kinds=tuple(args.kind) if args.kind else None,
        case_timeout=args.timeout,
        retries=args.retries,
        output_dir=args.output_dir or os.path.join("results", "faults"),
        journal_path=args.journal,
        resume=not args.fresh,
    )

    def progress(record):
        if record["status"] != "ok":
            print(
                "case %s: %s %s"
                % (
                    record["case"],
                    record["status"],
                    record.get("error", "")[:100],
                )
            )

    obs.reset()
    with obs.observed():
        report = run_fault_campaign(config, progress=progress)
        run_report = obs.build_report("faults", meta=report.to_meta())
    taxonomy = report.taxonomy_counts()
    print(
        "faults: %d cases in %.1fs — %d ok, %d timeout, %d injection, "
        "%d design, %d tool, %d crash%s%s"
        % (
            len(report.records),
            report.elapsed,
            taxonomy["ok"],
            taxonomy["timeout"],
            taxonomy["injection_error"],
            taxonomy["design_error"],
            taxonomy["tool_error"],
            taxonomy["crash"],
            " (%d resumed from journal)" % report.resumed
            if report.resumed
            else "",
            " [interrupted]" if report.interrupted else "",
        )
    )
    summary = report.tool_summary()
    for tool in TOOL_NAMES:
        counts = summary[tool]
        rate = counts["detection_rate"]
        print(
            "  %-10s detected %d of %d effectful faults (rate %s)"
            % (
                tool,
                counts["detected"],
                counts["effectful"],
                "n/a" if rate is None else "%.2f" % rate,
            )
        )
    loss_designs = report.losscheck_loss_designs()
    print(
        "losscheck caught injected data-loss faults on: %s"
        % (", ".join(loss_designs) or "-")
    )
    detection_path = args.report or os.path.join(
        config.output_dir, "detection_seed%d.json" % config.seed
    )
    write_detection_report(report, detection_path)
    print("wrote %s" % detection_path)
    obs_path = args.obs_report or os.path.join(
        config.output_dir, "report_seed%d.json" % config.seed
    )
    obs.write_report(run_report, obs_path)
    print("wrote %s" % obs_path)
    return EXIT_INTERRUPT if report.interrupted else EXIT_OK


def _cmd_check(args):
    """Recovering frontend + lint + flow checks over files or bug IDs.

    Exit codes follow the ``repro check`` contract (distinct from the
    run-one-bug commands): 0 no errors (warnings reported but not
    fatal), 1 any error finding — or any warning under ``--strict`` —
    3 unrecoverable parse (nothing survived recovery).
    """
    from . import obs
    from .diag import (
        build_check_report,
        check_targets,
        render_check_report,
        render_check_result,
    )

    select = tuple(code for arg in args.select or () for code in arg.split(","))
    ignore = tuple(code for arg in args.ignore or () for code in arg.split(","))
    obs.reset()
    with obs.observed():
        try:
            results = check_targets(
                args.targets,
                run_tools=not args.no_tools,
                run_flow=not args.no_flow,
                select=select,
                ignore=ignore,
                strict=args.strict,
            )
        except OSError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return EXIT_USAGE
    if args.json:
        rendered = render_check_report(build_check_report(results))
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(rendered)
            print("wrote %s" % args.output)
        else:
            sys.stdout.write(rendered)
    else:
        for result in results:
            sys.stdout.write(
                render_check_result(result, verbose=args.verbose)
            )
    return max(result.exit_code for result in results)


def _cmd_wave(args):
    from .sim import Simulator
    from .testbed import load_design
    from .testbed.scenarios import SCENARIOS
    from .wave import Trace

    sim = Simulator(load_design(args.bug_id, fixed=args.fixed), trace="all")
    SCENARIOS[args.bug_id](sim)
    trace = Trace.from_simulator(sim)
    if args.signals or args.last is not None:
        trace = trace.filter(signals=args.signals, last=args.last)
    trace.save_vcd(
        args.output,
        comment="testbed bug %s (%s)"
        % (args.bug_id, "fixed" if args.fixed else "buggy"),
    )
    print(
        "wrote %d-cycle waveform (%d signals) for %s to %s"
        % (trace.cycles, len(trace.signals), args.bug_id, args.output)
    )
    return 0


def _cmd_wavediff(args):
    import os

    from . import obs
    from .wave import (
        FaultSpecError,
        render_wave_report,
        render_wave_summary,
        wavediff_bug,
        write_wave_report,
    )

    if args.fixed and not args.fault:
        print(
            "error: --fixed without --fault is redundant — the default "
            "comparison is already fixed (golden) vs buggy (variant)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    obs.reset()
    with obs.observed():
        try:
            outcome = wavediff_bug(
                args.bug_id,
                fault=args.fault,
                fixed=args.fixed,
                signals=args.signals,
                last=args.last,
                max_offset=args.align,
            )
        except FaultSpecError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return EXIT_USAGE
        if args.obs_report:
            obs.write_report(
                obs.build_report(
                    "wavediff:%s" % args.bug_id,
                    meta={
                        "bug": args.bug_id,
                        "mode": outcome.report["mode"],
                        "osdd": outcome.report["osdd"],
                    },
                ),
                args.obs_report,
            )
    if args.json:
        rendered = render_wave_report(outcome.report)
        if args.output:
            write_wave_report(outcome.report, args.output)
            print("wrote %s" % args.output)
        else:
            sys.stdout.write(rendered)
    else:
        sys.stdout.write(render_wave_summary(outcome.report))
        if args.output:
            write_wave_report(outcome.report, args.output)
            print("wrote %s" % args.output)
    if args.vcd_out:
        os.makedirs(args.vcd_out, exist_ok=True)
        for role, trace in (
            ("golden", outcome.golden),
            ("variant", outcome.variant),
        ):
            path = os.path.join(
                args.vcd_out, "%s_%s.vcd" % (args.bug_id, role)
            )
            trace.save_vcd(
                path, comment="wavediff %s %s (%s)"
                % (args.bug_id, role, trace.label)
            )
            print("wrote %s" % path)
    return EXIT_FAILURE if outcome.diverged else EXIT_OK


def _cmd_repair(args):
    import os

    from . import obs
    from .repair import (
        RepairConfig,
        render_repair_report,
        render_repair_summary,
        run_repair,
        unified_patch,
        write_repair_report,
    )

    if args.budget <= 0:
        print("error: --budget must be positive", file=sys.stderr)
        return EXIT_USAGE
    from .repair import TEMPLATE_NAMES

    for name in args.template or ():
        if name not in TEMPLATE_NAMES:
            print(
                "error: unknown template %r (known: %s)"
                % (name, ", ".join(TEMPLATE_NAMES)),
                file=sys.stderr,
            )
            return EXIT_USAGE
    config = RepairConfig(
        bug_id=args.bug_id,
        budget=args.budget,
        watchdog=args.watchdog,
        journal_path=args.journal or "",
        fresh=args.fresh,
        templates=tuple(args.template or ()),
        use_faults=not args.no_faults,
        stop_after=args.stop_after,
    )
    obs.reset()
    with obs.observed():
        try:
            outcome = run_repair(config)
        except KeyError:
            raise
        except Exception as exc:
            print(
                "error (repair): %s: %s" % (type(exc).__name__, exc),
                file=sys.stderr,
            )
            return EXIT_TOOL
        if args.obs_report:
            obs.write_report(
                obs.build_report(
                    "repair:%s" % args.bug_id,
                    meta={
                        "bug": args.bug_id,
                        "repaired": outcome.repaired,
                    },
                ),
                args.obs_report,
            )
    report = outcome.report
    if args.json:
        if args.output:
            write_repair_report(report, args.output)
            print("wrote %s" % args.output)
        else:
            sys.stdout.write(render_repair_report(report))
    else:
        sys.stdout.write(render_repair_summary(report))
        if args.output:
            write_repair_report(report, args.output)
            print("wrote %s" % args.output)
    if args.emit_patch:
        os.makedirs(args.emit_patch, exist_ok=True)
        rank_by_id = {
            entry["candidate"]: entry["rank"]
            for entry in report["ranking"]
        }
        for candidate_id in sorted(
            outcome.patches, key=lambda c: rank_by_id.get(c, 10 ** 9)
        ):
            safe = candidate_id.replace(":", "_").replace("/", "_")
            path = os.path.join(
                args.emit_patch,
                "%s_rank%d_%s.patch"
                % (args.bug_id, rank_by_id.get(candidate_id, 0), safe),
            )
            with open(path, "w") as handle:
                handle.write(unified_patch(
                    args.bug_id, candidate_id,
                    outcome.patches[candidate_id],
                ))
            print("wrote %s" % path)
    return EXIT_OK if outcome.repaired else EXIT_FAILURE


def _cmd_serve(args):
    from .serve import ChaosConfig, ReproServer, ServeConfig

    if args.fabric_port is None and args.workers <= 0:
        print("error: --workers must be positive (or use --fabric-port "
              "and start workers with `repro worker --connect`)",
              file=sys.stderr)
        return EXIT_USAGE
    if args.resume and args.fresh:
        print("error: --resume and --fresh are mutually exclusive",
              file=sys.stderr)
        return EXIT_USAGE
    if args.fresh:
        import os

        if os.path.exists(args.journal):
            os.remove(args.journal)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        watchdog=args.watchdog,
        retries=args.retries,
        backoff=args.backoff,
        jitter=args.jitter,
        cache_dir=args.cache_dir,
        cache_mb=args.cache_mb,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        journal_path=args.journal,
        resume=args.resume,
        report_path=args.report,
        drain_timeout=args.drain_timeout,
        chaos=ChaosConfig(
            seed=args.chaos_seed,
            kill_prob=args.chaos_kill_prob,
            kill_delay=args.chaos_kill_delay,
            drop_prob=args.chaos_drop_prob,
            stall_prob=args.chaos_stall_prob,
            stall_duration=args.chaos_stall_duration,
            dup_prob=args.chaos_dup_prob,
            delay_prob=args.chaos_delay_prob,
        ),
        fabric_port=args.fabric_port,
        fabric_token=args.fabric_token,
        heartbeat_interval=args.heartbeat_interval,
        heartbeat_misses=args.heartbeat_misses,
        straggler_after=args.straggler_after,
    )
    return ReproServer(config).run()


def _cmd_worker(args):
    from .serve.worker import main_tcp

    host, sep, port = args.connect.rpartition(":")
    if not sep or not port.isdigit():
        print("error: --connect expects HOST:PORT, got %r" % args.connect,
              file=sys.stderr)
        return EXIT_USAGE
    return main_tcp(
        host or "127.0.0.1",
        int(port),
        token=args.token,
        worker_id=args.name,
        max_reconnects=args.max_reconnects,
        reconnect_delay=args.reconnect_delay,
    )


def _parse_submit_params(pairs):
    """``key=value`` pairs; values parse as JSON with string fallback."""
    import json

    params = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep:
            raise ValueError("--param expects key=value, got %r" % pair)
        try:
            params[key] = json.loads(value)
        except ValueError:
            params[key] = value
    return params


def _cmd_submit(args):
    import json

    from .serve import QuotaExceeded, ServeClient, ServeClientError
    from .serve.jobs import JOB_KINDS

    if args.kind not in JOB_KINDS:
        print(
            "error: unknown job kind %r (known: %s)"
            % (args.kind, ", ".join(JOB_KINDS)),
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        params = _parse_submit_params(args.param)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    if args.target:
        # One positional shorthand per kind: a bug id (or .v path for
        # `check`), instead of spelling out --param bug=....
        if args.kind == "check":
            params.setdefault("target", args.target)
        elif args.kind in ("profile", "wavediff", "repair"):
            params.setdefault("bug", args.target)
        elif args.kind == "faults":
            params.setdefault("bugs", [args.target])
    if args.source:
        with open(args.source, "r") as handle:
            params["source"] = handle.read()
        params.setdefault("filename", args.source)
    if args.shards is not None:
        params.setdefault("_shards", args.shards)
    client = ServeClient(
        args.url, client_id=args.client, max_retries=args.max_retries
    )
    try:
        if args.wait_ready:
            client.wait_ready(timeout=args.wait_ready)
        summary = client.submit(args.kind, params)
        if args.no_wait:
            detail = summary
        else:
            detail = (
                summary
                if summary["status"] in ("done", "failed", "quarantined")
                else client.wait(summary["id"], timeout=args.timeout)
            )
            if "result" not in detail:
                detail = client.job(summary["id"])
    except QuotaExceeded as exc:
        print(
            "error: quota exceeded; retry after %.1fs" % exc.retry_after,
            file=sys.stderr,
        )
        return EXIT_FAILURE
    except (ServeClientError, OSError, TimeoutError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_FAILURE
    rendered = json.dumps(detail, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendered)
        print("wrote %s" % args.output)
    if args.json and not args.output:
        sys.stdout.write(rendered)
    else:
        print(
            "job %s (%s): %s%s%s"
            % (
                detail["id"],
                detail["kind"],
                detail["status"],
                " [cached]" if detail.get("cached") else "",
                " — %s" % detail["error"] if detail.get("error") else "",
            )
        )
    if args.no_wait:
        return EXIT_OK
    return EXIT_OK if detail["status"] == "done" else EXIT_FAILURE


def build_parser():
    """The argparse command tree."""
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="ASPLOS'22 FPGA-debugging reproduction: testbed and tools",
    )
    parser.add_argument(
        "--version", action="version", version="repro %s" % __version__
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress stdout; rely on the exit status",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the 20 testbed bugs").set_defaults(
        func=_cmd_list
    )
    sub.add_parser("table1", help="regenerate Table 1").set_defaults(
        func=_cmd_table1
    )
    for name, func, help_text in [
        ("reproduce", _cmd_reproduce, "reproduce a bug push-button"),
        ("verify-fix", _cmd_verify_fix, "run the scenario on the fixed design"),
        ("losscheck", _cmd_losscheck, "run the LossCheck workflow on a loss bug"),
        ("fsms", _cmd_fsms, "FSM detection report for a bug's design"),
    ]:
        command = sub.add_parser(name, help=help_text)
        command.add_argument("bug_id", metavar="BUG", help="testbed id, e.g. D2")
        command.set_defaults(func=func)
    instrument = sub.add_parser(
        "instrument", help="emit the fully-instrumented Verilog for a bug"
    )
    instrument.add_argument("bug_id", metavar="BUG")
    instrument.add_argument(
        "--buffer", type=int, default=8192, help="recording buffer entries"
    )
    instrument.set_defaults(func=_cmd_instrument)
    profile = sub.add_parser(
        "profile",
        help="reproduce + instrument one bug with observability on; "
        "print the span tree and metrics, write a JSON run report",
    )
    profile.add_argument("bug_id", metavar="BUG")
    profile.add_argument(
        "--buffer", type=int, default=8192, help="recording buffer entries"
    )
    profile.add_argument(
        "-o",
        "--output",
        default=None,
        help="report path (default: results/profile_<BUG>.json)",
    )
    profile.set_defaults(func=_cmd_profile)
    fuzz = sub.add_parser(
        "fuzz",
        help="run a differential/metamorphic fuzz campaign over the stack",
    )
    fuzz.add_argument(
        "--seed", type=int, default=0, help="campaign seed (default 0)"
    )
    fuzz.add_argument(
        "--cases", type=int, default=200, help="number of cases (default 200)"
    )
    fuzz.add_argument(
        "--jobs", type=int, default=1, help="worker processes (default 1)"
    )
    fuzz.add_argument(
        "--cycles", type=int, default=48, help="simulated cycles per case"
    )
    fuzz.add_argument(
        "--time-budget",
        type=float,
        default=None,
        help="stop enqueueing cases after SECONDS of wall clock",
    )
    fuzz.add_argument(
        "--oracle",
        action="append",
        choices=[
            "roundtrip", "differential", "metamorphic", "lint", "flow",
            "absint",
        ],
        help="restrict to one oracle (repeatable; default: all six)",
    )
    fuzz.add_argument(
        "--output-dir",
        default=None,
        help="reproducer directory (default results/fuzz)",
    )
    fuzz.add_argument(
        "--report",
        default=None,
        help="run-report path (default <output-dir>/report_seed<SEED>.json)",
    )
    fuzz.set_defaults(func=_cmd_fuzz)
    faults = sub.add_parser(
        "faults",
        help="run a deterministic fault-injection campaign and score "
        "which debugging tools detect each fault",
    )
    faults.add_argument(
        "--seed", type=int, default=0, help="campaign seed (default 0)"
    )
    faults.add_argument(
        "--bug",
        action="append",
        metavar="BUG",
        help="restrict to one testbed bug (repeatable; default: all 20)",
    )
    faults.add_argument(
        "--faults-per-bug",
        type=int,
        default=8,
        help="fault schedules per bug (default 8)",
    )
    faults.add_argument(
        "--events-per-fault",
        type=int,
        default=1,
        help="events per schedule (default 1: single-fault model)",
    )
    faults.add_argument(
        "--kind",
        action="append",
        choices=[
            "seu_reg", "seu_mem", "stuck0", "stuck1", "glitch",
            "fifo_drop", "fifo_dup", "ram_seu", "rec_overflow",
        ],
        help="restrict sampling to one fault kind (repeatable)",
    )
    faults.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-case wall-clock watchdog in seconds (default 30)",
    )
    faults.add_argument(
        "--retries",
        type=int,
        default=2,
        help="retries (with backoff) per timed-out case (default 2)",
    )
    faults.add_argument(
        "--output-dir",
        default=None,
        help="journal/report directory (default results/faults)",
    )
    faults.add_argument(
        "--journal",
        default=None,
        help="journal path (default <output-dir>/journal_seed<SEED>.jsonl)",
    )
    faults.add_argument(
        "--fresh",
        action="store_true",
        help="ignore and discard an existing journal instead of resuming",
    )
    faults.add_argument(
        "--report",
        default=None,
        help="detection-report path "
        "(default <output-dir>/detection_seed<SEED>.json)",
    )
    faults.add_argument(
        "--obs-report",
        default=None,
        help="obs run-report path "
        "(default <output-dir>/report_seed<SEED>.json)",
    )
    faults.set_defaults(func=_cmd_faults)
    check = sub.add_parser(
        "check",
        help="recovering parse + lint + instrumentation passes over "
        "Verilog files or testbed bug IDs",
    )
    check.add_argument(
        "targets",
        metavar="TARGET",
        nargs="+",
        help="a .v file path or a testbed bug ID (e.g. D2)",
    )
    check.add_argument(
        "--json",
        action="store_true",
        help="emit the byte-deterministic repro.diag/v1 JSON report",
    )
    check.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the JSON report here instead of stdout",
    )
    check.add_argument(
        "--no-tools",
        action="store_true",
        help="skip the instrumentation passes (parse + lint only)",
    )
    check.add_argument(
        "--no-flow",
        action="store_true",
        help="skip the design-level flow checkers (L04xx + L05xx rules)",
    )
    check.add_argument(
        "--select",
        action="append",
        metavar="CODES",
        help="only report codes matching these comma-separated prefixes "
        "(e.g. --select L05 keeps just the value rules; repeatable)",
    )
    check.add_argument(
        "--ignore",
        action="append",
        metavar="CODES",
        help="drop codes matching these comma-separated prefixes "
        "(applied after --select; repeatable)",
    )
    check.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on warnings too (default: only errors fail the run)",
    )
    check.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="also print per-module elaboration/pass status",
    )
    check.set_defaults(func=_cmd_check)
    wave = sub.add_parser(
        "wave", help="run a bug's scenario and dump a VCD waveform"
    )
    wave.add_argument("bug_id", metavar="BUG")
    wave.add_argument("output", help="VCD output path")
    wave.add_argument(
        "--fixed", action="store_true", help="use the fixed design variant"
    )
    wave.add_argument(
        "--signals",
        action="append",
        metavar="GLOB",
        help="only dump signals matching this glob, e.g. 'fifo_*' "
        "(repeatable; default: every scalar signal)",
    )
    wave.add_argument(
        "--last",
        type=int,
        default=None,
        metavar="N",
        help="only dump the final N cycles (the window a debugger "
        "looks at first)",
    )
    wave.set_defaults(func=_cmd_wave)
    wavediff = sub.add_parser(
        "wavediff",
        help="diff a golden vs variant trace of one bug: per-signal "
        "first divergences plus the OSDD localization metric",
    )
    wavediff.add_argument("bug_id", metavar="BUG")
    wavediff.add_argument(
        "--fault",
        metavar="SPEC",
        default=None,
        help="inject a fault and diff faulted vs fault-free instead of "
        "buggy vs fixed; SPEC is "
        "KIND:TARGET@CYCLE[:bit=N][:index=N][:duration=N], '+'-joined "
        "for multiple events (e.g. seu_reg:count@12:bit=3)",
    )
    wavediff.add_argument(
        "--fixed",
        action="store_true",
        help="with --fault: inject on the fixed design instead of the "
        "buggy one",
    )
    wavediff.add_argument(
        "--json",
        action="store_true",
        help="emit the byte-deterministic repro.wave/v1 JSON report",
    )
    wavediff.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the repro.wave/v1 report here (with or without --json)",
    )
    wavediff.add_argument(
        "--vcd-out",
        metavar="DIR",
        default=None,
        help="also write <BUG>_golden.vcd and <BUG>_variant.vcd into DIR",
    )
    wavediff.add_argument(
        "--signals",
        action="append",
        metavar="GLOB",
        help="restrict the comparison to signals matching this glob "
        "(repeatable)",
    )
    wavediff.add_argument(
        "--last",
        type=int,
        default=None,
        metavar="N",
        help="restrict the comparison to the final N cycles",
    )
    wavediff.add_argument(
        "--align",
        type=int,
        default=0,
        metavar="MAX",
        help="search cycle offsets in [-MAX, MAX] to absorb "
        "pipeline-latency skew (default 0: lockstep)",
    )
    wavediff.add_argument(
        "--obs-report",
        default=None,
        help="also write a repro.obs/v1 run report (spans + wave.* gauges)",
    )
    wavediff.set_defaults(func=_cmd_wavediff)
    repair = sub.add_parser(
        "repair",
        help="search for a template patch that makes the bug's scenario "
        "pass, ranked by waveform closeness to the fixed design",
    )
    repair.add_argument("bug_id", metavar="BUG")
    repair.add_argument(
        "--budget",
        type=int,
        default=400,
        metavar="N",
        help="maximum candidates to validate (default 400)",
    )
    repair.add_argument(
        "--watchdog",
        type=float,
        default=10,
        metavar="SECONDS",
        help="wall-clock bound per candidate simulation (default 10)",
    )
    repair.add_argument(
        "--stop-after",
        type=int,
        default=5,
        metavar="N",
        help="stop once N scenario-passing candidates are found "
        "(0: exhaust the budget; default 5)",
    )
    repair.add_argument(
        "--template",
        action="append",
        metavar="NAME",
        help="restrict to this repair template (repeatable)",
    )
    repair.add_argument(
        "--no-faults",
        action="store_true",
        help="skip the fault-sensitivity localization pass (faster, "
        "coarser site ranking)",
    )
    repair.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help="crash-safe JSONL journal; an interrupted campaign resumes "
        "from it instead of re-simulating",
    )
    repair.add_argument(
        "--fresh",
        action="store_true",
        help="ignore (and overwrite) an existing journal",
    )
    repair.add_argument(
        "--json",
        action="store_true",
        help="emit the byte-deterministic repro.repair/v1 JSON report",
    )
    repair.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the repro.repair/v1 report here",
    )
    repair.add_argument(
        "--emit-patch",
        metavar="DIR",
        default=None,
        help="write unified diffs of the top-ranked passing candidates "
        "into DIR",
    )
    repair.add_argument(
        "--obs-report",
        default=None,
        help="also write a repro.obs/v1 run report (spans + repair.* "
        "gauges)",
    )
    repair.set_defaults(func=_cmd_repair)
    serve = sub.add_parser(
        "serve",
        help="run the fault-tolerant debugging-as-a-service job server "
        "(check/profile/wavediff/fuzz/faults/repair over JSON-HTTP)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8731,
        help="listen port (0 picks a free one; default 8731)",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="local worker processes (default 2)",
    )
    serve.add_argument(
        "--watchdog", type=float, default=120.0, metavar="SECONDS",
        help="per-attempt deadline before the worker is killed or "
        "its link cut (default 120)",
    )
    serve.add_argument(
        "--retries", type=int, default=2,
        help="requeues per job after a kill/crash (default 2)",
    )
    serve.add_argument(
        "--backoff", type=float, default=0.25, metavar="SECONDS",
        help="base retry backoff, doubled per attempt (default 0.25)",
    )
    serve.add_argument(
        "--jitter", type=float, default=0.1,
        help="retry jitter fraction (default 0.1)",
    )
    serve.add_argument(
        "--cache-dir", default="results/serve/cache",
        help="content-addressed artifact cache directory",
    )
    serve.add_argument(
        "--cache-mb", type=int, default=64,
        help="cache size bound in MiB before LRU eviction (default 64)",
    )
    serve.add_argument(
        "--quota-rate", type=float, default=20.0,
        help="per-client submissions/second (0 disables quotas; "
        "default 20)",
    )
    serve.add_argument(
        "--quota-burst", type=float, default=40.0,
        help="per-client burst bucket size (default 40)",
    )
    serve.add_argument(
        "--breaker-threshold", type=int, default=5,
        help="consecutive fatal failures before a job kind is "
        "quarantined (0 disables; default 5)",
    )
    serve.add_argument(
        "--breaker-cooldown", type=float, default=30.0, metavar="SECONDS",
        help="quarantine duration before a half-open probe (default 30)",
    )
    serve.add_argument(
        "--journal", default="results/serve/journal.jsonl",
        help="crash-safe job journal path",
    )
    serve.add_argument(
        "--resume", action="store_true",
        help="replay the journal: finished jobs keep their results, "
        "incomplete ones re-run",
    )
    serve.add_argument(
        "--fresh", action="store_true",
        help="discard an existing journal instead of resuming",
    )
    serve.add_argument(
        "--report", default=None,
        help="write the deterministic repro.serve/v1 final report here "
        "on graceful drain",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SECONDS",
        help="bound on waiting for in-flight jobs at SIGTERM "
        "(default 30)",
    )
    serve.add_argument(
        "--chaos-kill-prob", type=float, default=0.0,
        help="harness fault injection: probability each job attempt's "
        "local worker is SIGKILLed (default 0: off)",
    )
    serve.add_argument(
        "--chaos-kill-delay", type=float, default=0.05, metavar="SECONDS",
        help="upper bound on how far into an attempt a chaos kill lands",
    )
    serve.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed for deterministic chaos decisions",
    )
    serve.add_argument(
        "--chaos-drop-prob", type=float, default=0.0,
        help="chaos: probability a result frame is dropped and its "
        "link cut (default 0: off)",
    )
    serve.add_argument(
        "--chaos-stall-prob", type=float, default=0.0,
        help="chaos: probability a dispatch's heartbeats go "
        "unheard for --chaos-stall-duration seconds",
    )
    serve.add_argument(
        "--chaos-stall-duration", type=float, default=0.0,
        metavar="SECONDS",
        help="length of an injected heartbeat stall",
    )
    serve.add_argument(
        "--chaos-dup-prob", type=float, default=0.0,
        help="chaos: probability a result frame is applied twice",
    )
    serve.add_argument(
        "--chaos-delay-prob", type=float, default=0.0,
        help="chaos: probability a result frame is applied late",
    )
    serve.add_argument(
        "--fabric-port", type=int, default=None, metavar="PORT",
        help="listen for TCP workers on PORT (0 picks a free one) "
        "instead of starting local workers; start workers with "
        "`repro worker --connect HOST:PORT`",
    )
    serve.add_argument(
        "--fabric-token", default="",
        help="shared secret TCP workers must present at handshake",
    )
    serve.add_argument(
        "--heartbeat-interval", type=float, default=2.0, metavar="SECONDS",
        help="worker heartbeat period (default 2)",
    )
    serve.add_argument(
        "--heartbeat-misses", type=int, default=3,
        help="missed heartbeat intervals before a worker is "
        "declared suspect and its job requeued (default 3)",
    )
    serve.add_argument(
        "--straggler-after", type=float, default=0.0, metavar="SECONDS",
        help="re-dispatch a shard child still running this long after "
        "its first sibling finished (0 disables; the loser's stale "
        "result is fenced)",
    )
    serve.set_defaults(func=_cmd_serve)
    worker = sub.add_parser(
        "worker",
        help="run one TCP fabric worker process against a "
        "`repro serve --fabric-port` server",
    )
    worker.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="fabric address printed by the server at startup",
    )
    worker.add_argument(
        "--token", default="",
        help="shared secret matching the server's --fabric-token",
    )
    worker.add_argument(
        "--name", default=None,
        help="worker identity shown in server logs (default pid-based)",
    )
    worker.add_argument(
        "--max-reconnects", type=int, default=5,
        help="consecutive failed connection attempts before giving up "
        "(default 5)",
    )
    worker.add_argument(
        "--reconnect-delay", type=float, default=0.5, metavar="SECONDS",
        help="base delay between reconnect attempts (default 0.5)",
    )
    worker.set_defaults(func=_cmd_worker)
    submit = sub.add_parser(
        "submit",
        help="submit one job to a running `repro serve` instance and "
        "(by default) wait for its result",
    )
    submit.add_argument(
        "kind",
        help="job kind: check, profile, wavediff, fuzz, faults, repair",
    )
    submit.add_argument(
        "target", nargs="?", default=None,
        help="bug id (or .v path for `check`); optional for fuzz/faults",
    )
    submit.add_argument(
        "--url", default="http://127.0.0.1:8731",
        help="server base URL (default http://127.0.0.1:8731)",
    )
    submit.add_argument(
        "--client", default="anon",
        help="client identity for quota accounting (default anon)",
    )
    submit.add_argument(
        "--param", action="append", metavar="KEY=VALUE",
        help="job parameter; VALUE parses as JSON with string fallback "
        "(repeatable, e.g. --param cases=50)",
    )
    submit.add_argument(
        "--source", metavar="FILE", default=None,
        help="send FILE's text as the job's inline source (check jobs)",
    )
    submit.add_argument(
        "--no-wait", action="store_true",
        help="print the job id and return without waiting",
    )
    submit.add_argument(
        "--timeout", type=float, default=600.0,
        help="wait bound in seconds (default 600)",
    )
    submit.add_argument(
        "--wait-ready", type=float, default=0.0, metavar="SECONDS",
        help="poll /healthz up to SECONDS before submitting (for "
        "scripts that just booted the server)",
    )
    submit.add_argument(
        "--max-retries", type=int, default=3,
        help="reconnects with backoff when a status poll's connection "
        "resets (submissions never retry; default 3)",
    )
    submit.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="split a fuzz/faults/repair campaign across N workers "
        "(shorthand for --param _shards=N; the merged result is "
        "byte-identical to the unsharded run)",
    )
    submit.add_argument(
        "--json", action="store_true",
        help="print the full job detail (including the result payload) "
        "as JSON",
    )
    submit.add_argument(
        "-o", "--output", default=None,
        help="write the job detail JSON here",
    )
    submit.set_defaults(func=_cmd_submit)
    return parser


def main(argv=None):
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        if args.quiet:
            with contextlib.redirect_stdout(io.StringIO()):
                return args.func(args)
        return args.func(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPT
    except KeyError as exc:
        print("error: unknown bug id %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        code = classify_failure(exc)
        print(
            "error (%s): %s" % (_STAGE_NAMES[code], exc), file=sys.stderr
        )
        return code


if __name__ == "__main__":
    sys.exit(main())
