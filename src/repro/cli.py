"""Command-line interface: ``python -m repro <command>``.

Commands
--------
evolution
    Print the paper's generation table and the fitted fivefold law.
link PHY CHANNEL SNR
    Run a quick link simulation (e.g. ``link ofdm-54 rayleigh 28``).
    ``--precision 0.1`` switches to adaptive Monte-Carlo: packets are
    sent until the PER confidence interval is relatively tight enough
    (or ``--max-trials`` is hit). Every run prints the Wilson CI.
mac N_STATIONS
    DCF saturation throughput vs the Bianchi model.
regulatory
    The regulatory narrative with measured processing gains.
rates [STANDARD]
    Dump a generation's rate table (default 802.11a).
experiment [ID | --list]
    Run one quick paper experiment, or enumerate them all.
campaign run|resume|watch|ls|show|report
    Parallel sweep orchestrator over the persistent results store
    (``campaign run e3-dsss-cck --workers 4 --report``). ``run`` exits
    nonzero when points remain failed after the retry budget
    (``--retries``/``--timeout``); ``show --failures`` prints the
    per-point failure table. ``run --trace`` records structured
    telemetry (spans + counters) to ``results/<name>/trace/``.
    ``--workers N`` above 1 shards the grid into leased work units on N
    worker processes that survive worker death (``--backend`` is
    accepted for old scripts but selects nothing); ``--store sqlite`` (or
    ``REPRO_STORE=sqlite``) keeps records in an indexed WAL-journaled
    database instead of JSONL. ``campaign resume NAME`` picks a killed
    run back up from whatever its store already holds — the completed
    grid is bit-identical to an uninterrupted run. Store-backed runs
    keep ``results/<name>/status.json`` fresh while they execute;
    ``campaign watch NAME`` tails it with a refreshing progress view
    (``--once --json`` for scripting), ``--heartbeat`` tunes the
    cadence.
trace report NAME
    Render a traced campaign's telemetry: per-point timing breakdown,
    MC trial throughput, slowest spans, cache/retry counters.
surface build|ls|show|validate
    Precomputed PER surfaces for network-scale simulation
    (``surface build grid-a --phys ofdm-6,ofdm-54 --snr 0:30:2``).
    ``build`` runs one campaign cell per (phy, payload, SNR) — cached,
    resumable, parallel via ``--workers`` — and serializes the surface
    next to the campaign records; ``validate`` cross-checks it against
    fresh waveform runs. ``link --surrogate NAME`` answers a link query
    from a surface instead of the waveform simulator.

Installed as the ``repro`` console script, so ``repro campaign ls`` and
``python -m repro campaign ls`` are equivalent.
"""

from __future__ import annotations

import argparse
import sys

from repro import obs
from repro.errors import ReproError
from repro.standards.registry import GENERATIONS, get_standard


def _cmd_evolution(_args):
    from repro.core.evolution import fivefold_law, format_evolution_table

    print(format_evolution_table())
    ratio, _ = fivefold_law()
    print(f"\nfitted per-generation multiplier: {ratio:.2f}x (paper: ~5x)")
    return 0


def _cmd_link(args):
    if args.surrogate:
        from repro.campaign import make_store
        from repro.surrogate import AbstractLink, load_surface

        surface = load_surface(make_store(args.results), args.surrogate)
        sim = AbstractLink(surface, args.phy, rng=args.seed)
        if surface.channel != args.channel:
            print(f"note: surface {args.surrogate!r} was built over "
                  f"{surface.channel!r}; the channel argument "
                  f"{args.channel!r} is ignored")
    else:
        from repro.core.link import LinkSimulator

        sim = LinkSimulator(args.phy, args.channel, rng=args.seed)
    run_kwargs = dict(n_packets=args.packets, payload_bytes=args.bytes,
                      precision=args.precision,
                      max_trials=args.max_trials)
    if not args.surrogate:
        run_kwargs["analytic_floor"] = getattr(args, "analytic_floor",
                                               None)
    tracer = obs.Tracer() if args.trace else None
    if tracer is not None:
        with obs.use_tracer(tracer):
            result = sim.run(args.snr, **run_kwargs)
    else:
        result = sim.run(args.snr, **run_kwargs)
    mc = result.mc
    per_lo, per_hi = result.per_ci()
    budget = (f"adaptive to precision {args.precision:g}"
              if args.precision is not None
              else f"{args.packets} packets")
    backend = (f"surrogate surface {args.surrogate!r}" if args.surrogate
               else "waveform")
    print(f"{args.phy} over {sim.channel_name} @ {args.snr:.1f} dB "
          f"({budget}, {args.bytes} B payloads, {backend}):")
    if getattr(result, "analytic", False):
        print(f"  PER     : {result.per:.3e}  "
              f"(union bound, no packets sent)")
        print(f"  BER     : {result.ber:.2e}  (union bound)")
    else:
        print(f"  PER     : {result.per:.3f}  "
              f"[{per_lo:.3f}, {per_hi:.3f}] @ {mc.confidence:.0%}")
        print(f"  BER     : {result.ber:.2e}")
    print(f"  goodput : {result.goodput_mbps:.2f} Mbps "
          f"(PHY rate {result.rate_mbps:.1f})")
    print(f"  trials  : {mc.n_trials} ({mc.stop_reason})")
    if tracer is not None:
        print("\ntrace summary:")
        for line in obs.summary_table(tracer.summary()):
            print(f"  {line}")
    return 0


def _cmd_mac(args):
    from repro.mac.bianchi import bianchi_saturation_throughput
    from repro.mac.dcf import DcfSimulator

    sim = DcfSimulator(args.stations, "802.11a", 54, 1500, rng=args.seed)
    result = sim.run(args.duration)
    model = bianchi_saturation_throughput(args.stations, "802.11a", 54, 1500)
    print(f"{args.stations} saturated stations, 802.11a @ 54 Mbps, 1500 B:")
    print(f"  simulated goodput : {result.throughput_mbps:.1f} Mbps")
    print(f"  Bianchi model     : {model:.1f} Mbps")
    print(f"  P(collision)      : {result.collision_probability:.2f}")
    print(f"  Jain fairness     : {result.jain_fairness:.3f}")
    return 0


def _cmd_regulatory(_args):
    from repro.standards.regulatory import regulatory_report

    for row in regulatory_report():
        gain = row["processing_gain_db"]
        gain_s = f"{gain:5.1f} dB" if gain is not None else "   --   "
        print(f"{row['standard']:<18} {gain_s}  {row['mechanism']}")
        print(f"{'':<28}{row['status']}")
    return 0


def _cmd_experiment(args):
    from repro.core.experiments import list_experiments, run_experiment

    if args.list_ids or args.id is None:
        print("available quick experiments (full versions: pytest "
              "benchmarks/ --benchmark-only):")
        for key, desc in list_experiments():
            print(f"  {key:<4} {desc}")
        return 0
    for line in run_experiment(args.id):
        print(line)
    return 0


def _campaign_store(args, name=None, spec_default=None):
    """The results store this campaign subcommand should talk to.

    Resolution: ``--store`` flag > ``REPRO_STORE`` env > the spec's
    ``store`` knob > whichever backend already holds records for
    ``name`` > jsonl. The detection step is what makes
    ``campaign resume NAME`` land on the store the killed run was
    using, whatever the current default is.
    """
    from repro.campaign import make_store, resolve_store_backend

    backend = resolve_store_backend(
        root=args.results, name=name,
        explicit=getattr(args, "store", None), spec_default=spec_default)
    return make_store(args.results, backend)


def _print_run_result(args, spec, result):
    """Shared tail of ``campaign run``/``resume``: report + exit code."""
    from repro.campaign import failure_lines, format_pivot
    from repro.campaign.report import result_lines
    from repro.errors import ConfigurationError

    for line in result_lines(result):
        print(line)
    if getattr(args, "trace", False) and result.extras.get("trace_path"):
        print(f"trace: {result.extras['trace_path']} "
              f"(render with: repro trace report {spec.name})")
    if getattr(args, "report", False):
        report = spec.meta.get("report", {})
        if report.get("value") and report.get("rows"):
            try:
                for line in format_pivot(result.records,
                                         report["value"],
                                         report["rows"],
                                         report.get("cols")):
                    print(line)
            except ConfigurationError as exc:
                # e.g. every point failed: there is no table, but the
                # failure summary below is the useful report.
                print(f"no report: {exc}")
    for line in failure_lines(result.records):
        print(line)
    return 1 if result.n_failed else 0


def _cmd_campaign_watch(args):
    import json as json_module
    import time

    from repro.campaign import make_store
    from repro.errors import ConfigurationError
    from repro.obs import live

    store = make_store(args.results)
    path = store.status_path(args.name)

    def emit(status):
        if args.json:
            print(json_module.dumps(status, sort_keys=True,
                                    indent=2 if args.once else None))
        else:
            print("\n".join(live.status_lines(status)))

    if args.once:
        emit(live.refresh_ages(live.read_status(path)))
        return 0

    interval = max(0.1, float(args.interval))
    tty = sys.stdout.isatty()
    erase = 0
    try:
        while True:
            try:
                status = live.refresh_ages(live.read_status(path))
            except ConfigurationError:
                if tty and erase:
                    sys.stdout.write(f"\x1b[{erase}A\x1b[J")
                print(f"waiting for {path} ...")
                erase = 1 if tty else 0
                time.sleep(interval)
                continue
            if tty and erase:
                sys.stdout.write(f"\x1b[{erase}A\x1b[J")
            if args.json:
                emit(status)
                erase = 0
            else:
                lines = live.status_lines(status)
                print("\n".join(lines))
                erase = len(lines)
            if status.get("state") != "running":
                return 0 if status.get("state") == "done" else 1
            time.sleep(interval)
    except KeyboardInterrupt:
        print()
        return 130


def _cmd_campaign(args):
    from repro.campaign import (builtin_campaigns, failure_lines,
                                format_pivot, load_spec, resume_campaign,
                                run_campaign, scan_campaigns, summary_lines)

    if args.subcommand == "watch":
        return _cmd_campaign_watch(args)

    if args.subcommand == "run":
        spec = load_spec(args.spec)
        if args.precision is not None or args.max_trials is not None:
            # Fold the precision target into the spec's fixed params so
            # it participates in every point's cache key — adaptive and
            # fixed-budget runs of the same campaign never collide.
            from repro.campaign.spec import CampaignSpec

            data = spec.to_dict()
            if args.precision is not None:
                data["fixed"]["precision"] = args.precision
            if args.max_trials is not None:
                data["fixed"]["max_trials"] = args.max_trials
            spec = CampaignSpec.from_dict(data)
        store = _campaign_store(args, name=spec.name,
                                spec_default=spec.store)
        try:
            result = run_campaign(spec, workers=args.workers, store=store,
                                  force=args.force,
                                  echo=print if args.verbose else None,
                                  retries=args.retries,
                                  timeout_s=args.timeout,
                                  trace=args.trace, backend=args.backend,
                                  shard_size=args.shard_size,
                                  heartbeat_s=args.heartbeat)
        finally:
            store.close()
        return _print_run_result(args, spec, result)

    if args.subcommand == "resume":
        store = _campaign_store(args, name=args.name)
        try:
            result = resume_campaign(
                args.name, store, workers=args.workers,
                echo=print if args.verbose else None,
                retries=args.retries, timeout_s=args.timeout,
                trace=args.trace, backend=args.backend,
                shard_size=args.shard_size,
                heartbeat_s=args.heartbeat)
        finally:
            store.close()
        return _print_run_result(args, result.spec, result)

    if args.subcommand == "ls":
        campaigns = scan_campaigns(args.results)
        if not campaigns:
            print(f"no campaigns under {args.results!r}; built-ins you can "
                  "run: " + ", ".join(sorted(builtin_campaigns())))
            return 0
        for name, n_records, backend in campaigns:
            print(f"{name:<24} {n_records:>5} record(s)  [{backend}]")
        return 0

    if args.subcommand == "show":
        store = _campaign_store(args, name=args.name)
        try:
            spec = store.load_spec(args.name)
            print(f"{spec.name}: kind={spec.kind} "
                  f"base_seed={spec.base_seed} "
                  f"({spec.n_points} grid points)")
            for factor, values in spec.factors.items():
                print(f"  factor {factor}: {list(values)}")
            for key, value in spec.fixed.items():
                print(f"  fixed  {key}: {value}")
            # Each consumer streams its own cursor — records are never
            # materialized as a list, whatever the campaign size.
            for line in summary_lines(store.iter_records(args.name),
                                      name=spec.name):
                print(line)
            if args.failures:
                lines = failure_lines(store.iter_records(args.name))
                for line in lines or ["no failed points"]:
                    print(line)
        finally:
            store.close()
        return 0

    # report
    store = _campaign_store(args, name=args.name)
    try:
        spec = store.load_spec(args.name)
        defaults = spec.meta.get("report", {})
        value = args.value or defaults.get("value")
        rows = args.rows or defaults.get("rows")
        cols = args.cols if args.cols is not None else defaults.get("cols")
        if not value or not rows:
            print("this campaign declares no default report; pass --value "
                  "and --rows (optionally --cols)")
            return 2
        title = f"{spec.name}: {value}"
        for line in format_pivot(store.iter_records(args.name), value,
                                 rows, cols, title=title):
            print(line)
    finally:
        store.close()
    return 0


def _parse_value_list(text, name, cast):
    """Parse ``"a,b,c"`` or ``"lo:hi:step"`` grid specs from the CLI."""
    from repro.errors import ConfigurationError

    text = str(text).strip()
    try:
        if ":" in text:
            parts = [float(p) for p in text.split(":")]
            if len(parts) != 3 or parts[2] <= 0:
                raise ValueError
            lo, hi, step = parts
            import numpy as np

            n = int(np.floor((hi - lo) / step + 1e-9)) + 1
            if n < 1:
                raise ValueError
            return [cast(lo + k * step) for k in range(n)]
        return [cast(float(p)) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ConfigurationError(
            f"{name} must be 'v1,v2,...' or 'lo:hi:step', got {text!r}"
        ) from None


def _cmd_surface(args):
    from repro.campaign import make_store
    from repro.surrogate import (build_surface, list_surfaces, load_surface,
                                 validate_surface)

    store = make_store(args.results)

    if args.subcommand == "build":
        phys = [p.strip() for p in args.phys.split(",") if p.strip()]
        surface = build_surface(
            args.name, phys,
            snr_db=_parse_value_list(args.snr, "--snr", float),
            payload_bytes=_parse_value_list(args.payload, "--payload", int),
            channel=args.channel, n_packets=args.packets,
            precision=args.precision, max_trials=args.max_trials,
            base_seed=args.seed, store=store, workers=args.workers,
            trace=args.trace, echo=print if args.verbose else None,
            force=args.force)
        for line in surface.summary_lines():
            print(line)
        print(f"build: {surface.meta['n_executed']} executed, "
              f"{surface.meta['n_cached']} cached "
              f"in {surface.meta['build_wall_time_s']:.1f} s")
        print(f"saved under {store.campaign_dir(surface.name)}")
        return 0

    if args.subcommand == "ls":
        names = list_surfaces(store)
        if not names:
            print(f"no surfaces under {store.root!r}; build one with "
                  "'repro surface build <name> --phys ... --snr ...'")
            return 0
        for name in names:
            s = load_surface(store, name)
            print(f"{name:<24} {len(s.phys)} phy(s) x "
                  f"{s.payload_bytes.size} payload(s) x "
                  f"{s.snr_db.size} SNR(s)  [{s.channel}]")
        return 0

    if args.subcommand == "show":
        for line in load_surface(store, args.name).summary_lines():
            print(line)
        return 0

    # validate
    surface = load_surface(store, args.name)
    report = validate_surface(
        surface,
        phys=([p.strip() for p in args.phys.split(",") if p.strip()]
              if args.phys else None),
        snr_db=(_parse_value_list(args.snr, "--snr", float)
                if args.snr else None),
        payload_bytes=(_parse_value_list(args.payload, "--payload", int)
                       if args.payload else None),
        n_packets=args.packets, seed=args.seed)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _cmd_trace(args):
    from repro.campaign import make_store

    # Trace files live on the filesystem whatever holds the records, so
    # any backend's trace_path works; make_store keeps env resolution.
    store = make_store(args.results)
    path = store.trace_path(args.name)
    if path is None:
        # A missing trace is an expected state (the campaign simply ran
        # without --trace), not a usage error: say so plainly and exit 1
        # so scripts can branch on it.
        print(f"no trace recorded for campaign {args.name!r} under "
              f"{store.root!r}; run it with --trace first")
        return 1
    events = obs.read_trace(path)
    if not any(e.get("type") == "span" for e in events):
        print(f"no trace recorded for campaign {args.name!r}: "
              f"{path} holds no spans (empty or truncated trace)")
        return 1
    for line in obs.trace_report_lines(events, top=args.top,
                                       campaign=args.name):
        print(line)
    return 0


def _cmd_rates(args):
    std = get_standard(args.standard)
    print(f"{std.name} ({std.year}, {std.phy_type}, "
          f"{std.bandwidth_mhz:.0f} MHz):")
    for entry in sorted(std.rates, key=lambda r: (r.rate_mbps,
                                                  r.required_snr_db)):
        print(f"  {entry.rate_mbps:7.1f} Mbps  needs {entry.required_snr_db:5.1f} dB"
              f"  ({entry.modulation}, r={entry.code_rate})")
    return 0


def build_parser():
    """The argparse tree (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Wireless LAN: Past, Present, and Future — reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("evolution", help="the paper's generation table")

    p_link = sub.add_parser("link", help="run a link simulation")
    p_link.add_argument("phy", help="e.g. ofdm-54, cck-11, ht-12")
    p_link.add_argument("channel", nargs="?", default="awgn",
                        help="awgn | rayleigh | tgn-A..F")
    p_link.add_argument("snr", nargs="?", type=float, default=25.0)
    p_link.add_argument("--packets", type=int, default=50)
    p_link.add_argument("--bytes", type=int, default=200)
    p_link.add_argument("--seed", type=int, default=0)
    p_link.add_argument("--precision", type=float, default=None,
                        help="adaptive mode: stop when the relative CI "
                             "half-width on the PER drops below this")
    p_link.add_argument("--analytic-floor", type=float, default=None,
                        metavar="PER",
                        help="skip Monte-Carlo when the union-bound PER "
                             "is at or below this floor (OFDM on AWGN)")
    p_link.add_argument("--max-trials", type=int, default=None,
                        help="trial ceiling for adaptive mode")
    p_link.add_argument("--trace", action="store_true",
                        help="collect telemetry and print the span/"
                             "counter summary after the run")
    p_link.add_argument("--surrogate", default=None, metavar="SURFACE",
                        help="answer from a prebuilt PER surface instead "
                             "of the waveform simulator (see 'surface "
                             "build')")
    p_link.add_argument("--results", default="results",
                        help="results store the surface lives in "
                             "(default: results/)")

    p_mac = sub.add_parser("mac", help="DCF contention study")
    p_mac.add_argument("stations", type=int)
    p_mac.add_argument("--duration", type=float, default=0.5)
    p_mac.add_argument("--seed", type=int, default=0)

    sub.add_parser("regulatory", help="the regulatory narrative")

    p_exp = sub.add_parser("experiment",
                           help="run a quick paper experiment (E1..)")
    p_exp.add_argument("id", nargs="?", default=None,
                       help="experiment id, e.g. E6; omit to list")
    p_exp.add_argument("--list", action="store_true", dest="list_ids",
                       help="enumerate all experiment ids with descriptions")

    p_camp = sub.add_parser(
        "campaign", help="parallel sweep orchestrator + results store")
    camp_sub = p_camp.add_subparsers(dest="subcommand", required=True)

    def add_results_arg(p):
        p.add_argument("--results", default="results",
                       help="results store directory (default: results/)")

    def add_store_arg(p):
        from repro.campaign.spec import STORE_BACKENDS

        p.add_argument("--store", default=None, choices=STORE_BACKENDS,
                       help="results store backend (default: $REPRO_STORE, "
                            "else the spec's store knob, else whichever "
                            "backend already holds this campaign's "
                            "records, else jsonl)")

    def add_backend_args(p):
        from repro.campaign.spec import EXECUTION_BACKENDS

        p.add_argument("--backend", default=None,
                       choices=EXECUTION_BACKENDS,
                       help="legacy knob, accepted for old scripts and "
                            "specs but selects nothing: --workers 1 runs "
                            "inline, more runs the local queue")
        p.add_argument("--shard-size", type=int, default=None,
                       help="points per local-queue work unit "
                            "(default: ~4 units per worker)")

    def add_run_knobs(p):
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes (1 runs inline); any value "
                            "is bit-identical to 1")
        p.add_argument("--report", action="store_true",
                       help="print the spec's default pivot after running")
        p.add_argument("--verbose", action="store_true",
                       help="log per-point completions")
        p.add_argument("--retries", type=int, default=None,
                       help="extra attempts per failing point "
                            "(default: the spec's retries)")
        p.add_argument("--timeout", type=float, default=None,
                       help="per-point wall-clock budget in seconds; "
                            "0 disables (default: the spec's timeout_s)")
        p.add_argument("--trace", action="store_true",
                       help="record structured telemetry to "
                            "results/<name>/trace/ (read it back with "
                            "'repro trace report <name>')")
        p.add_argument("--heartbeat", type=float, default=None,
                       help="live-status cadence in seconds: how often "
                            "workers heartbeat and status.json refreshes "
                            "(default: $REPRO_HEARTBEAT_S, else 1.0)")
        add_backend_args(p)
        add_store_arg(p)
        add_results_arg(p)

    p_run = camp_sub.add_parser("run", help="run a campaign spec")
    p_run.add_argument("spec",
                       help="built-in campaign name or path to a .json spec")
    p_run.add_argument("--force", action="store_true",
                       help="recompute points even when cached")
    p_run.add_argument("--precision", type=float, default=None,
                       help="adaptive MC: per-point relative CI "
                            "half-width target (folded into the cache "
                            "key)")
    p_run.add_argument("--max-trials", type=int, default=None,
                       help="adaptive MC trial ceiling per point")
    add_run_knobs(p_run)

    p_resume = camp_sub.add_parser(
        "resume", help="pick up an interrupted campaign from its store")
    p_resume.add_argument("name",
                          help="campaign whose spec + partial records are "
                               "in the store")
    add_run_knobs(p_resume)

    p_watch = camp_sub.add_parser(
        "watch", help="tail a running campaign's live status")
    p_watch.add_argument("name", help="campaign being run with a store")
    p_watch.add_argument("--interval", type=float, default=2.0,
                         help="refresh period in seconds (default 2)")
    p_watch.add_argument("--once", action="store_true",
                         help="print one snapshot and exit (scripting)")
    p_watch.add_argument("--json", action="store_true",
                         help="emit the raw status.json document instead "
                              "of the rendered view")
    add_results_arg(p_watch)

    p_ls = camp_sub.add_parser("ls", help="list campaigns in the store")
    add_results_arg(p_ls)

    p_show = camp_sub.add_parser("show", help="spec + record summary")
    p_show.add_argument("name")
    p_show.add_argument("--failures", action="store_true",
                        help="also print the per-point failure table")
    add_store_arg(p_show)
    add_results_arg(p_show)

    p_rep = camp_sub.add_parser("report", help="pivot table over records")
    p_rep.add_argument("name")
    p_rep.add_argument("--value", default=None,
                       help="metric to tabulate (e.g. per)")
    p_rep.add_argument("--rows", default=None, help="row parameter")
    p_rep.add_argument("--cols", default=None, help="column parameter")
    add_store_arg(p_rep)
    add_results_arg(p_rep)

    p_surf = sub.add_parser(
        "surface", help="precomputed PER surfaces (network-scale links)")
    surf_sub = p_surf.add_subparsers(dest="subcommand", required=True)

    p_sbuild = surf_sub.add_parser(
        "build", help="measure a PER surface through the campaign runner")
    p_sbuild.add_argument("name", help="surface (= campaign) name")
    p_sbuild.add_argument("--phys", required=True,
                          help="comma-separated PHY names, e.g. "
                               "ofdm-6,ofdm-24,ofdm-54")
    p_sbuild.add_argument("--snr", required=True,
                          help="SNR grid: 'v1,v2,...' or 'lo:hi:step' dB")
    p_sbuild.add_argument("--payload", default="100",
                          help="payload grid in bytes: 'v1,v2,...' or "
                               "'lo:hi:step' (default 100)")
    p_sbuild.add_argument("--channel", default="awgn",
                          help="awgn | rayleigh | tgn-A..F")
    p_sbuild.add_argument("--packets", type=int, default=200,
                          help="packets per grid cell (default 200)")
    p_sbuild.add_argument("--precision", type=float, default=None,
                          help="adaptive MC: relative CI half-width "
                               "target per cell")
    p_sbuild.add_argument("--max-trials", type=int, default=None,
                          help="adaptive MC trial ceiling per cell")
    p_sbuild.add_argument("--seed", type=int, default=0)
    p_sbuild.add_argument("--workers", type=int, default=1,
                          help="campaign worker processes (1 runs "
                               "inline; bit-identical to 1)")
    p_sbuild.add_argument("--force", action="store_true",
                          help="remeasure cells even when cached")
    p_sbuild.add_argument("--trace", action="store_true",
                          help="record build telemetry to the store")
    p_sbuild.add_argument("--verbose", action="store_true",
                          help="log per-cell completions")
    add_results_arg(p_sbuild)

    p_sls = surf_sub.add_parser("ls", help="list surfaces in the store")
    add_results_arg(p_sls)

    p_sshow = surf_sub.add_parser("show", help="grid + provenance summary")
    p_sshow.add_argument("name")
    add_results_arg(p_sshow)

    p_sval = surf_sub.add_parser(
        "validate",
        help="cross-check a surface against fresh waveform runs")
    p_sval.add_argument("name")
    p_sval.add_argument("--phys", default=None,
                        help="subset of phys to check (comma-separated)")
    p_sval.add_argument("--snr", default=None,
                        help="subset of grid SNRs to check")
    p_sval.add_argument("--payload", default=None,
                        help="subset of grid payloads to check")
    p_sval.add_argument("--packets", type=int, default=200,
                        help="fresh packets per checked cell (default 200)")
    p_sval.add_argument("--seed", type=int, default=20050307,
                        help="seed for the fresh measurements")
    add_results_arg(p_sval)

    p_trace = sub.add_parser("trace",
                             help="inspect telemetry from traced runs")
    trace_sub = p_trace.add_subparsers(dest="subcommand", required=True)
    p_trep = trace_sub.add_parser(
        "report", help="timing breakdown from a campaign's merged trace")
    p_trep.add_argument("name", help="campaign name (ran with --trace)")
    p_trep.add_argument("--top", type=int, default=10,
                        help="how many slowest spans to list (default 10)")
    add_results_arg(p_trep)

    p_rates = sub.add_parser("rates", help="dump a rate table")
    p_rates.add_argument("standard", nargs="?", default="802.11a",
                         choices=sorted(GENERATIONS))
    return parser


_HANDLERS = {
    "evolution": _cmd_evolution,
    "link": _cmd_link,
    "mac": _cmd_mac,
    "regulatory": _cmd_regulatory,
    "experiment": _cmd_experiment,
    "campaign": _cmd_campaign,
    "surface": _cmd_surface,
    "trace": _cmd_trace,
    "rates": _cmd_rates,
}


def main(argv=None):
    """Entry point; returns a process exit code.

    Library errors (bad names, malformed specs, unreportable stores)
    become a one-line ``error:`` message and exit code 2 — users of the
    console script get diagnostics, not tracebacks.
    """
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
