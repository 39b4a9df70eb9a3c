"""Command-line interface: drive the reproduction without writing code.

Subcommands::

    python -m repro train           # train & cache the victim LeNet-5
    python -m repro summary         # victim model + accelerator schedule
    python -m repro profile         # side-channel layer profiling
    python -m repro attack          # plan & execute one strike campaign
    python -m repro characterize    # the Fig 6(b) DSP fault sweep
    python -m repro scan            # DRC + bitstream scan of attack RTL
    python -m repro report          # regenerate headline results -> markdown
    python -m repro campaign        # the Fig 5(b) study -> JSON (--broker
                                    # serves its cells to `repro work`)
    python -m repro defend          # detection study + arms race -> JSON
    python -m repro work            # attach a worker to a running broker
    python -m repro cache gc        # prune a cell cache to a size bound
    python -m repro lint            # AST contract linter (--strict in CI)
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from .analysis import bar_chart, fixed_table, markdown_table
from .errors import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DeepStrike (DAC 2021) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train & cache the victim model")
    train.add_argument("--force", action="store_true",
                       help="retrain even if cached")

    sub.add_parser("summary", help="print victim and schedule summaries")

    profile = sub.add_parser("profile", help="profile the victim's layers "
                                             "through the TDC side channel")
    profile.add_argument("--traces", type=int, default=3)
    profile.add_argument("--background", action="store_true",
                         help="add a bursty third tenant during profiling")

    attack = sub.add_parser("attack", help="plan and execute a strike "
                                           "campaign")
    attack.add_argument("--layer", default="conv2",
                        help="target layer (or 'blind' for the baseline)")
    attack.add_argument("--strikes", type=int, default=4500)
    attack.add_argument("--cells", type=int, default=5000,
                        help="striker bank size")
    attack.add_argument("--images", type=int, default=200,
                        help="evaluation subset size")
    attack.add_argument("--seed", type=int, default=1)

    charac = sub.add_parser("characterize",
                            help="DSP fault rates vs striker cells (Fig 6b)")
    charac.add_argument("--cells", type=int, nargs="+",
                        default=[4000, 8000, 12000, 16000, 20000, 24000])
    charac.add_argument("--trials", type=int, default=10_000)

    sub.add_parser("scan", help="DRC + bitstream scan of the attack circuits")

    report = sub.add_parser("report", help="regenerate headline results")
    report.add_argument("-o", "--output", default=None,
                        help="write markdown to this file (default stdout)")
    report.add_argument("--images", type=int, default=120)

    campaign = sub.add_parser("campaign",
                              help="run the full Fig 5(b) study and "
                                   "persist it as JSON")
    campaign.add_argument("-o", "--output", default="campaign.json")
    campaign.add_argument("--images", type=int, default=120)
    campaign.add_argument("--seed", type=int, default=1)
    campaign.add_argument("--show", default=None, metavar="JSON",
                          help="instead of running, print a saved campaign")
    campaign.add_argument("--checkpoint", default=None, metavar="JSON",
                          help="write an atomic checkpoint here after "
                               "every campaign cell")
    campaign.add_argument("--resume", default=None, metavar="JSON",
                          help="resume from this checkpoint, skipping "
                               "already-completed cells (also where new "
                               "checkpoints go unless --checkpoint is set)")
    campaign.add_argument("--chaos", default=None, metavar="PRESET",
                          help="run under a chaos-injection preset "
                               "(repro.chaos.CHAOS_PRESETS)")
    campaign.add_argument("--workers", type=int, default=1, metavar="N",
                          help="shard campaign cells across N local "
                               "worker processes (at most 32) on a private "
                               "loopback broker (byte-identical to the "
                               "serial run; default 1)")
    campaign.add_argument("--dtype", default=None, choices=("fxp", "fp32"),
                          metavar="POLICY",
                          help="how fault sites and razor checks draw: "
                               "fxp is the dense byte-parity reference, "
                               "fp32 the sparse, tolerance-pinned fast "
                               "path (same forward and injector)")
    campaign.add_argument("--max-retries", type=int, default=None,
                          metavar="N",
                          help="re-dispatches allowed per cell after a "
                               "worker crash or lease expiry (--workers "
                               "and --broker; default from "
                               "SupervisorConfig)")
    campaign.add_argument("--cell-timeout", type=float, default=None,
                          metavar="SECONDS",
                          help="per-cell lease deadline (--workers and "
                               "--broker); a cell still running when it "
                               "lapses is cancelled and retried (default "
                               "from SupervisorConfig)")
    campaign.add_argument("--cache-dir", default=None, metavar="DIR",
                          help="content-addressed cell-result cache: cells "
                               "already computed for this exact recipe are "
                               "merged from here instead of re-run, new "
                               "ones are stored")
    campaign.add_argument("--sweep", action="append", default=None,
                          metavar="LAYER=N1,N2,...",
                          help="override the default study (repeatable; "
                               "disables the blind baseline)")
    campaign.add_argument("--broker", default=None, metavar="HOST:PORT",
                          help="serve this campaign as a fault-tolerant "
                               "broker bound here (port 0 picks a free "
                               "port); cells are leased to registered "
                               "workers ('repro work') and the merged "
                               "result stays byte-identical to a serial "
                               "run")
    campaign.add_argument("--local-workers", type=int, default=None,
                          metavar="N",
                          help="worker daemons the broker spawns on this "
                               "host, at most 32 (default from "
                               "ServiceConfig; remote workers can attach "
                               "either way)")

    work = sub.add_parser("work",
                          help="attach a worker daemon to a running "
                               "campaign broker")
    work.add_argument("--broker", required=True, metavar="HOST:PORT")
    work.add_argument("--id", default=None, metavar="NAME",
                      help="worker id (default host-pid-nonce)")

    cache = sub.add_parser("cache", help="cell-result cache maintenance")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_gc = cache_sub.add_parser(
        "gc", help="prune least-recently-used entries to a size bound")
    cache_gc.add_argument("--dir", required=True, metavar="DIR")
    cache_gc.add_argument("--max-bytes", type=int, default=None, metavar="N",
                          help="prune LRU entries until the cache is at "
                               "most this big (omit to just report size)")

    defend = sub.add_parser("defend",
                            help="droop-monitor detection study + the "
                                 "attack-vs-defense arms race")
    defend.add_argument("-o", "--output", default="defense.json",
                        help="write the JSON report here")
    defend.add_argument("--images", type=int, default=64,
                        help="evaluation subset size")
    defend.add_argument("--seed", type=int, default=1)
    defend.add_argument("--layer", default="conv2",
                        help="arms-race target layer")
    defend.add_argument("--cells", type=int, nargs="+",
                        default=[3000, 5500, 8000],
                        help="striker bank sizes to sweep")
    defend.add_argument("--strikes", type=int, default=4500,
                        help="strikes per inference")
    defend.add_argument("--detection-trials", type=int, default=3,
                        help="attacked traces per detection cell")
    defend.add_argument("--skip-detection", action="store_true",
                        help="run only the arms race")
    defend.add_argument("--tmr", action="store_true",
                        help="add a TMR-final-FC defense arm")
    defend.add_argument("--workers", type=int, default=1, metavar="N",
                        help="shard arms-race cells across N worker "
                             "processes (byte-identical to serial)")
    defend.add_argument("--checkpoint", default=None, metavar="JSON",
                        help="write a campaign-format checkpoint after "
                             "every arms-race cell")
    defend.add_argument("--resume", default=None, metavar="JSON",
                        help="resume the arms race from a campaign "
                             "checkpoint (completed cells are skipped)")
    defend.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="content-addressed cell cache shared with "
                             "campaign runs; warm cells are merged "
                             "without recomputation")
    defend.add_argument("--dtype", default=None, choices=("fxp", "fp32"),
                        help="how fault sites and razor checks draw "
                             "(fxp = dense byte-parity reference, fp32 = "
                             "sparse fast tier)")

    lint = sub.add_parser("lint",
                          help="AST contract linter: determinism, clock, "
                               "durability, exception, wire-protocol, and "
                               "numpy-only rules")
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files/directories to lint (default: the "
                           "installed repro package)")
    lint.add_argument("--strict", action="store_true",
                      help="exit 1 on any finding")
    lint.add_argument("--rules", default=None, metavar="ID[,ID...]",
                      help="run only these rule ids")
    lint.add_argument("--format", dest="fmt", default="text",
                      choices=("text", "json"),
                      help="findings output format")
    return parser


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_train(args) -> int:
    from .zoo import get_pretrained

    victim = get_pretrained(force_retrain=args.force)
    print(victim.summary())
    return 0


def _cmd_summary(args) -> int:
    from .accel import AcceleratorEngine
    from .nn.model import LENET5_INPUT_SHAPE
    from .zoo import get_pretrained

    victim = get_pretrained()
    print(victim.summary())
    print()
    print(victim.model.summary(LENET5_INPUT_SHAPE))
    print()
    engine = AcceleratorEngine(victim.quantized)
    print(engine.schedule.summary())
    return 0


def _sensor_and_attack(seed: int, cells: int, config=None):
    from .accel import AcceleratorEngine
    from .core import DeepStrike
    from .sensors import GateDelayModel, TDCSensor
    from .sensors.calibration import theta_for_target
    from .zoo import get_pretrained

    victim = get_pretrained()
    engine = AcceleratorEngine(victim.quantized, config=config,
                               rng=np.random.default_rng(seed))
    attack = DeepStrike(engine, bank_cells=cells,
                        rng=np.random.default_rng(seed + 1))
    delay_model = GateDelayModel(engine.config.delay)
    theta = theta_for_target(engine.config.tdc, delay_model, voltage=0.9867)
    sensor = TDCSensor(engine.config.tdc, delay_model, theta,
                       rng=np.random.default_rng(seed + 2))
    return victim, engine, attack, sensor


def _cmd_profile(args) -> int:
    from .core import SideChannelProfiler
    from .fpga import BackgroundActivity

    _, _, attack, sensor = _sensor_and_attack(seed=11, cells=5000)
    background = BackgroundActivity() if args.background else None
    library = attack.profile_victim(sensor, nominal_readout=92,
                                    n_traces=args.traces,
                                    background=background)
    print(SideChannelProfiler.library_summary(library))
    return 0


def _cmd_attack(args) -> int:
    from .core import BlindAttack

    victim, engine, attack, _ = _sensor_and_attack(args.seed, args.cells)
    images = victim.dataset.test_images[:args.images]
    labels = victim.dataset.test_labels[:args.images]

    if args.layer == "blind":
        blind = BlindAttack(engine, bank_cells=args.cells,
                            rng=np.random.default_rng(args.seed + 3))
        plan = blind.plan_random(args.strikes)
        outcome = blind.execute(images, labels, plan)
    else:
        plan = attack.plan_for_layer(args.layer, args.strikes)
        outcome = attack.execute(images, labels, plan)

    print(fixed_table(
        ["target", "strikes", "landed", "volts", "clean", "attacked",
         "drop"],
        [[outcome.target_layer, outcome.n_strikes, outcome.strikes_landed,
          round(outcome.mean_strike_voltage, 4),
          round(outcome.clean_accuracy, 4),
          round(outcome.attacked_accuracy, 4),
          round(outcome.accuracy_drop, 4)]],
    ))
    return 0


def _cmd_characterize(args) -> int:
    from .dsp import FaultCharacterization

    harness = FaultCharacterization(seed=7)
    sweep = harness.sweep(args.cells, trials=args.trials)
    print(fixed_table(
        ["cells", "v_strike", "duplication", "random", "total"],
        [[r.n_cells, round(harness.strike_voltage(r.n_cells), 4),
          round(r.duplication_rate, 3), round(r.random_rate, 3),
          round(r.total_rate, 3)] for r in sweep],
    ))
    print()
    print(bar_chart([str(r.n_cells) for r in sweep],
                    [round(r.total_rate, 3) for r in sweep], width=40))
    return 0


def _cmd_scan(args) -> int:
    from .config import default_config
    from .defense import BitstreamScanner
    from .fpga import DesignRuleChecker
    from .fpga.netlist import Netlist
    from .sensors import build_tdc_netlist
    from .striker import build_ro_cell_netlist, build_striker_cell_netlist

    config = default_config()
    drc = DesignRuleChecker()
    scanner = BitstreamScanner()
    bank = Netlist("striker_bank")
    for k in range(64):
        build_striker_cell_netlist(k, netlist=bank)
    designs = [
        ("striker bank (64 cells)", bank),
        ("ring oscillator", build_ro_cell_netlist()),
        ("TDC sensor", build_tdc_netlist(config.tdc)),
    ]
    for name, netlist in designs:
        report = drc.check(netlist)
        scan = scanner.scan(netlist)
        print(f"== {name} ==")
        print(f"vendor DRC: {'PASS' if report.passed else 'FAIL'}")
        print(scan.summary())
        print()
    return 0


def _cmd_report(args) -> int:
    from .core import BlindAttack
    from .dsp import FaultCharacterization

    victim, engine, attack, sensor = _sensor_and_attack(seed=21, cells=5000)
    images = victim.dataset.test_images[:args.images]
    labels = victim.dataset.test_labels[:args.images]

    lines: List[str] = ["# DeepStrike reproduction report", ""]
    lines += ["## Clean operating point (E5)", "",
              markdown_table(["model", "accuracy"],
                             [["float32", victim.float_accuracy],
                              ["Q3.4", victim.quantized_accuracy],
                              ["paper", 0.9617]]), ""]

    harness = FaultCharacterization(seed=5)
    sweep = harness.sweep([8000, 16000, 24000], trials=4000)
    lines += ["## DSP fault rates (E4 / Fig 6b)", "",
              markdown_table(
                  ["cells", "duplication", "random", "total"],
                  [[r.n_cells, r.duplication_rate, r.random_rate,
                    r.total_rate] for r in sweep]), ""]

    rows = []
    for layer, strikes in (("conv2", 4500), ("conv1", 3000),
                           ("fc1", 4500), ("pool1", 140)):
        plan = attack.plan_for_layer(layer, strikes)
        outcome = attack.execute(images, labels, plan)
        rows.append([layer, strikes, outcome.attacked_accuracy,
                     outcome.accuracy_drop])
    blind = BlindAttack(engine, bank_cells=5000,
                        rng=np.random.default_rng(33))
    outcome = blind.execute(images, labels, blind.plan_random(4500))
    rows.append(["blind", 4500, outcome.attacked_accuracy,
                 outcome.accuracy_drop])
    lines += ["## Accuracy under attack (E3 / Fig 5b)", "",
              f"clean accuracy: {outcome.clean_accuracy:.4f}", "",
              markdown_table(["target", "strikes", "accuracy", "drop"],
                             rows), ""]

    text = "\n".join(lines)
    if args.output:
        from .core.campaign import _atomic_write_text

        _atomic_write_text(args.output, text + "\n")
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _parse_sweep_args(items: List[str], images: int, seed: int):
    """Turn repeated ``--sweep LAYER=N1,N2`` flags into a CampaignSpec
    (:class:`~repro.errors.ConfigError` for a malformed flag)."""
    from .core.campaign import CampaignSpec
    from .errors import ConfigError

    sweeps = []
    for item in items:
        layer, _, counts = item.partition("=")
        try:
            parsed = tuple(int(c) for c in counts.split(",")) if counts \
                else ()
        except ValueError:
            parsed = ()
        if not layer or not parsed:
            raise ConfigError(
                f"bad --sweep '{item}' (expected LAYER=N1,N2,...)"
            )
        sweeps.append((layer, parsed))
    return CampaignSpec(sweeps=tuple(sweeps), blind_counts=(),
                        eval_images=images, seed=seed)


def _cmd_campaign(args) -> int:
    from .core import load_campaign
    from .core.campaign import CampaignSpec, run_campaign, save_campaign
    from .core.evaluation import sweep_to_rows

    if args.show:
        result = load_campaign(args.show)
    else:
        import dataclasses

        config = None
        if args.dtype is not None:
            from .config import default_config

            config = dataclasses.replace(default_config(),
                                         dtype_policy=args.dtype)
        if args.sweep:
            spec = _parse_sweep_args(args.sweep, args.images, args.seed)
        elif args.resume:
            spec = None  # take the spec from the checkpoint
        else:
            spec = dataclasses.replace(CampaignSpec.fig5b_default(),
                                       eval_images=args.images,
                                       seed=args.seed)
        before_cell = None
        fault_hook = None
        shard_hook = None
        if args.chaos is not None:
            from .chaos import ChaosInjector, chaos_preset

            injector = ChaosInjector(chaos_preset(args.chaos,
                                                  seed=args.seed))
            before_cell = injector.campaign_cell_hook
            fault_hook = injector.cell_fault
            shard_hook = injector.shard_fault
        victim, _, attack, _ = _sensor_and_attack(args.seed, 5500,
                                                  config=config)
        from .config import ServiceConfig, SupervisorConfig

        service = None
        if args.broker is not None:
            from .core.service import parse_address

            host, port = parse_address(args.broker, allow_zero=True)
            overrides = {"host": host, "port": port}
            if args.local_workers is not None:
                overrides["local_workers"] = args.local_workers
            service = ServiceConfig(**overrides)
        supervisor = SupervisorConfig(**{k: v for k, v in (
            ("max_retries", args.max_retries),
            ("cell_timeout_s", args.cell_timeout),
        ) if v is not None})
        from .core.supervisor import SupervisorStats

        stats = SupervisorStats()
        result = run_campaign(attack, victim.dataset.test_images,
                              victim.dataset.test_labels, spec,
                              checkpoint_path=args.checkpoint or args.resume,
                              resume_from=args.resume,
                              before_cell=before_cell,
                              workers=args.workers,
                              cache=args.cache_dir,
                              supervisor=supervisor,
                              service=service,
                              fault_hook=fault_hook,
                              shard_hook=shard_hook,
                              stats=stats,
                              on_bound=lambda addr: print(
                                  f"broker bound at {addr[0]}:{addr[1]}",
                                  flush=True))
        save_campaign(result, args.output)
        print(f"campaign written to {args.output}")
        interesting = {k: v for k, v in stats.describe().items() if v}
        if interesting:
            label = "service" if service is not None else "supervisor"
            print(f"{label}: " + ", ".join(
                f"{k}={v}" for k, v in sorted(interesting.items())))
    print(f"clean accuracy: {result.clean_accuracy:.4f}")
    print(sweep_to_rows(result.sweeps))
    print(f"most sensitive target: {result.most_sensitive_target()}")
    if result.failures:
        print(f"{len(result.failures)} cell(s) failed:")
        for failure in result.failures:
            print(f"  {failure.target_layer} x{failure.n_strikes}: "
                  f"{failure.error_type}: {failure.message}")
    return 0


def _cmd_work(args) -> int:
    from .core.service import parse_address, run_worker

    report = run_worker(parse_address(args.broker), worker_id=args.id)
    print("worker done: " + ", ".join(
        f"{k}={v}" for k, v in report.describe().items()))
    return 0


def _cmd_cache(args) -> int:
    from pathlib import Path

    from .core.cellcache import CellCache

    cache = CellCache(Path(args.dir))
    report = cache.gc(args.max_bytes)
    line = (f"cache {args.dir}: {report.entries_kept} entries, "
            f"{report.bytes_kept} bytes")
    if args.max_bytes is not None:
        line += (f"; pruned {report.entries_pruned} entries "
                 f"({report.bytes_pruned} bytes)")
    print(line)
    return 0


def _cmd_defend(args) -> int:
    import dataclasses
    import json

    from .analysis.armsrace import arms_race_table
    from .config import default_config
    from .core.campaign import _atomic_write_text, run_campaign
    from .defense import (ArmsRaceStudy, DetectionStudy, DroopMonitor,
                          default_defenses, resolve_defense)

    config = None
    if args.dtype is not None:
        config = dataclasses.replace(default_config(),
                                     dtype_policy=args.dtype)
    victim, engine, attack, sensor = _sensor_and_attack(
        args.seed, max(args.cells), config=config)
    images = victim.dataset.test_images[:args.images]
    labels = victim.dataset.test_labels[:args.images]

    detection_rows = []
    if not args.skip_detection:
        study = DetectionStudy(engine, sensor, seed=args.seed)
        n_strikes = min(args.strikes, study.target.cycles)
        results = study.sweep(DroopMonitor(),
                              [(c, n_strikes) for c in args.cells],
                              trials=args.detection_trials)
        print("== droop-monitor detection ==")
        print(fixed_table(
            ["cells", "strikes", "detect", "latency_us", "false_alarms"],
            [[r.bank_cells, r.n_strikes, r.detection_rate,
              ("-" if r.mean_latency_s is None
               else round(r.mean_latency_s * 1e6, 3)),
              r.false_alarm_rate] for r in results],
        ))
        print()
        detection_rows = [dataclasses.asdict(r) for r in results]

    defenses = list(default_defenses())
    if args.tmr:
        defenses.append(("tmr", resolve_defense("tmr")))
    race = ArmsRaceStudy(victim.quantized, images, labels,
                         config=attack.config, target_layer=args.layer,
                         seed=args.seed)
    # The grid runs as a campaign: every (bank, defense) column becomes
    # an arms:<layer>:<defense>@<bank> sweep, which buys the supervisor,
    # local workers, cell cache, and checkpoint/resume machinery for free.
    # Cells are seed-isolated, so the result is bit-identical to a
    # direct ArmsRaceStudy.sweep at every worker count.
    spec = race.campaign_spec([(c, args.strikes) for c in args.cells],
                              defenses)
    result = run_campaign(attack, images, labels, spec,
                          checkpoint_path=args.checkpoint or args.resume,
                          resume_from=args.resume,
                          workers=args.workers,
                          cache=args.cache_dir)
    if result.failures:
        print(f"{len(result.failures)} arms-race cell(s) failed:")
        for failure in result.failures:
            print(f"  {failure.target_layer} x{failure.n_strikes}: "
                  f"{failure.error_type}: {failure.message}")
        return 1
    # Campaign order is column-major; the report keeps the historical
    # intensity-major / defense-minor order, so its bytes are unchanged.
    by_key = {(c.bank_cells, c.defense): c
              for sweep in result.sweeps for c in sweep.outcomes}
    cells = [by_key[(bank, label)]
             for bank in args.cells for label, _recovery in defenses]
    print("== arms race ==")
    print(arms_race_table(cells))

    payload = {
        "format_version": 1,
        "seed": args.seed,
        "target_layer": args.layer,
        "n_images": int(images.shape[0]),
        "detection": detection_rows,
        "arms_race": [dataclasses.asdict(c) for c in cells],
    }
    _atomic_write_text(args.output, json.dumps(payload, indent=2) + "\n")
    print(f"defense report written to {args.output}")
    return 0


def _cmd_lint(args) -> int:
    import json
    from pathlib import Path

    from .lint import lint_paths, rules_by_id

    rule_ids = args.rules.split(",") if args.rules else None
    rules = rules_by_id(rule_ids)
    paths = args.paths or [Path(__file__).resolve().parent]
    report = lint_paths(paths, rules)

    if args.fmt == "json":
        print(json.dumps({
            "files_checked": report.files_checked,
            "rules_run": list(report.rules_run),
            "findings": [f.to_dict() for f in report.findings],
        }, indent=2))
    else:
        for finding in report.findings:
            print(finding.render())
        print(f"{len(report.findings)} finding(s), "
              f"{report.files_checked} files, "
              f"{len(report.rules_run)} rules")

    return 1 if args.strict and report.findings else 0


_COMMANDS = {
    "train": _cmd_train,
    "summary": _cmd_summary,
    "profile": _cmd_profile,
    "attack": _cmd_attack,
    "characterize": _cmd_characterize,
    "scan": _cmd_scan,
    "report": _cmd_report,
    "campaign": _cmd_campaign,
    "work": _cmd_work,
    "cache": _cmd_cache,
    "defend": _cmd_defend,
    "lint": _cmd_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code.

    0 is success; 1 means the command ran but cells failed (``defend``)
    or lint found violations under ``--strict``; 2 is a usage error
    (argparse) or a library error.  A :class:`~repro.errors.ReproError`
    reaches the user as one stderr line, ``repro: <ErrorType>:
    <message>``; any other exception (a bug, ``KeyboardInterrupt``)
    propagates with its traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        message = " ".join(str(exc).split())
        print(f"repro: {type(exc).__name__}: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
