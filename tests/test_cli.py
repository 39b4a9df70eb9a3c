"""CLI tests (in-process, via main())."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_attack_defaults(self):
        args = build_parser().parse_args(["attack"])
        assert args.layer == "conv2"
        assert args.strikes == 4500
        assert args.cells == 5000

    def test_campaign_reliability_flags(self):
        args = build_parser().parse_args(
            ["campaign", "--resume", "ck.json", "--chaos", "noisy",
             "--sweep", "pool1=40,80", "--sweep", "conv1=500"])
        assert args.resume == "ck.json"
        assert args.chaos == "noisy"
        assert args.sweep == ["pool1=40,80", "conv1=500"]

    def test_campaign_unknown_chaos_preset_rejected(self, tmp_path, capsys,
                                                    monkeypatch):
        """The parser takes any --chaos name, so building it does not
        import repro.chaos; campaign refuses an unknown preset as a
        one-line ConfigError, exit 2, before the victim loads."""
        import repro.zoo

        def no_load(**_):
            raise AssertionError("victim loaded before --chaos resolved")

        monkeypatch.setattr(repro.zoo, "get_pretrained", no_load)
        assert main(["campaign", "--images", "8", "--sweep", "pool1=40",
                     "--chaos", "tornado",
                     "-o", str(tmp_path / "c.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ConfigError: ")
        assert "unknown chaos preset 'tornado'" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "c.json").exists()

    def test_defend_defaults(self):
        args = build_parser().parse_args(["defend"])
        assert args.output == "defense.json"
        assert args.layer == "conv2"
        assert args.cells == [3000, 5500, 8000]
        assert args.strikes == 4500
        assert not args.skip_detection and not args.tmr

    def test_defend_flags(self):
        args = build_parser().parse_args(
            ["defend", "--cells", "4000", "9000", "--skip-detection",
             "--tmr", "-o", "d.json"])
        assert args.cells == [4000, 9000]
        assert args.skip_detection and args.tmr
        assert args.output == "d.json"

    def test_backend_flag_gone(self):
        for command in ("campaign", "defend"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--backend", "numpy"])

    def test_serve_command_gone(self):
        """`repro serve` was `repro campaign --broker` under a second
        name; it is now a usage error."""
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--local-workers", "2"])
        assert exc.value.code == 2

    def test_bench_command_gone(self):
        """The best-of-N `bench` subcommand duplicated perfbench; it is
        now a usage error."""
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2

    def test_work_cache_dir_flag_gone(self):
        """Workers never touch the cell cache: `repro work --cache-dir`
        is a usage error."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["work", "--broker", "127.0.0.1:9",
                                       "--cache-dir", "cells"])
        assert exc.value.code == 2

    def test_bad_sweep_syntax_rejected(self):
        from repro.cli import _parse_sweep_args
        from repro.errors import ConfigError

        for bad in ("pool1", "pool1=", "=40", "pool1=4x"):
            with pytest.raises(ConfigError, match="bad --sweep"):
                _parse_sweep_args([bad], images=16, seed=1)

    def test_parser_and_lint_import_neither_scipy_nor_networkx(self,
                                                                tmp_path):
        """Building the parser (every command, ``--help`` included),
        ``repro lint`` and ``repro cache gc`` load no fabric model, so
        they skip the start-up cost of scipy and networkx.  A fresh
        interpreter, because this one has imported both already."""
        import pathlib
        import subprocess
        import sys
        import textwrap

        import repro

        src_dir = str(pathlib.Path(repro.__file__).resolve().parents[1])
        code = textwrap.dedent(f"""
            import sys
            sys.path.insert(0, {src_dir!r})
            from repro.cli import build_parser, main

            def heavy():
                return sorted(m for m in sys.modules
                              if m.partition(".")[0] in ("scipy", "networkx"))

            build_parser()
            assert not heavy(), f"build_parser imported {{heavy()}}"
            main(["lint", "--strict"])
            assert not heavy(), f"repro lint imported {{heavy()}}"
            main(["cache", "gc", "--dir", {str(tmp_path)!r}])
            assert not heavy(), f"repro cache gc imported {{heavy()}}"
        """)
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr


class TestCommands:
    def test_summary(self, capsys):
        assert main(["summary"]) == 0
        out = capsys.readouterr().out
        assert "conv2" in out and "fc1" in out
        assert "lenet5" in out

    def test_train_uses_cache(self, capsys):
        assert main(["train"]) == 0
        assert "Q3.4 acc" in capsys.readouterr().out

    def test_profile(self, capsys):
        assert main(["profile", "--traces", "2"]) == 0
        out = capsys.readouterr().out
        assert "conv" in out and "#0" in out

    def test_attack_guided(self, capsys):
        assert main(["attack", "--layer", "conv2", "--strikes", "500",
                     "--images", "32"]) == 0
        out = capsys.readouterr().out
        assert "conv2" in out and "drop" in out

    def test_attack_blind(self, capsys):
        assert main(["attack", "--layer", "blind", "--strikes", "500",
                     "--images", "32"]) == 0
        assert "blind" in capsys.readouterr().out

    def test_characterize(self, capsys):
        assert main(["characterize", "--cells", "8000", "24000",
                     "--trials", "1000"]) == 0
        out = capsys.readouterr().out
        assert "24000" in out and "total" in out

    def test_scan(self, capsys):
        assert main(["scan"]) == 0
        out = capsys.readouterr().out
        assert "striker bank" in out
        assert "REJECT" in out  # the scanner rejects the bank
        assert "vendor DRC: PASS" in out  # but vendor DRC admits it

    def test_campaign_round_trip(self, tmp_path, capsys):
        target = tmp_path / "c.json"
        # A tiny campaign via the spec default would be slow; run with a
        # small image subset instead.
        assert main(["campaign", "-o", str(target), "--images", "24"]) == 0
        out = capsys.readouterr().out
        assert "most sensitive target" in out
        assert target.exists()
        assert main(["campaign", "--show", str(target)]) == 0
        shown = capsys.readouterr().out
        assert "clean accuracy" in shown

    def test_campaign_resume_flag(self, tmp_path, capsys):
        """Interrupt a campaign, then --resume finishes the study."""
        import json
        from unittest import mock

        from repro.core import campaign as campaign_mod

        ckpt = tmp_path / "ckpt.json"
        target = tmp_path / "c.json"
        base = ["campaign", "-o", str(target), "--images", "16",
                "--sweep", "pool1=40,80"]

        calls = []
        real_hook = campaign_mod.run_campaign

        def interrupting(*args, **kwargs):
            hook = kwargs.get("before_cell")

            def bomb(layer, count):
                calls.append((layer, count))
                if len(calls) == 2:
                    raise KeyboardInterrupt
                if hook:
                    hook(layer, count)

            kwargs["before_cell"] = bomb
            return real_hook(*args, **kwargs)

        with mock.patch("repro.core.campaign.run_campaign",
                        side_effect=interrupting):
            with pytest.raises(KeyboardInterrupt):
                main(base + ["--checkpoint", str(ckpt)])
        capsys.readouterr()
        assert ckpt.exists()
        payload = json.loads(ckpt.read_text())
        assert payload["complete"] is False

        assert main(base + ["--resume", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "campaign written" in out
        final = json.loads(target.read_text())
        assert final["complete"] is True
        assert sum(len(s["outcomes"]) for s in final["sweeps"]) == 2

    def test_library_error_is_one_line_exit_two(self, tmp_path, capsys,
                                                monkeypatch):
        """A ReproError reaches the user as one stderr line, exit 2; a
        bad --sweep is refused before the victim loads."""
        import repro.zoo

        def no_load(**_):
            raise AssertionError("victim loaded before --sweep parsed")

        monkeypatch.setattr(repro.zoo, "get_pretrained", no_load)
        for flags, words in (
                (["--sweep", "pool1=80,40"], "increasing"),
                (["--sweep", "pool1"], "bad --sweep 'pool1'")):
            assert main(["campaign", "--images", "8", *flags,
                         "-o", str(tmp_path / "c.json")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("repro: ConfigError: ")
            assert words in err and err.count("\n") == 1
        assert not (tmp_path / "c.json").exists()

    def test_torn_resume_file_is_one_line_exit_two(self, tmp_path, capsys):
        """A torn checkpoint, and a whole one with an ill-typed strike
        count, are one-line errors naming the file."""
        import json

        ill_typed = {"format_version": 2, "complete": False,
                     "spec": {"sweeps": [["pool1", [40]]],
                              "blind_counts": ["40"], "eval_images": 8,
                              "bank_cells": None, "seed": 1},
                     "clean_accuracy": 0.875, "sweeps": [], "failures": []}
        torn = tmp_path / "ck.json"
        for text in ("{", json.dumps(ill_typed)):
            torn.write_text(text)
            assert main(["campaign", "--images", "8", "--resume", str(torn),
                         "-o", str(tmp_path / "c.json")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("repro: ConfigError: ")
            assert str(torn) in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv, words", [
        (["attack", "--images", "0"],
         "ConfigError: cannot attack an empty image batch"),
        (["report", "--images", "0"],
         "ConfigError: cannot attack an empty image batch"),
        (["defend", "--images", "4", "--cells", "3000",
          "--detection-trials", "0"],
         "ConfigError: detection needs at least 1 trial"),
    ], ids=["attack-no-images", "report-no-images", "defend-no-trials"])
    def test_empty_input_is_one_line_exit_two(self, argv, words, tmp_path,
                                              capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro: {words}")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_work_without_a_broker_is_one_line_exit_two(self, capsys,
                                                        monkeypatch):
        """A worker whose every join try is refused names the address
        and the number of tries, one line, exit 2."""
        import socket

        from repro.core.service import worker

        monkeypatch.setattr(worker, "JOIN_TRIES", 3)
        monkeypatch.setattr(worker, "JOIN_PAUSE_S", 0.0)
        # Leave this process's BLAS threads to the tests that follow.
        monkeypatch.setattr(worker, "_one_blas_thread", lambda: None)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        assert main(["work", "--broker", f"127.0.0.1:{port}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ProtocolError: could not join the "
                              f"broker at 127.0.0.1:{port} in 3 tries")
        assert err.count("\n") == 1

    def test_campaign_chaos_flag(self, tmp_path, capsys):
        target = tmp_path / "c.json"
        assert main(["campaign", "-o", str(target), "--images", "16",
                     "--seed", "3", "--sweep", "pool1=40",
                     "--chaos", "hostile"]) == 0
        out = capsys.readouterr().out
        assert "campaign written" in out
        # Hostile chaos kills ~20% of cells; either way the run completes
        # and any failure is the injected, typed kind.
        import json

        payload = json.loads(target.read_text())
        for failure in payload["failures"]:
            assert failure["error_type"] == "ChaosError"

    def test_broker_campaign_honours_policy_flags(self, tmp_path, capsys,
                                                  monkeypatch):
        """--max-retries/--cell-timeout reach a served broker's lease
        book, not only a --workers campaign's."""
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("local worker daemons are started with fork")
        from repro.core.service import broker as broker_mod

        policies = []
        real_init = broker_mod.CampaignBroker.__init__

        def spy(self, recipe, driver, **kwargs):
            policies.append(driver.book.policy)
            real_init(self, recipe, driver, **kwargs)

        monkeypatch.setattr(broker_mod.CampaignBroker, "__init__", spy)
        target = tmp_path / "served.json"
        assert main(["campaign", "--broker", "127.0.0.1:0",
                     "--local-workers", "1", "--images", "8",
                     "--sweep", "pool1=40", "--max-retries", "7",
                     "--cell-timeout", "33", "-o", str(target)]) == 0
        assert "broker bound at" in capsys.readouterr().out
        (policy,) = policies
        assert (policy.max_retries, policy.cell_timeout_s) == (7, 33.0)
        assert target.exists()

    def test_cache_gc_refuses_a_negative_bound(self, tmp_path, capsys):
        """`repro cache gc --max-bytes -1` is a one-line error, exit 2,
        and prunes nothing."""
        from repro.core.cellcache import CellCache
        from repro.core.evaluation import AttackOutcome

        cache = CellCache(tmp_path)
        cache.put(cache.cell_key("d" * 64, "pool1", 40, 5),
                  AttackOutcome("pool1", 40, 38, 0.9375, 0.8125, 0.8342))
        entries = sorted(tmp_path.rglob("*.json"))
        assert main(["cache", "gc", "--dir", str(tmp_path),
                     "--max-bytes", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ConfigError: ")
        assert err.count("\n") == 1
        assert sorted(tmp_path.rglob("*.json")) == entries

    def test_defend_round_trip(self, tmp_path, capsys):
        import json

        target = tmp_path / "defense.json"
        assert main(["defend", "-o", str(target), "--images", "8",
                     "--cells", "5500", "--strikes", "300",
                     "--detection-trials", "1"]) == 0
        out = capsys.readouterr().out
        assert "droop-monitor detection" in out
        assert "arms race" in out
        assert "recover" in out
        payload = json.loads(target.read_text())
        assert payload["format_version"] == 1
        assert len(payload["detection"]) == 1
        defenses = {c["defense"] for c in payload["arms_race"]}
        assert defenses == {"none", "recover"}
        for cell in payload["arms_race"]:
            assert 0.0 <= cell["attacked_accuracy"] <= 1.0

    def test_defend_skip_detection_with_tmr_arm(self, tmp_path, capsys):
        import json

        target = tmp_path / "defense.json"
        assert main(["defend", "-o", str(target), "--images", "8",
                     "--cells", "5500", "--strikes", "300",
                     "--skip-detection", "--tmr"]) == 0
        out = capsys.readouterr().out
        assert "droop-monitor detection" not in out
        payload = json.loads(target.read_text())
        assert payload["detection"] == []
        defenses = {c["defense"] for c in payload["arms_race"]}
        assert defenses == {"none", "recover", "tmr"}

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main(["report", "-o", str(target), "--images", "32"]) == 0
        text = target.read_text()
        assert "# DeepStrike reproduction report" in text
        assert "| conv2 |" in text
        assert "Fig 6b" in text
