"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_link_defaults(self):
        args = build_parser().parse_args(["link", "ofdm-6"])
        assert args.channel == "awgn"
        assert args.snr == 25.0

    def test_rates_rejects_unknown_standard(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["rates", "802.11zz"])


class TestCommands:
    def test_evolution(self, capsys):
        assert main(["evolution"]) == 0
        out = capsys.readouterr().out
        assert "802.11n" in out
        assert "multiplier" in out

    def test_link(self, capsys):
        code = main(["link", "ofdm-6", "awgn", "20",
                     "--packets", "3", "--bytes", "40"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PER" in out
        assert "goodput" in out

    def test_mac(self, capsys):
        assert main(["mac", "3", "--duration", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Bianchi" in out

    def test_regulatory(self, capsys):
        assert main(["regulatory"]) == 0
        assert "Barker" in capsys.readouterr().out

    def test_rates(self, capsys):
        assert main(["rates", "802.11b"]) == 0
        out = capsys.readouterr().out
        assert "11.0 Mbps" in out

    def test_experiment_list_flag(self, capsys):
        assert main(["experiment", "--list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E17" in out
        # Every registered id appears with its one-line description.
        from repro.core.experiments import list_experiments
        for key, desc in list_experiments():
            assert key in out
            assert desc in out

    def test_campaign_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])

    def test_campaign_run_defaults(self):
        args = build_parser().parse_args(["campaign", "run", "e3-dsss-cck"])
        assert args.workers == 1
        assert args.results == "results"
        assert not args.force
        # Failure knobs default to "defer to the spec".
        assert args.retries is None
        assert args.timeout is None

    def test_campaign_show_failures_flag(self):
        args = build_parser().parse_args(["campaign", "show", "x",
                                          "--failures"])
        assert args.failures

    def test_library_errors_become_clean_exit(self, tmp_path, capsys):
        # Path traversal through a campaign name: rejected with a
        # message on stderr and exit 2, not a traceback.
        code = main(["campaign", "show", "../../etc",
                     "--results", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "filesystem-safe" in err


class TestTraceCli:
    def _spec_file(self, tmp_path):
        import json
        spec_path = tmp_path / "tiny.json"
        spec_path.write_text(json.dumps({
            "name": "tiny", "kind": "link",
            "factors": {"phy": ["dsss-1", "dsss-2"],
                        "snr_db": [0.0, 8.0]},
            "fixed": {"channel": "awgn", "n_packets": 3,
                      "payload_bytes": 20},
            "base_seed": 3,
        }))
        return str(spec_path)

    def test_campaign_run_trace_then_report(self, tmp_path, capsys):
        spec = self._spec_file(tmp_path)
        results = str(tmp_path / "results")
        assert main(["campaign", "run", spec,
                     "--results", results, "--trace"]) == 0
        out = capsys.readouterr().out
        assert "trace:" in out and "repro trace report tiny" in out

        assert main(["trace", "report", "tiny",
                     "--results", results]) == 0
        out = capsys.readouterr().out
        assert "trace report: tiny" in out
        assert "per-point timing" in out
        assert "slowest spans" in out
        assert "campaign.cache.miss" in out

    def test_trace_report_without_trace_says_so_and_exits_1(self, tmp_path,
                                                            capsys):
        code = main(["trace", "report", "ghost",
                     "--results", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "no trace recorded" in out and "--trace" in out

    def test_trace_report_on_empty_trace_exits_1(self, tmp_path, capsys):
        trace_dir = tmp_path / "ghost" / "trace"
        trace_dir.mkdir(parents=True)
        (trace_dir / "trace.jsonl").write_text("")  # zero spans
        code = main(["trace", "report", "ghost",
                     "--results", str(tmp_path)])
        assert code == 1
        assert "no trace recorded" in capsys.readouterr().out

    def test_link_trace_prints_summary(self, capsys):
        # An OFDM point runs as a one-column grid of the grid engine.
        assert main(["link", "ofdm-6", "awgn", "20", "--packets", "3",
                     "--bytes", "40", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "trace summary:" in out
        assert "mc.run_grid" in out and "mc.run_trials" not in out

    def test_link_trace_modem_runs_grid_engine(self, capsys):
        # DSSS/CCK and FHSS points run through the same grid engine.
        assert main(["link", "dsss-1", "awgn", "6", "--packets", "3",
                     "--bytes", "20", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "trace summary:" in out
        assert "mc.run_grid" in out and "mc.run_trials" not in out


class TestWatchCli:
    def _run_campaign(self, tmp_path):
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "watched", "kind": "link",
            "factors": {"phy": ["dsss-1"], "snr_db": [0.0, 8.0]},
            "fixed": {"channel": "awgn", "n_packets": 3,
                      "payload_bytes": 20},
            "base_seed": 3,
        }))
        results = str(tmp_path / "results")
        assert main(["campaign", "run", str(spec_path),
                     "--results", results]) == 0
        return results

    def test_watch_once_renders_progress(self, tmp_path, capsys):
        results = self._run_campaign(tmp_path)
        capsys.readouterr()
        assert main(["campaign", "watch", "watched", "--once",
                     "--results", results]) == 0
        out = capsys.readouterr().out
        assert "campaign watched [done]" in out
        assert "2/2" in out

    def test_watch_once_json_is_the_raw_document(self, tmp_path, capsys):
        import json

        results = self._run_campaign(tmp_path)
        capsys.readouterr()
        assert main(["campaign", "watch", "watched", "--once", "--json",
                     "--results", results]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["state"] == "done"
        assert doc["points"]["done"] + doc["points"]["cached"] == 2
        assert "workers" in doc and "t_read" in doc

    def test_watch_once_without_status_is_clean_error(self, tmp_path,
                                                      capsys):
        code = main(["campaign", "watch", "ghost", "--once",
                     "--results", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
