"""Tests for the experiment drivers that need no policy training, and the CLI."""

import pytest

from repro.cli import main
from repro.experiments import EXPERIMENTS, FULL, QUICK, get_profile
from repro.experiments.ablation_datapath import run as run_ablation
from repro.experiments.fig02_breakdown import run as run_fig2
from repro.experiments.fig09_mass_matrix import run as run_fig9
from repro.experiments.resources_report import run as run_resources


class TestProfiles:
    def test_default_quick(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert get_profile().name == "quick"

    def test_env_selects_full(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "full")
        assert get_profile().name == "full"

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "full")
        assert get_profile("quick").name == "quick"

    def test_unknown_profile_raises(self):
        with pytest.raises(ValueError):
            get_profile("enormous")

    def test_full_is_larger(self):
        assert FULL.jobs > QUICK.jobs


class TestExperimentRegistry:
    def test_all_artifacts_registered(self):
        expected = {
            "fig2", "fig9", "fig11", "fig12", "fig13", "fig14", "fig15",
            "tbl1", "tbl2", "tbl3", "tbl4", "families", "resources",
            "ablation", "ablation-algo", "power",
        }
        assert set(EXPERIMENTS) == expected


class TestTrainingFreeExperiments:
    def test_fig2_report(self):
        report = run_fig2(QUICK)
        assert "Fig. 2" in report
        assert "72.7%" in report  # paper column present

    def test_fig9_report(self):
        report = run_fig9(QUICK)
        assert "joint 2" in report
        assert "shape check" in report

    def test_resources_report(self):
        report = run_resources(QUICK)
        assert "13.6%" in report

    def test_ablation_report(self):
        report = run_ablation(QUICK)
        assert "54.0%" in report and "86.0%" in report

    def test_power_report(self):
        from repro.experiments.discussion_power import run as run_power

        report = run_power(QUICK)
        assert "40.6%" in report
        assert "end-to-end" in report


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "tbl1" in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["tbl99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_runs_training_free_experiment(self, capsys):
        assert main(["resources"]) == 0
        out = capsys.readouterr().out
        assert "resources done" in out


class TestServeFlagValidation:
    @pytest.mark.parametrize("flags", [
        ["--tcp", "127.0.0.1:port"],
        ["--tcp", "127.0.0.1:65536"],
        ["--max-pending", "0"],
        ["--max-inflight", "0"],
    ])
    @pytest.mark.parametrize("spelling", ["repro-serve", "repro-experiments serve"])
    def test_bad_flags_exit_2_before_loading_policies(
        self, monkeypatch, capsys, flags, spelling
    ):
        """A bad serving flag exits 2 with one stderr line -- before the
        policy load, which on a cache miss trains for minutes."""
        from repro.serving.__main__ import main as serve_main

        def no_policy_load(*args, **kwargs):
            raise AssertionError("policies loaded before the flags were checked")

        monkeypatch.setattr(
            "repro.analysis.evaluation.get_trained_policies", no_policy_load
        )
        code = serve_main(flags) if spelling == "repro-serve" else main(["serve", *flags])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and flags[0] in err[0]
