"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_validates_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nbody", "tdnuca"])

    def test_run_validates_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "md5", "hnuca"])


class TestVersion:
    def test_version_flag_prints_the_package_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"

    def test_package_version_is_the_single_source(self):
        import repro
        from repro.service.envelope import ok_envelope

        assert ok_envelope({})["version"] == repro.__version__


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8642
        assert args.workers == 2
        assert args.checkpoint_every == 0

    def test_submit_validates_workload_and_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "nbody", "tdnuca"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "md5", "hnuca"])

    def test_submit_against_dead_server_fails_typed(self, capsys):
        # Nothing listens on port 1: the client retries, then reports a
        # typed error on stderr and exits 75 (retryable — try again later).
        rc = main([
            "submit", "md5", "tdnuca", "--scale", "2048",
            "--port", "1",
        ])
        err = capsys.readouterr().err
        assert rc == 75
        assert "error [internal]" in err
        assert "Traceback" not in err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "md5" in out and "tdnuca" in out

    def test_config(self, capsys):
        assert main(["config", "--scale", "64"]) == 0
        out = capsys.readouterr().out
        assert "16 cores" in out
        assert "RRT" in out

    def test_run_table(self, capsys):
        assert main(["run", "md5", "snuca", "--scale", "2048"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "LLC hit ratio" in out

    def test_run_json(self, capsys):
        assert main(["run", "md5", "tdnuca", "--scale", "2048", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "md5"
        assert payload["tdnuca_runtime"]["bypass"] > 0

    def test_run_deadline_preempts_and_resumes(self, tmp_path, capsys):
        from repro.snapshot import EXIT_PREEMPTED

        snap = tmp_path / "run.snap"
        rc = main(
            [
                "run", "md5", "tdnuca", "--scale", "2048", "--json",
                "--deadline", "0.0001", "--checkpoint-to", str(snap),
            ]
        )
        assert rc == EXIT_PREEMPTED
        assert snap.exists()
        captured = capsys.readouterr()
        assert "--resume-from" in captured.err

        reference = json.loads(
            (
                main(["run", "md5", "tdnuca", "--scale", "2048", "--json"]),
                capsys.readouterr().out,
            )[1]
        )
        rc = main(
            [
                "run", "md5", "tdnuca", "--scale", "2048", "--json",
                "--resume-from", str(snap),
            ]
        )
        assert rc == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed.pop("resumed_from_task") >= 1
        assert resumed == reference

    def test_preempted_8x8_run_resumes_from_the_printed_command(
        self, tmp_path, capsys
    ):
        import shlex

        from repro.snapshot import EXIT_PREEMPTED

        flags = ["--scale", "2048", "--mesh", "8x8", "--cluster", "4x4",
                 "--faults", "bank:5@task=10", "--strict"]
        snap = tmp_path / "run.snap"
        rc = main(["run", "md5", "tdnuca", *flags, "--deadline", "0.0001",
                   "--checkpoint-to", str(snap)])
        assert rc == EXIT_PREEMPTED
        argv = shlex.split(capsys.readouterr().err.splitlines()[-1])
        assert argv[:2] == ["repro", "run"]
        assert main([*argv[1:], "--json"]) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert main(["run", "md5", "tdnuca", *flags, "--json"]) == 0
        reference = json.loads(capsys.readouterr().out)
        assert resumed.pop("resumed_from_task") >= 1
        assert resumed == reference

    def test_run_resume_rejects_wrong_identity(self, tmp_path, capsys):
        from repro.snapshot import EXIT_PREEMPTED

        snap = tmp_path / "run.snap"
        rc = main(
            [
                "run", "md5", "tdnuca", "--scale", "2048",
                "--deadline", "0.0001", "--checkpoint-to", str(snap),
            ]
        )
        assert rc == EXIT_PREEMPTED
        with pytest.raises(ValueError, match="mismatch"):
            main(
                [
                    "run", "md5", "snuca", "--scale", "2048",
                    "--resume-from", str(snap),
                ]
            )

    def test_run_with_trace_file(self, tmp_path, capsys):
        trace_file = tmp_path / "run.trace.json"
        rc = main(
            [
                "run", "md5", "tdnuca", "--scale", "2048",
                "--trace", str(trace_file),
            ]
        )
        assert rc == 0
        assert "perfetto" in capsys.readouterr().out
        doc = json.loads(trace_file.read_text())
        assert doc["traceEvents"]

    def test_trace_command(self, tmp_path, capsys):
        trace_file = tmp_path / "t.json"
        events_file = tmp_path / "t.jsonl"
        rc = main(
            [
                "trace", "md5", "tdnuca", "--scale", "2048",
                "--out", str(trace_file), "--events", str(events_file),
                "--sample-every", "16",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "events recorded" in out
        assert "bank access heatmap" in out
        assert "link load heatmap" in out
        doc = json.loads(trace_file.read_text())
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert "X" in phases and "C" in phases
        assert events_file.read_text().startswith('{"trace_meta"')

    def test_figures_subset(self, capsys):
        rc = main(
            [
                "figures", "--scale", "2048", "--only", "fig8",
                "--workloads", "md5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Fig.8" in out

    def test_figures_chart_mode(self, capsys):
        rc = main(
            [
                "figures", "--scale", "2048", "--only", "fig8",
                "--workloads", "md5", "--chart",
            ]
        )
        assert rc == 0
        assert "█" in capsys.readouterr().out

    def test_sweep_writes_json(self, tmp_path, capsys):
        out_file = tmp_path / "results.json"
        rc = main(
            [
                "sweep", "--scale", "2048", "--out", str(out_file),
                "--policies", "snuca", "tdnuca",
            ]
        )
        assert rc == 0
        payload = json.loads(out_file.read_text())
        assert payload["schema_version"] == 4
        assert "md5/tdnuca" in payload["runs"]
        assert len(payload["runs"]) == 16  # 8 workloads x 2 policies
        assert payload["failures"] == []
        assert "config_sha256" in payload["sweep"]
        # checkpoints land next to the output by default
        assert (tmp_path / "results.json.d" / "manifest.json").exists()

    def test_sweep_workload_subset_with_faults(self, tmp_path, capsys):
        out_file = tmp_path / "faulted.json"
        rc = main(
            [
                "sweep", "--scale", "2048", "--out", str(out_file),
                "--workloads", "md5", "--policies", "snuca",
                "--faults", "bank:5@task=20", "--strict",
            ]
        )
        assert rc == 0
        payload = json.loads(out_file.read_text())
        assert set(payload["runs"]) == {"md5/snuca"}
        run = payload["runs"]["md5/snuca"]
        assert run["faults"]["banks_failed"] == 1
        assert run["invariants"]["violations"] == 0

    def test_sweep_requires_out_or_resume(self, capsys):
        assert main(["sweep", "--scale", "2048"]) == 2
        assert "--out is required" in capsys.readouterr().out

    def test_sweep_compare_roundtrip(self, tmp_path, capsys):
        """Parallel sweep -> compare with itself is clean (CLI round trip)."""
        out_file = tmp_path / "s.json"
        rc = main(
            [
                "sweep", "--scale", "2048", "--workloads", "md5",
                "--policies", "snuca", "tdnuca", "--jobs", "2",
                "--out", str(out_file), "--run-dir", str(tmp_path / "rd"),
            ]
        )
        assert rc == 0
        assert main(["compare", str(out_file), str(out_file)]) == 0
        assert "no deviations" in capsys.readouterr().out

    def test_sweep_crash_then_resume(self, tmp_path, capsys, monkeypatch):
        """Acceptance: a crashed job degrades gracefully, and a resumed
        sweep merges to the same JSON as a clean one (modulo wall time)."""
        clean, faulted = tmp_path / "clean.json", tmp_path / "faulted.json"
        argv = [
            "sweep", "--scale", "2048", "--workloads", "md5",
            "--policies", "snuca", "tdnuca",
        ]
        assert main(argv + ["--out", str(clean)]) == 0

        monkeypatch.setenv(
            "REPRO_FAILPOINTS", "harness.worker.crash=*@job:md5/tdnuca"
        )
        rc = main(
            argv
            + ["--out", str(faulted), "--jobs", "2", "--retries", "0",
               "--run-dir", str(tmp_path / "rd")]
        )
        assert rc == 1
        payload = json.loads(faulted.read_text())
        assert set(payload["runs"]) == {"md5/snuca"}
        assert payload["failures"][0]["error"] == "WorkerCrash"
        manifest = json.loads((tmp_path / "rd" / "manifest.json").read_text())
        assert manifest["status"]["md5/tdnuca"]["status"] == "failed"

        monkeypatch.delenv("REPRO_FAILPOINTS")
        assert main(["sweep", "--resume", str(tmp_path / "rd")]) == 0
        a = json.loads(clean.read_text())
        b = json.loads(faulted.read_text())
        a["sweep"].pop("wall_time_s")
        b["sweep"].pop("wall_time_s")
        assert a == b

    def test_sweep_resumes_under_another_kernel(self, tmp_path, capsys):
        # The kernel is an execution strategy, not part of the sweep's
        # identity: a finished run dir resumes under any --kernel.
        out = tmp_path / "ref.json"
        argv = ["sweep", "--scale", "2048", "--workloads", "md5",
                "--policies", "snuca", "tdnuca", "--out", str(out)]
        assert main(argv + ["--kernel", "reference"]) == 0
        capsys.readouterr()
        assert main(["sweep", "--resume", str(tmp_path / "ref.json.d")]) == 0
        err = capsys.readouterr().err
        assert err.count(" skipped ") == 2

    def test_compare_reports_schema_mismatch(self, tmp_path, capsys):
        versioned = tmp_path / "new.json"
        versioned.write_text(
            json.dumps({"schema_version": 2, "runs": {}, "failures": [],
                        "sweep": {}})
        )
        stale = tmp_path / "old.json"
        stale.write_text(json.dumps({"schema_version": 1, "runs": {}}))
        rc = main(["compare", str(stale), str(versioned)])
        assert rc == 2
        out = capsys.readouterr().out
        assert "schema version mismatch" in out and "old.json" in out

    def test_compare_rejects_unversioned(self, tmp_path, capsys):
        legacy = tmp_path / "legacy.json"
        legacy.write_text('{"md5/snuca": {"makespan_cycles": 1}}')
        rc = main(["compare", str(legacy), str(legacy)])
        assert rc == 2
        assert "unversioned" in capsys.readouterr().out
