"""The ``python -m repro`` command-line interface."""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SRC = Path(__file__).resolve().parent.parent / "src"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["sage", "--m", "100", "--k", "100", "--n", "50"],
            ["sage", "--tensor", "--i", "32", "--j", "32", "--k", "16",
             "--rank", "8"],
            ["sage", "--backend", "tcp://127.0.0.1:7342"],
            ["run", "--m", "64", "--k", "64", "--n", "32"],
            ["serve", "--port", "0"],
            ["sweep", "--m", "500", "--k", "500"],
            ["walkthrough"],
            ["suite", "journals"],
            ["paths"],
            ["paths", "--tensor", "--src", "COO", "--dst", "CSF"],
            ["stats", "tcp://127.0.0.1:7342"],
            ["--log-level", "info", "run", "--trace", "out.json"],
            ["xp", "run", "--all", "--smoke", "--trace"],
        ],
    )
    def test_commands_parse(self, argv):
        args = build_parser().parse_args(argv)
        assert callable(args.fn)

    @pytest.mark.parametrize("engine", ["vectorized", "reference"])
    def test_run_has_no_engine_flag(self, engine):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--engine", engine])

    def test_serve_has_no_batch_window_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--batch-window-ms", "1"])

    def test_serve_has_no_shards_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--shards", "1"])

    def test_version_flag_prints_and_exits(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"


class TestExecution:
    def test_sage_prints_decision(self, capsys):
        assert main(["sage", "--m", "200", "--k", "200", "--n", "100",
                     "--density", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "SAGE decision" in out and "MCF=" in out

    def test_sage_spgemm_mode(self, capsys):
        assert main(["sage", "--m", "300", "--k", "300", "--n", "150",
                     "--density", "0.01", "--kernel", "spgemm"]) == 0
        assert "EDP" in capsys.readouterr().out

    def test_sage_tensor_mode(self, capsys):
        assert main(["sage", "--tensor", "--i", "32", "--j", "32",
                     "--k", "16", "--density", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "SAGE decision" in out and "MCF=" in out

    def test_sage_tensor_mttkrp(self, capsys):
        assert main(["sage", "--tensor", "--i", "32", "--j", "16", "--k", "8",
                     "--rank", "4", "--kernel", "mttkrp"]) == 0
        assert "EDP" in capsys.readouterr().out

    def test_sage_tensor_kernel_requires_tensor_flag(self):
        with pytest.raises(SystemExit):
            main(["sage", "--kernel", "spttm"])

    @pytest.mark.parametrize("kernel", ["spgemm", "spmm"])
    def test_sage_tensor_rejects_matrix_kernel(self, kernel):
        with pytest.raises(SystemExit):
            main(["sage", "--tensor", "--kernel", kernel])

    def test_sage_tensor_rejects_cycle_fidelity(self):
        with pytest.raises(SystemExit, match="matrix workload"):
            main(["sage", "--tensor", "--i", "32", "--j", "32", "--k", "16",
                  "--fidelity", "cycle"])

    def test_sage_cycle_fidelity(self, capsys):
        assert main(["sage", "--m", "96", "--k", "96", "--n", "64",
                     "--density", "0.1", "--fidelity", "cycle"]) == 0
        assert "[cycle]" in capsys.readouterr().out

    def test_run_prints_pipeline_report(self, capsys):
        assert main(["run", "--m", "96", "--k", "96", "--n", "48",
                     "--density", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "SAGE" in out and "MINT" in out and "simulator" in out
        assert "output verified" in out

    def test_run_trace_exports_multi_layer_chrome_trace(self, tmp_path,
                                                        capsys):
        out = tmp_path / "trace.json"
        assert main(["run", "--m", "64", "--k", "64", "--n", "32",
                     "--trace", str(out)]) == 0
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        cats = {event["cat"] for event in events}
        # The acceptance bar: spans from at least the api, sage, mint
        # and accelerator layers on one timeline.
        assert {"api", "sage", "mint", "accel"} <= cats
        assert all(event["ph"] == "X" for event in events)
        trace_ids = {event["args"]["trace_id"] for event in events
                     if "args" in event and "trace_id" in event["args"]}
        assert len(trace_ids) == 1

    def test_run_unknown_backend_exits_with_config_error(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="unknown backend"):
            main(["run", "--m", "64", "--k", "64", "--n", "32",
                  "--backend", "smoke-signals"])

    def test_sweep_prints_ladder(self, capsys):
        assert main(["sweep", "--m", "2000", "--k", "2000"]) == 0
        out = capsys.readouterr().out
        assert "best" in out and "Dense" in out

    def test_walkthrough_prints_fig6_counts(self, capsys):
        assert main(["walkthrough"]) == 0
        out = capsys.readouterr().out
        assert "8 cycles" in out
        assert "3 cycles" in out
        assert "4 cycles" in out

    def test_suite_ranks_policies(self, capsys):
        assert main(["suite", "journals", "--kernel", "spgemm"]) == 0
        out = capsys.readouterr().out
        assert "Flex_Flex_HW" in out and "1.00x" in out

    def test_suite_unknown_workload(self):
        with pytest.raises(KeyError):
            main(["suite", "nonexistent"])

    def test_paths_prints_graph_and_routes(self, capsys):
        assert main(["paths", "--m", "512", "--k", "512"]) == 0
        out = capsys.readouterr().out
        assert "registered datapaths" in out
        assert "csr_to_csc" in out
        assert "planned routes" in out and "cycles" in out

    def test_paths_single_pair_route(self, capsys):
        assert main(["paths", "--src", "ZVC", "--dst", "CSR"]) == 0
        out = capsys.readouterr().out
        assert "ZVC -> Dense -> CSR" in out

    def test_paths_tensor_graph(self, capsys):
        assert main(["paths", "--tensor"]) == 0
        out = capsys.readouterr().out
        assert "coo3_to_csf" in out

    def test_paths_unknown_format_exits(self):
        with pytest.raises(SystemExit):
            main(["paths", "--src", "NOPE", "--dst", "CSR"])


class TestJsonOutput:
    def test_sage_json_is_wire_decision(self, capsys):
        assert main(["sage", "--m", "200", "--k", "200", "--n", "100",
                     "--density", "0.05", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["workload_name"] == "cli"
        assert doc["fidelity"] == "analytical"
        assert doc["best"]["mcf"] and doc["best"]["acf"]
        assert len(doc["ranking"]) >= 1

    def test_sage_json_cycle_fidelity(self, capsys):
        assert main(["sage", "--m", "96", "--k", "96", "--n", "64",
                     "--density", "0.1", "--fidelity", "cycle",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fidelity"] == "cycle"
        assert {"ELL"} <= {cand["acf"][0] for cand in doc["ranking"]}

    def test_suite_json_ranks_policies(self, capsys):
        assert main(["suite", "journals", "--kernel", "spgemm",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["workload"] == "journals"
        assert doc["baseline"] == "Flex_Flex_HW"
        names = [p["policy"] for p in doc["policies"]]
        assert "Flex_Flex_HW" in names
        ratios = [p["edp_vs_baseline"] for p in doc["policies"]]
        assert ratios == sorted(ratios)
        assert min(ratios) == pytest.approx(1.0)

    def test_run_json_reports_pipeline(self, capsys):
        assert main(["run", "--m", "96", "--k", "96", "--n", "48",
                     "--density", "0.05", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["decision"]["best"]["mcf"]
        assert doc["cycles"] > 0
        assert doc["verified"] is True
        assert doc["sim_scale"] == 1.0

    def test_sweep_json_reports_best_per_density(self, capsys):
        assert main(["sweep", "--m", "2000", "--k", "2000", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["shape"] == [2000, 2000]
        assert "Dense" in doc["formats"]
        for row in doc["rows"]:
            assert row["best"] in doc["formats"]
            assert set(row["relative_energy"]) == set(doc["formats"])


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


class TestServeSignals:
    def test_sigterm_closes_the_server(self, capsys):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        # Its own session, so the server's process group holds the server
        # and whatever it starts, and nothing of this test process.
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--warm-bands", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, start_new_session=True,
        )
        try:
            address = None
            for line in proc.stdout:
                address = re.search(r"listening on ([\d.]+):(\d+)", line)
                if address:
                    break
            assert address, "repro serve exited before its banner"
            spec = f"tcp://{address[1]}:{address[2]}"
            assert main(["stats", spec, "--json"]) == 0
            stats = json.loads(capsys.readouterr().out)
            assert stats["fidelity"] == "analytical"

            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            assert not _group_alive(proc.pid)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()
            if _group_alive(proc.pid):
                os.killpg(proc.pid, signal.SIGKILL)  # leaked: clean up
