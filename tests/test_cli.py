"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.automata.serialization import nfa_to_json
from repro.cli import main


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_exact_unambiguous(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--regex", "(ab|ba)*", "--alphabet", "ab", "-n", "6"
        )
        assert code == 0
        assert out.strip() == "8"

    def test_exact_ambiguous(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--regex", "(a|b)*a(a|b)*", "--alphabet", "ab", "-n", "5"
        )
        assert code == 0
        assert out.strip() == "31"

    def test_approx(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "count", "--regex", "(a|b)*a(a|b)*", "--alphabet", "ab",
            "-n", "5", "--approx", "--delta", "0.3", "--seed", "1",
        )
        assert code == 0
        assert abs(float(out.strip()) - 31) <= 0.35 * 31

    def test_nfa_json_input(self, capsys, tmp_path, even_zeros_dfa):
        path = tmp_path / "machine.json"
        path.write_text(nfa_to_json(even_zeros_dfa))
        code, out, _ = run_cli(capsys, "count", "--nfa-json", str(path), "-n", "5")
        assert code == 0
        assert out.strip() == "16"

    def test_missing_input(self, capsys):
        with pytest.raises(SystemExit):
            main(["count", "-n", "3"])


class TestSampleEnumInspect:
    def test_sample(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sample", "--regex", "(ab|ba)*", "--alphabet", "ab",
            "-n", "6", "--count", "3", "--seed", "5",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert all(len(line) == 6 for line in lines)

    def test_enum_with_limit(self, capsys):
        code, out, _ = run_cli(
            capsys, "enum", "--regex", "(a|b)*", "--alphabet", "ab", "-n", "3",
            "--limit", "4",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_inspect(self, capsys):
        code, out, _ = run_cli(
            capsys, "inspect", "--regex", "(ab|ba)*", "--alphabet", "ab",
            "--spectrum", "4",
        )
        assert code == 0
        assert "unambiguous   : True" in out
        assert "RelationUL" in out
        assert "|L_4  |       : 4" in out.replace("  |", "  |")  # spectrum rows present
        code, out, _ = run_cli(
            capsys, "inspect", "--regex", "(ab|ba)*", "--alphabet", "ab", "--spectrum", "0"
        )
        assert code == 0 and "|L_0  |       : 1" in out
        with pytest.raises(SystemExit):
            main(["inspect", "--regex", "(ab|ba)*", "--alphabet", "ab", "--spectrum", "-3"])

    def test_inspect_ambiguous_class(self, capsys):
        code, out, _ = run_cli(
            capsys, "inspect", "--regex", "(a|b)*a(a|b)*", "--alphabet", "ab"
        )
        assert code == 0
        assert "RelationNL" in out


class TestDot:
    def test_automaton_dot(self, capsys):
        code, out, _ = run_cli(capsys, "dot", "--regex", "ab", "--alphabet", "ab")
        assert code == 0
        assert out.startswith("digraph")

    def test_unrolled_dot(self, capsys):
        code, out, _ = run_cli(
            capsys, "dot", "--regex", "(ab)*", "--alphabet", "ab", "--unroll", "4"
        )
        assert code == 0
        assert "rank=same" in out


class TestErrors:
    def test_bad_regex_reports_error(self, capsys):
        code, _, err = run_cli(capsys, "count", "--regex", "(", "-n", "3")
        assert code == 1
        assert "error:" in err


class TestDomainInputs:
    """The facade-era inputs: --dnf, --rpq, and --backend selection."""

    @pytest.fixture
    def dnf_file(self, tmp_path):
        path = tmp_path / "formula.txt"
        path.write_text("x0 & x2 | !x1 & x3\n")
        return str(path)

    @pytest.fixture
    def graph_file(self, tmp_path):
        from repro.graphdb.graph import graph_to_json, grid_graph

        path = tmp_path / "grid.json"
        path.write_text(graph_to_json(grid_graph(3, 3)))
        return str(path)

    def test_dnf_count(self, capsys, dnf_file):
        code, out, _ = run_cli(capsys, "count", "--dnf", dnf_file)
        assert code == 0
        assert out.strip() == "7"  # brute-force model count of the formula

    def test_dnf_count_karp_luby_backend(self, capsys, dnf_file):
        code, out, _ = run_cli(
            capsys, "count", "--dnf", dnf_file, "--backend", "karp_luby", "--seed", "1"
        )
        assert code == 0
        assert abs(float(out.strip()) - 7) <= 0.3 * 7

    def test_dnf_length_mismatch_rejected(self, capsys, dnf_file):
        with pytest.raises(SystemExit):
            main(["count", "--dnf", dnf_file, "-n", "3"])

    def test_dnf_sample_and_enum(self, capsys, dnf_file):
        code, out, _ = run_cli(
            capsys, "sample", "--dnf", dnf_file, "--count", "2", "--seed", "3"
        )
        assert code == 0
        assert all(len(line) == 4 for line in out.strip().splitlines())
        code, out, _ = run_cli(capsys, "enum", "--dnf", dnf_file)
        assert code == 0
        assert len(out.strip().splitlines()) == 7

    def test_rpq_count_closed_form(self, capsys, graph_file):
        code, out, _ = run_cli(
            capsys,
            "count", "--rpq", "--graph-json", graph_file,
            "--source", "(0, 0)", "--target", "(2, 2)",
            "--regex", "(r|d)*", "-n", "4",
        )
        assert code == 0
        assert out.strip() == "6"  # C(4, 2) monotone grid paths

    def test_rpq_sample_prints_paths(self, capsys, graph_file):
        code, out, _ = run_cli(
            capsys,
            "sample", "--rpq", "--graph-json", graph_file,
            "--source", "(0, 0)", "--target", "(2, 2)",
            "--regex", "(r|d)*", "-n", "4", "--seed", "2",
        )
        assert code == 0
        assert "→" in out

    def test_rpq_missing_pieces_rejected(self, capsys, graph_file):
        with pytest.raises(SystemExit):
            main(["count", "--rpq", "--graph-json", graph_file, "-n", "4"])

    def test_rpq_unknown_vertex_rejected(self, capsys, graph_file):
        with pytest.raises(SystemExit):
            main([
                "count", "--rpq", "--graph-json", graph_file,
                "--source", "nowhere", "--target", "(2, 2)",
                "--regex", "(r|d)*", "-n", "4",
            ])

    def test_unknown_backend_reports_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "count", "--regex", "(ab)*", "--alphabet", "ab", "-n", "4",
            "--backend", "nope",
        )
        assert code == 1
        assert "unknown solver backend" in err

    def test_montecarlo_backend(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "count", "--regex", "(a|b)*a(a|b)*", "--alphabet", "ab",
            "-n", "5", "--backend", "montecarlo", "--seed", "2",
        )
        assert code == 0
        assert abs(float(out.strip()) - 31) <= 0.5 * 31


class TestCfgInput:
    """--cfg FILE: context-free grammars from the command line."""

    @pytest.fixture
    def cfg_file(self, tmp_path):
        path = tmp_path / "grammar.txt"
        # a^k b^k in CNF: exactly one word per even length.
        path.write_text(
            "# toy balanced grammar\n"
            "S -> A T | A B\n"
            "T -> S B\n"
            "A -> a\n"
            "B -> b\n"
        )
        return str(path)

    def test_cfg_count(self, capsys, cfg_file):
        code, out, _ = run_cli(capsys, "count", "--cfg", cfg_file, "-n", "6")
        assert code == 0
        assert out.strip() == "1"

    def test_cfg_enum(self, capsys, cfg_file):
        code, out, _ = run_cli(capsys, "enum", "--cfg", cfg_file, "-n", "4")
        assert code == 0
        assert out.strip() == "aabb"

    def test_cfg_sample(self, capsys, cfg_file):
        code, out, _ = run_cli(
            capsys, "sample", "--cfg", cfg_file, "-n", "2", "--seed", "4"
        )
        assert code == 0
        assert out.strip() == "ab"

    def test_cfg_requires_length(self, cfg_file):
        with pytest.raises(SystemExit):
            main(["count", "--cfg", cfg_file])

    def test_cfg_bad_syntax_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("S = A B\n")
        code, _, err = run_cli(capsys, "count", "--cfg", str(path), "-n", "2")
        assert code == 1
        assert "error:" in err


class TestBatchSampling:
    def test_batch_prints_k_witnesses(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sample", "--regex", "(ab|ba)*", "--alphabet", "ab",
            "-n", "6", "--batch", "5", "--seed", "9",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert all(len(line) == 6 and set(line) <= {"a", "b"} for line in lines)

    def test_batch_zero(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sample", "--regex", "(ab|ba)*", "--alphabet", "ab",
            "-n", "4", "--batch", "0",
        )
        assert code == 0
        assert out.strip() == ""


class TestVersionAndUsage:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        import repro

        assert repro.__version__ in out

    def test_pyproject_takes_version_from_package(self):
        # One source for the version: an installed ``repro --version`` and
        # ``repro.__version__`` can only agree if pyproject.toml names the
        # module attribute instead of a literal.  Parsed as text: Python
        # 3.10 has no tomllib.
        import os
        import re

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as handle:
            text = handle.read()
        tables = dict(
            (match.group(1), match.group(2))
            for match in re.finditer(
                r"^\[([^\]\n]+)\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S
            )
        )
        project = tables["project"]
        assert not re.search(r"^version\s*=", project, re.M)
        dynamic = re.search(r"^dynamic\s*=\s*\[([^\]]*)\]", project, re.M)
        assert dynamic is not None and '"version"' in dynamic.group(1)
        assert re.search(
            r'^version\s*=\s*\{\s*attr\s*=\s*"repro\.__version__"\s*\}',
            tables["tool.setuptools.dynamic"],
            re.M,
        )

    def test_no_subcommand_exits_2_with_usage(self, capsys):
        assert main([]) == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "command is required" in err


def _subprocess_env():
    """The repository root and an environment whose ``python -m repro``
    runs this checkout's sources."""
    import os

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return root, env


class TestServeAndQuery:
    """End-to-end: a real ``repro serve --port`` subprocess answered by
    ``repro query`` subprocesses (the CI smoke scenario)."""

    @pytest.fixture
    def server(self):
        import subprocess
        import sys as _sys

        root, env = _subprocess_env()
        proc = subprocess.Popen(
            [_sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
            cwd=root,
        )
        announce = proc.stderr.readline().strip()
        port = int(announce.rsplit(":", 1)[1])

        def query(*argv):
            return subprocess.run(
                [_sys.executable, "-m", "repro", "query", *argv, "--port", str(port)],
                env=env,
                capture_output=True,
                text=True,
                cwd=root,
                timeout=60,
            )

        yield query
        query("shutdown")
        proc.wait(timeout=10)
        proc.stderr.close()

    def test_query_count_matches_local(self, capsys, server):
        remote = server("count", "--regex", "(ab|ba)*", "--alphabet", "ab", "-n", "10")
        assert remote.returncode == 0, remote.stderr
        code, local, _ = run_cli(
            capsys, "count", "--regex", "(ab|ba)*", "--alphabet", "ab", "-n", "10"
        )
        assert code == 0
        assert remote.stdout.strip() == local.strip()

    def test_query_seeded_sample_matches_local(self, capsys, server):
        argv = ["--regex", "(ab|ba)*", "--alphabet", "ab", "-n", "8",
                "--batch", "3", "--seed", "5"]
        remote = server("sample", *argv)
        assert remote.returncode == 0, remote.stderr
        # The protocol's substream contract: identical to the in-process
        # facade with use_substreams.
        from repro.api import WitnessSet

        ws = WitnessSet.from_regex("(ab|ba)*", 8, alphabet="ab", store=False)
        expected = [
            "".join(map(str, w))
            for w in ws.sample_batch(3, rng=5, use_substreams=True)
        ]
        assert remote.stdout.strip().splitlines() == expected

    def test_query_ping(self, server):
        result = server("ping")
        assert result.returncode == 0
        assert result.stdout.strip() == "pong"

    def test_query_enum_streams_and_matches_local(self, capsys, server):
        argv = ["--regex", "(ab|ba)*", "--alphabet", "ab", "-n", "8"]
        remote = server("enum", *argv, "--chunk-size", "3")
        assert remote.returncode == 0, remote.stderr
        code, local, _ = run_cli(capsys, "enum", *argv)
        assert code == 0
        assert remote.stdout.splitlines() == local.splitlines()
        # The --enumerate spelling without a positional op.
        flagged = server("--enumerate", *argv, "--limit", "4")
        assert flagged.returncode == 0, flagged.stderr
        assert flagged.stdout.splitlines() == local.splitlines()[:4]

    def test_query_enumerate_huge_set_streams_immediately(self, server):
        # 2^48 witnesses: any output at all proves the server streams
        # instead of materializing.
        result = server(
            "enum", "--regex", "(a|b)*", "--alphabet", "ab", "-n", "48",
            "--limit", "3",
        )
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert len(lines) == 3 and all(len(line) == 48 for line in lines)

    def test_query_without_server_is_a_clean_error(self, capsys):
        # Connection refused must print a one-line error, not a traceback.
        code = main(["query", "ping", "--port", "1", "--host", "127.0.0.1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")

    @pytest.mark.parametrize("flag", ["--max-length", "--limit", "--seed"])
    def test_query_refuses_a_negative_value(self, capsys, monkeypatch, flag):
        """A negative ``--max-length``, ``--limit`` or ``--seed`` is a
        usage error (exit 2) before any connection is made."""
        from repro.service import client

        monkeypatch.setattr(client, "ServiceClient", None)  # a connection would raise
        argv = ["query", "spectrum", "--port", "1", "--regex", "(ab|ba)*", "--alphabet", "ab"]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "-n", "4", flag, "-1"])
        assert excinfo.value.code == 2
        assert "must be ≥ 0" in capsys.readouterr().err

    @pytest.mark.parametrize("delta", ["0", "1", "-0.2", "1.5", "nan", "inf", "x"])
    @pytest.mark.parametrize("command", ["count", "sample", "query"])
    def test_delta_outside_the_open_unit_interval_is_a_usage_error(
        self, capsys, monkeypatch, command, delta
    ):
        """``--delta`` must lie strictly between 0 and 1: anything else is
        a usage error (exit 2), not a traceback, and ``query`` exits
        before any connection is made."""
        from repro.service import client

        monkeypatch.setattr(client, "ServiceClient", None)  # a connection would raise
        argv = {
            "count": ["count", "--backend", "fpras"],
            "sample": ["sample"],
            "query": ["query", "count", "--port", "1", "--backend", "fpras"],
        }[command]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--regex", "(a|b)*a(a|b)*", "--alphabet", "ab", "-n", "6", "--delta", delta])
        assert excinfo.value.code == 2
        assert "--delta" in capsys.readouterr().err


class TestServeStdio:
    """``repro serve`` without ``--port``: stdin and stdout are the
    server's single connection, so files and pipes get the TCP
    front-end's contracts."""

    SPEC = {"kind": "regex", "pattern": "(ab|ba)*", "alphabet": "ab", "n": 8}

    def _serve_files(self, tmp_path, requests, *flags):
        """Run ``repro serve [flags] < requests.jsonl > responses.jsonl``;
        returns the exit code and the responses by id."""
        import json
        import subprocess
        import sys as _sys

        root, env = _subprocess_env()
        (tmp_path / "requests.jsonl").write_text(
            "".join(json.dumps(request) + "\n" for request in requests)
        )
        with open(tmp_path / "requests.jsonl") as stdin, open(
            tmp_path / "responses.jsonl", "w"
        ) as stdout:
            code = subprocess.run(
                [_sys.executable, "-m", "repro", "serve", *flags],
                stdin=stdin,
                stdout=stdout,
                env=env,
                cwd=root,
                timeout=60,
            ).returncode
        lines = (tmp_path / "responses.jsonl").read_text().splitlines()
        return code, {response["id"]: response for response in map(json.loads, lines)}

    def test_regular_files_answer_and_exit_zero(self, tmp_path):
        code, responses = self._serve_files(
            tmp_path,
            [
                {"id": 1, "op": "count", "spec": self.SPEC},
                {"id": 2, "op": "sample", "spec": self.SPEC, "k": 3, "seed": 5},
                {"id": 3, "op": "shutdown"},
            ],
        )
        assert code == 0
        assert responses[1]["result"] == 16
        from repro.api import WitnessSet

        ws = WitnessSet.from_regex("(ab|ba)*", 8, alphabet="ab", store=False)
        expected = [
            "".join(map(str, w))
            for w in ws.sample_batch(3, rng=5, use_substreams=True)
        ]
        assert responses[2]["result"] == expected
        assert responses[3]["result"] == "bye"

    def test_request_timeout_flag(self, tmp_path):
        code, responses = self._serve_files(
            tmp_path,
            [{"id": 1, "op": "count", "spec": self.SPEC}],
            "--request-timeout", "0.000001",
        )
        assert code == 0
        assert responses[1]["error_type"] == "TimeoutError"

    def test_slow_query_log_flag(self, tmp_path):
        import json

        log = tmp_path / "slow.jsonl"
        code, responses = self._serve_files(
            tmp_path,
            [{"id": 7, "op": "count", "spec": self.SPEC}],
            "--slow-query-log", str(log), "--slow-query-ms", "0",
        )
        assert code == 0 and responses[7]["result"] == 16
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert [(r["id"], r["op"]) for r in records] == [(7, "count")]

    def test_shutdown_exits_while_stdin_stays_open(self):
        import subprocess
        import sys as _sys

        root, env = _subprocess_env()
        proc = subprocess.Popen(
            [_sys.executable, "-m", "repro", "serve"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=root,
        )
        try:
            proc.stdin.write(b'{"id": 1, "op": "shutdown"}\n')
            proc.stdin.flush()
            assert proc.wait(timeout=10) == 0
            assert b'"result":"bye"' in proc.stdout.read()
        finally:
            proc.stdin.close()
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
