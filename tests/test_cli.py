import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tftflip
from tftflip.checks import SUITES
from tftflip.cli import main
from tftflip.geometry import enumerate_ctft

CAPS = {check.name: check.max_n for check in SUITES}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_line_usage_error(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("tft: error: ")
    assert captured.err.count("\n") == 1


class TestCount:
    def test_n3(self, capsys):
        code, out, _ = run(capsys, "count", "-n", "3")
        assert code == 0
        assert out == "CTFT=56 TFT=28\n"

    def test_n1(self, capsys):
        code, out, _ = run(capsys, "count", "-n", "1")
        assert code == 0
        assert out == "CTFT=10 TFT=5\n"

    @pytest.mark.parametrize("n", range(1, 7))
    def test_closed_form_matches_enumeration(self, capsys, n):
        total = len(enumerate_ctft(n))
        code, out, _ = run(capsys, "count", "-n", str(n))
        assert code == 0
        assert out == f"CTFT={total} TFT={total // 2}\n"

    def test_large_n_answers_at_once(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "count", "-n", "40")
        assert time.perf_counter() - start < 1
        assert code == 0
        assert out == f"CTFT={44 * 2**40} TFT={22 * 2**40}\n"

    def test_above_cap_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "-n", "10001"])
        assert exc.value.code == 2
        assert_one_line_usage_error(capsys)


class TestDistance:
    def test_both_methods_agree(self, capsys):
        code, out, _ = run(
            capsys, "distance", "-n", "3",
            "--from", "0,0,0,0", "--to", "1,1,1,2",
        )
        assert code == 0
        assert out == "14 (formula=bfs)\n"

    def test_formula_only(self, capsys):
        code, out, _ = run(
            capsys, "distance", "-n", "3",
            "--from", "0,0,0,0", "--to", "1,1,1,6", "--method", "formula",
        )
        assert code == 0
        assert out == "4\n"

    def test_small_n_falls_back_to_bfs(self, capsys):
        code, out, _ = run(
            capsys, "distance", "-n", "2",
            "--from", "0,0,0", "--to", "1,1,5", "--method", "formula",
        )
        assert code == 0
        assert out.strip().isdigit()

    def test_both_methods_at_n12_within_seconds(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "distance", "-n", "12",
            "--from", "0,0,0,0,0,0,0,0,0,0,0,0,0", "--to", "1,0,1,1,0,0,1,0,1,1,1,0,9",
        )
        assert time.perf_counter() - start < 5
        assert code == 0
        assert out.endswith(" (formula=bfs)\n")

    def test_malformed_rep_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["distance", "-n", "3", "--from", "2,0,0,0", "--to", "0,0,0,0"])
        assert exc.value.code == 2
        assert_one_line_usage_error(capsys)


class TestDiameter:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "diameter", "-n", "6")
        assert code == 0
        assert out == "35\n"

    def test_verified(self, capsys):
        code, out, _ = run(capsys, "diameter", "-n", "3", "--verify", "bfs")
        assert code == 0
        assert out == "14 verified\n"

    def test_formula_scan(self, capsys):
        code, out, _ = run(capsys, "diameter", "-n", "4", "--verify", "formula-scan")
        assert code == 0
        assert out == "20 verified\n"

    def test_verified_n7(self, capsys):
        code, out, _ = run(capsys, "diameter", "-n", "7", "--verify", "bfs")
        assert code == 0
        assert out == "44 verified\n"

    @pytest.mark.parametrize(
        "method, n",
        [("bfs", CAPS["diameter-bfs"] + 1), ("formula-scan", CAPS["diameter-scan"] + 1)],
    )
    def test_verify_above_the_check_cap(self, capsys, method, n):
        # the registry caps the oracle; nothing is built or scanned
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["diameter", "-n", str(n), "--verify", method])
        assert time.perf_counter() - start < 1
        assert exc.value.code == 2
        assert_one_line_usage_error(capsys)

    def test_n_too_small(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["diameter", "-n", "2"])
        assert exc.value.code == 2
        assert_one_line_usage_error(capsys)


class TestAntipode:
    def test_reverse(self, capsys):
        code, out, _ = run(
            capsys, "antipode", "-n", "3", "--rep", "0,0,0,0"
        )
        assert code == 0
        assert out == "1,1,1,2\n"

    def test_rotate(self, capsys):
        code, out, _ = run(
            capsys, "antipode", "-n", "4", "--rep", "0,0,0,0,0", "--kind", "rotate"
        )
        assert code == 0
        assert out == "0,0,0,0,4\n"

    def test_rotate_odd_n_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["antipode", "-n", "3", "--rep", "0,0,0,0", "--kind", "rotate"])
        assert exc.value.code == 2
        assert_one_line_usage_error(capsys)


class TestGraph:
    def test_json_export(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        code, out, _ = run(
            capsys, "graph", "-n", "3", "--format", "json", "-o", str(path)
        )
        assert code == 0
        assert "56 vertices" in out
        doc = json.loads(path.read_text())
        assert doc["n"] == 3
        assert len(doc["vertices"]) == 56

    def test_dot_export(self, capsys, tmp_path):
        path = tmp_path / "g.dot"
        code, _, _ = run(
            capsys, "graph", "-n", "2", "--format", "dot", "-o", str(path)
        )
        assert code == 0
        assert path.read_text().startswith("graph flipgraph_n2 {")

    def test_n12_json_export_streams_in_small_memory(self, tmp_path):
        # a fresh process reports its own peak RSS (KiB on Linux); built
        # whole as one document and string, this export peaked at 347 MiB
        path = tmp_path / "g.json"
        script = (
            "import resource, sys\n"
            "from tftflip.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
            "sys.exit(code)\n"
        )
        src = str(Path(tftflip.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        argv = ["graph", "-n", "12", "--format", "json", "-o", str(path)]
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True, text=True, env=env, check=True,
        )
        assert int(proc.stdout.split()[-1]) < 64 * 1024
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "69f3a9a4418ec17de37ba664e7efc7ed4c0ba1d21a561dac2ab6a8438a7d3390"


class TestVerify:
    def test_geometry_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "-n", "2", "--suite", "geometry")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert lines
        assert all(" ok " in l or " finding " in l or " skip " in l for l in lines)

    def test_all_suites_small_n(self, capsys):
        code, out, _ = run(capsys, "verify", "-n", "3", "--suite", "lattice")
        assert code == 0
        assert "FAIL" not in out

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_golden_output(self, capsys, monkeypatch, n):
        # recorded from `tft verify -n <n>` before the oracles were sped up
        monkeypatch.setenv("TFT_COLOR", "0")
        code, out, _ = run(capsys, "verify", "-n", str(n))
        assert code == 0
        golden = Path(__file__).with_name("data") / f"verify_n{n}.txt"
        assert out.encode() == golden.read_bytes()


class TestRender:
    def test_writes_svg(self, capsys, tmp_path):
        path = tmp_path / "t.svg"
        code, out, _ = run(
            capsys, "render", "-n", "3", "--phi", "0:000", "-o", str(path)
        )
        assert code == 0
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<line") == 4

    def test_bad_phi(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["render", "-n", "3", "--phi", "9:000", "-o", "/tmp/x.svg"])
        assert exc.value.code == 2
        assert_one_line_usage_error(capsys)


class TestIOErrors:
    @pytest.mark.parametrize(
        "argv",
        [("graph", "-n", "3"), ("render", "-n", "3", "--phi", "0:000")],
        ids=["graph", "render"],
    )
    def test_unwritable_output(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "out"
        code, out, err = run(capsys, *argv, "-o", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestUsage:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert_one_line_usage_error(capsys)

    def test_missing_n(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count"])
        assert exc.value.code == 2
        assert_one_line_usage_error(capsys)
