import json

import pytest

from tftflip.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_n3(self, capsys):
        code, out, _ = run(capsys, "count", "-n", "3")
        assert code == 0
        assert out == "CTFT=56 TFT=28\n"

    def test_n1(self, capsys):
        code, out, _ = run(capsys, "count", "-n", "1")
        assert code == 0
        assert out == "CTFT=10 TFT=5\n"


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

    def test_malformed_rep_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["distance", "-n", "3", "--from", "2,0,0,0", "--to", "0,0,0,0"])
        assert exc.value.code == 2


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

    def test_n_too_small(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["diameter", "-n", "2"])
        assert exc.value.code == 2


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
    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_missing_n(self):
        with pytest.raises(SystemExit) as exc:
            main(["count"])
        assert exc.value.code == 2
