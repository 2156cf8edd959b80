import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tftflip
from tftflip import cli
from tftflip.checks import SUITES
from tftflip.cli import build_parser, main
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


def child_peak(body, *argv):
    """Runs ``body``, which sets the exit status ``code``, in a fresh
    process with ``argv``; returns its peak RSS in KiB.  Linux keeps
    ru_maxrss across execve, where it would report the pytest parent's
    peak, so VmHWM is read first."""
    script = (
        "import resource, sys\n"
        f"{body}"
        "try:\n"
        "    with open('/proc/self/status') as fh:\n"
        "        peak = next(l.split()[1] for l in fh if l.startswith('VmHWM:'))\n"
        "except OSError:\n"
        "    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(peak)\n"
        "sys.exit(code)\n"
    )
    src = str(Path(tftflip.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    return int(proc.stdout.split()[-1])


def n12_export(tmp_path, fmt):
    """Runs ``tft graph -n 12`` in a fresh process; returns its peak RSS
    in KiB and the SHA-256 of the file."""
    path = tmp_path / f"g.{fmt}"
    body = "from tftflip.cli import main\ncode = main(sys.argv[1:])\n"
    peak = child_peak(body, "graph", "-n", "12", "--format", fmt, "-o", str(path))
    return peak, hashlib.sha256(path.read_bytes()).hexdigest()


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

    def test_disagreement_fails_with_one_line(self, capsys, monkeypatch):
        monkeypatch.setattr(tftflip.flipgraph, "distance_formula", lambda r, s, n: 99)
        code, out, err = run(
            capsys, "distance", "-n", "3",
            "--from", "0,0,0,0", "--to", "1,1,1,2",
        )
        assert (code, out) == (1, "")
        assert err == "error: formula 99 != bfs 14 for 0,0,0,0 -> 1,1,1,2\n"

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
        "method, n, answer, budget",
        [("formula-scan", 11, 90, 1), ("bfs", 10, 77, 8)],
    )
    def test_verify_cost(self, capsys, method, n, answer, budget):
        # a formula call per difference class or a BFS per orbit source
        # would take about 8 s and 20 s here
        start = time.perf_counter()
        code, out, _ = run(capsys, "diameter", "-n", str(n), "--verify", method)
        assert time.perf_counter() - start < budget
        assert code == 0
        assert out == f"{answer} verified\n"

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
        # built whole as one document and string, it peaked at 347 MiB
        peak, digest = n12_export(tmp_path, "json")
        assert peak < 64 * 1024
        assert digest == "69f3a9a4418ec17de37ba664e7efc7ed4c0ba1d21a561dac2ab6a8438a7d3390"

    def test_n12_dot_export_streams_in_small_memory(self, tmp_path):
        # built whole it peaked at 130 MiB, and with one label per
        # vertex at 26 MiB
        peak, digest = n12_export(tmp_path, "dot")
        assert peak < 64 * 1024
        assert digest == "2c38da44c73cb1d99f36cc11b7eba4c5fabbb6bc38fb8cac9f23ebf4c6cea2eb"


class TestVerify:
    def test_n10_counting_shares_its_chords(self):
        # 14,336 triangulations with private chords peaked at 60 MiB; on
        # the 77 shared chords of the 14-gon they take 26 MiB
        body = (
            "from tftflip.checks import check_counting\n"
            "code = 0 if check_counting(10)[0] else 1\n"
        )
        assert child_peak(body) < 40 * 1024

    def test_n11_counting_keys_each_chord_set_by_an_int(self):
        # a frozenset of chords per triangulation peaked at 40 MiB; one
        # int bit per chord leaves the enumeration's 36 MiB
        body = (
            "from tftflip.checks import check_counting\n"
            "code = 0 if check_counting(11)[0] else 1\n"
        )
        assert child_peak(body) < 38 * 1024

    def test_n12_rep_phi_correspondence_holds_one_fiber_at_a_time(self):
        # slicing fibers out of all reps and keeping a set of every phi
        # vector peaked at 48 MiB; built from head bits, one fiber at a
        # time, it takes 22 MiB
        body = (
            "from tftflip.checks import check_rep_phi_correspondence\n"
            "code = 0 if check_rep_phi_correspondence(12)[0] else 1\n"
        )
        assert child_peak(body) < 32 * 1024

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
    def test_golden_output(self, capsys, n):
        # recorded with
        # `PYTHONPATH=src python -m tftflip.cli verify -n K > tests/data/verify_nK.txt`
        code, out, _ = run(capsys, "verify", "-n", str(n))
        assert code == 0
        golden = Path(__file__).with_name("data") / f"verify_n{n}.txt"
        assert out.encode() == golden.read_bytes()

    def test_caps_are_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "-n", "3", "--max-n", "7"])
        assert exc.value.code == 2
        assert_one_line_usage_error(capsys)

    def test_above_every_cap_skips_at_once(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "verify", "-n", "40")
        assert time.perf_counter() - start < 1
        assert code == 0
        rows = out.splitlines()
        assert len(rows) == len(SUITES) == 27
        assert all(row.split()[1] == "skip" for row in rows)


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

    @pytest.mark.parametrize(
        "argv, floor",
        [
            pytest.param(argv, floor, id=argv[0])
            for argv, floor in [
                (("count",), 1),
                (("graph", "-o", "g.json"), 2),
                (("distance", "--from", "0,0", "--to", "0,0"), 2),
                (("diameter",), 3),
                (("antipode", "--rep", "0,0,0"), 3),
                (("verify",), 2),
                (("render", "--phi", "0:0", "-o", "t.svg"), 1),
            ]
        ],
    )
    def test_n_too_small(self, capsys, argv, floor):
        # nothing runs, so no output file is written
        with pytest.raises(SystemExit) as exc:
            main([*argv, "-n", str(floor - 1)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"tft: error: {argv[0]} requires -n >= {floor}\n"


FULL_HELP = """\
usage: tft [-h] {count,graph,distance,diameter,antipode,verify,render} ...

Colored triangle-free triangulations and their flip graph.

positional arguments:
  {count,graph,distance,diameter,antipode,verify,render}
    count               count triangulations
    graph               export the flip graph
    distance            flip distance between representatives
    diameter            diameter of the flip graph
    antipode            vertex at maximal distance
    verify              run the invariant suites
    render              render a triangulation as SVG

options:
  -h, --help            show this help message and exit
"""


class TestParsers:
    """``main`` builds only the subparser its first argument names; that
    parser must say what the parser of all seven says."""

    REQUIRED = {
        "count": (),
        "graph": ("-o", "g.json"),
        "distance": ("--from", "0,0", "--to", "0,0"),
        "diameter": (),
        "antipode": ("--rep", "0,0,0"),
        "verify": (),
        "render": ("--phi", "0:0", "-o", "t.svg"),
    }
    CHOICES = {
        "graph": "--format",
        "distance": "--method",
        "diameter": "--verify",
        "antipode": "--kind",
        "verify": "--suite",
    }

    @staticmethod
    def outcome(capsys, parser, argv):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        out, err = capsys.readouterr()
        return exc.value.code, out, err

    @pytest.mark.parametrize("name", [row[0] for row in cli._SUBCOMMANDS])
    def test_one_subparser_says_what_all_seven_say(self, capsys, monkeypatch, name):
        monkeypatch.setenv("COLUMNS", "80")
        required = [name, "-n", "3", *self.REQUIRED[name]]
        cases = {
            "help": ([name, "-h"], 0),
            "missing -n": ([name, *self.REQUIRED[name]], 2),
            "bad -n": ([name, "-n", "x", *self.REQUIRED[name]], 2),
            "extra token": ([*required, "extra"], 2),
        }
        if name in self.CHOICES:
            cases["bad choice"] = ([*required, self.CHOICES[name], "bogus"], 2)
        for case, (argv, code) in cases.items():
            one = self.outcome(capsys, build_parser(name), argv)
            assert one == self.outcome(capsys, build_parser(), argv), case
            assert one[0] == code and (one[1] if code == 0 else one[2]), case

    @pytest.mark.parametrize(
        "argv, expected",
        [
            ((), (2, "", "tft: error: the following arguments are required: command\n")),
            (("-h",), (0, FULL_HELP, "")),
            (
                ("bogus",),
                (2, "", "tft: error: argument command: invalid choice: 'bogus' (choose from "
                 "'count', 'graph', 'distance', 'diameter', 'antipode', 'verify', 'render')\n"),
            ),
        ],
        ids=["none", "help", "unknown"],
    )
    def test_without_a_subcommand_every_subparser_is_built(
        self, capsys, monkeypatch, argv, expected
    ):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert (exc.value.code, *capsys.readouterr()) == expected

    def test_a_subcommand_builds_its_own_parser_only(self, capsys, monkeypatch):
        built = []
        init = cli._Parser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting)
        assert main(["count", "-n", "3"]) == 0
        assert built == ["tft", "tft count"]
        # no parser is kept between calls
        assert main(["count", "-n", "3"]) == 0
        assert built == ["tft", "tft count"] * 2
        assert capsys.readouterr().out == "CTFT=56 TFT=28\n" * 2

    def test_module_entry_point_reads_sys_argv(self):
        src = str(Path(tftflip.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "tftflip.cli", "count", "-n", "3"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "CTFT=56 TFT=28\n", "")
