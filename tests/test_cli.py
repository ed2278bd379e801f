"""Command-line behaviour: formats, determinism, exit codes, file output."""

import hashlib
import json
import math
from pathlib import Path

import pytest
from click.testing import CliRunner

from specamb.cli import main
from specamb.corpus import build
from specamb.distribution import dumps_json, dumps_tsv, loads_tsv


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args))


# Full ``kelly`` outputs captured before the race markets read the exact
# marginal layer; they pin the inverse-CDF row order, the message keys and
# every float of the trajectory.
GOLDEN = Path(__file__).parent / "golden"


# ``decompose --corpus and --format pretty --average``, captured before the
# pretty writer moved from the CLI into ``AtomTable.to_pretty``.
AND_PRETTY_AVERAGES = (
    "averages\n"
    "  node    atom            r+          r-         pi+         pi-          pi\n"
    "  {1}{2}  R                1    0.438722           1    0.438722    0.561278\n"
    "  {1}     U1               1    0.688722           0        0.25       -0.25\n"
    "  {2}     U2               1    0.688722           0        0.25       -0.25\n"
    "  {12}    C                2     1.18872           1        0.25        0.75\n"
    "\n"
    "total information: 0.811278 (base 2)\n"
)


class TestDecompose:
    def test_average_csv_golden(self, runner):
        result = invoke(runner, "decompose", "--corpus", "xor", "--average")
        assert result.exit_code == 0
        assert result.output == (
            "node,atom,r_plus,r_minus,pi_plus,pi_minus,pi\n"
            "{1}{2},R,1,1,1,1,0\n"
            "{1},U1,1,1,0,0,0\n"
            "{2},U2,1,1,0,0,0\n"
            "{12},C,2,1,1,0,1\n"
        )

    def test_matches_golden_hashes(self, runner):
        # SHA-256 of ``decompose --corpus NAME --format F`` for every
        # corpus entry in every format, captured before the sweep was
        # memoised by rank vector and the writers rendered each distinct
        # value once; CI checks the installed script against the same file.
        lines = (GOLDEN / "decompose.sha256").read_text().splitlines()
        assert len(lines) == 21
        for line in lines:
            digest, filename = line.split()
            name, fmt = filename.removeprefix("decompose-").split(".")
            result = invoke(runner, "decompose", "--corpus", name, "--format", fmt)
            assert result.exit_code == 0
            assert hashlib.sha256(result.output.encode()).hexdigest() == digest, filename

    def test_output_is_deterministic(self, runner):
        args = ("decompose", "--corpus", "and", "--format", "json")
        assert invoke(runner, *args).output == invoke(runner, *args).output

    def test_json_payload(self, runner):
        result = invoke(runner, "decompose", "--corpus", "unq", "--format", "json")
        payload = json.loads(result.output)
        assert payload["nodes"] == ["{1}{2}", "{1}", "{2}", "{12}"]
        assert payload["atom_names"]["{1}"] == "U1"
        assert payload["averages"]["{2}"]["pi"] == -1.0

    def test_json_pointwise_only_drops_averages(self, runner):
        result = invoke(
            runner, "decompose", "--corpus", "xor", "--format", "json", "--pointwise"
        )
        payload = json.loads(result.output)
        assert "averages" not in payload
        assert len(payload["pointwise"]) == 4

    def test_targets_option_recomposes(self, runner):
        result = invoke(
            runner, "decompose", "--corpus", "tbc",
            "--targets", "t1,t3", "--average",
        )
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[1].startswith("{1}{2},R,")

    def test_unknown_target_component_fails(self, runner):
        result = invoke(runner, "decompose", "--corpus", "tbc", "--targets", "bogus")
        assert result.exit_code == 2
        assert "error:" in result.output

    def test_pretty_mode_renders(self, runner):
        result = invoke(runner, "decompose", "--corpus", "xor", "--format", "pretty")
        assert result.exit_code == 0
        assert "total information: 1" in result.output

    def test_pretty_golden(self, runner):
        result = invoke(runner, "decompose", "--corpus", "and", "--format", "pretty")
        assert result.exit_code == 0
        header = "  node    atom            r+          r-         pi+         pi-          pi\n"
        assert result.output == (
            "realisation p=1/4  s1=0, s2=0  t=0\n" + header
            + "  {1}{2}  R                1    0.584963           1    0.584963    0.415037\n"
            "  {1}     U1               1    0.584963           0           0           0\n"
            "  {2}     U2               1    0.584963           0           0           0\n"
            "  {12}    C                2     1.58496           1           1           0\n"
            "\n"
            "realisation p=1/4  s1=0, s2=1  t=0\n" + header
            + "  {1}{2}  R                1    0.584963           1    0.584963    0.415037\n"
            "  {1}     U1               1    0.584963           0           0           0\n"
            "  {2}     U2               1     1.58496           0           1          -1\n"
            "  {12}    C                2     1.58496           1           0           1\n"
            "\n"
            "realisation p=1/4  s1=1, s2=0  t=0\n" + header
            + "  {1}{2}  R                1    0.584963           1    0.584963    0.415037\n"
            "  {1}     U1               1     1.58496           0           1          -1\n"
            "  {2}     U2               1    0.584963           0           0           0\n"
            "  {12}    C                2     1.58496           1           0           1\n"
            "\n"
            "realisation p=1/4  s1=1, s2=1  t=1\n" + header
            + "  {1}{2}  R                1           0           1           0           1\n"
            "  {1}     U1               1           0           0           0           0\n"
            "  {2}     U2               1           0           0           0           0\n"
            "  {12}    C                2           0           1           0           1\n"
            "\n" + AND_PRETTY_AVERAGES
        )

    def test_pretty_average_golden(self, runner):
        result = invoke(
            runner, "decompose", "--corpus", "and", "--format", "pretty", "--average"
        )
        assert result.exit_code == 0
        assert result.output == AND_PRETTY_AVERAGES

    def test_epsilon_flows_into_corpus(self, runner):
        half = invoke(
            runner, "decompose", "--corpus", "rdnerr",
            "--epsilon", "1/2", "--average",
        )
        assert half.exit_code == 0
        row = half.output.strip().split("\n")[-1]
        assert row.startswith("{12},C,") and row.endswith(",1")

    def test_bad_epsilon_fails(self, runner):
        result = invoke(
            runner, "decompose", "--corpus", "rdnerr", "--epsilon", "7/4"
        )
        assert result.exit_code == 2

    def test_out_writes_file(self, runner, tmp_path):
        path = tmp_path / "table.csv"
        result = invoke(
            runner, "decompose", "--corpus", "xor", "--average", "--out", str(path)
        )
        assert result.exit_code == 0
        assert result.output == ""
        assert path.read_text().startswith("node,atom,")


class TestInputHandling:
    def test_both_sources_rejected(self, runner, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text(dumps_tsv(build("xor")))
        result = invoke(
            runner, "decompose", "--corpus", "xor", "--input", str(path)
        )
        assert result.exit_code == 2
        assert "exactly one" in result.output

    def test_neither_source_rejected(self, runner):
        result = invoke(runner, "decompose")
        assert result.exit_code == 2

    def test_missing_file(self, runner):
        result = invoke(runner, "decompose", "--input", "/nonexistent/d.tsv")
        assert result.exit_code == 2

    def test_tsv_file_round_trip(self, runner, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text(dumps_tsv(build("and")))
        from_file = invoke(runner, "decompose", "--input", str(path), "--average")
        from_corpus = invoke(runner, "decompose", "--corpus", "and", "--average")
        assert from_file.output == from_corpus.output

    def test_json_file_keeps_component_names(self, runner, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(dumps_json(build("tbc")))
        result = invoke(
            runner, "decompose", "--input", str(path),
            "--targets", "t1,t3", "--average",
        )
        assert result.exit_code == 0


class TestLattice:
    def test_pretty_counts_nodes(self, runner):
        result = invoke(runner, "lattice", "3")
        assert result.exit_code == 0
        assert result.output.startswith("18 nodes for n=3 (bottom first)")

    def test_json_count_for_four(self, runner):
        result = invoke(runner, "lattice", "4", "--format", "json")
        payload = json.loads(result.output)
        assert payload["count"] == 166
        assert payload["nodes"][0] == "{1}{2}{3}{4}"
        assert payload["lower_covers"]["{1}{2}{3}{4}"] == []

    def test_csv_lists_covers(self, runner):
        result = invoke(runner, "lattice", "2", "--format", "csv")
        assert result.output == (
            "node,lower_covers\n"
            "{1}{2},\n"
            '{1},"{1}{2}"\n'
            '{2},"{1}{2}"\n'
            '{12},"{1};{2}"\n'
        )

    def test_cap_guard(self, runner):
        result = invoke(runner, "lattice", "5")
        assert result.exit_code == 2
        ok = invoke(runner, "lattice", "5", "--lattice-cap", "5")
        assert ok.exit_code == 0
        assert ok.output.startswith("7579 nodes")

    def test_matches_golden_hashes(self, runner):
        # SHA-256 of ``specamb lattice N --format F --lattice-cap 5`` for
        # N = 1..5 in every format, captured from the set-keyed lattice
        # build that preceded the integer build; CI checks the installed
        # script against the same file with ``sha256sum -c``.
        lines = (GOLDEN / "lattice.sha256").read_text().splitlines()
        assert len(lines) == 15
        for line in lines:
            digest, filename = line.split()
            n, fmt = filename.removeprefix("lattice-").split(".")
            result = invoke(runner, "lattice", n, "--format", fmt, "--lattice-cap", "5")
            assert result.exit_code == 0
            assert hashlib.sha256(result.output.encode()).hexdigest() == digest, filename

    def test_ceiling_holds_whatever_the_cap(self, runner):
        result = invoke(runner, "lattice", "6", "--lattice-cap", "6")
        assert result.exit_code == 2
        assert "7,828,352 nodes" in result.output

    def test_six_predictor_decompose_is_refused(self, runner, tmp_path):
        path = tmp_path / "six.tsv"
        header = "#p\t" + "\t".join(f"s{i}" for i in range(1, 7)) + "\tt\n"
        path.write_text(header + "1/2\t0\t0\t0\t0\t0\t0\t0\n1/2\t1\t1\t1\t1\t1\t1\t1\n")
        result = invoke(runner, "decompose", "--input", str(path), "--lattice-cap", "6")
        assert result.exit_code == 2
        assert "7,828,352 nodes" in result.output


class TestChainRule:
    def test_composite_parity_passes(self, runner):
        result = invoke(runner, "chainrule", "--corpus", "tbc")
        assert result.exit_code == 0
        assert "pass: worst residual 0" in result.output

    def test_explicit_order_csv(self, runner):
        result = invoke(
            runner, "chainrule", "--corpus", "tbc",
            "--targets", "t2,t3", "--format", "csv",
        )
        assert result.output == (
            "order,max_abs_residual\n"
            "t2;t3,0\n"
            "t3;t2,0\n"
        )

    def test_scalar_target_fails_fast(self, runner):
        result = invoke(runner, "chainrule", "--corpus", "xor")
        assert result.exit_code == 2
        assert "composite" in result.output


class TestCorpus:
    def test_tsv_round_trips_through_loader(self, runner):
        result = invoke(runner, "corpus", "pwunq")
        assert result.exit_code == 0
        assert loads_tsv(result.output) == build("pwunq")

    def test_json_format(self, runner):
        result = invoke(runner, "corpus", "tbc", "--format", "json")
        payload = json.loads(result.output)
        assert payload["schema"]["target_components"] == ["t1", "t2", "t3"]

    def test_epsilon_option(self, runner):
        result = invoke(runner, "corpus", "rdnerr", "--epsilon", "0")
        assert result.exit_code == 0
        assert len(result.output.strip().split("\n")) == 1 + 2

    def test_unknown_name_rejected_by_click(self, runner):
        result = invoke(runner, "corpus", "nonesuch")
        assert result.exit_code == 2


class TestKelly:
    def test_payload_keys_and_values(self, runner):
        result = invoke(
            runner, "kelly", "--corpus", "tbc", "--wire", "s1",
            "--races", "100", "--seed", "3",
        )
        payload = json.loads(result.output)
        assert payload["baseline_rate"] == 0.0
        assert payload["analytic_rate"] == 1.0
        assert payload["side_information_value"] == 1.0
        assert payload["trajectory_summary"]["final_log_wealth"] == 100.0

    def test_deterministic_output(self, runner):
        args = ("kelly", "--corpus", "rdnerr", "--wire", "s2",
                "--races", "200", "--seed", "9")
        assert invoke(runner, *args).output == invoke(runner, *args).output

    def test_seed_changes_trajectory(self, runner):
        base = ("kelly", "--corpus", "rdnerr", "--wire", "s2", "--races", "200")
        first = json.loads(invoke(runner, *base, "--seed", "1").output)
        second = json.loads(invoke(runner, *base, "--seed", "2").output)
        assert (
            first["trajectory_summary"]["final_log_wealth"]
            != second["trajectory_summary"]["final_log_wealth"]
        )

    def test_bad_wire_name(self, runner):
        result = invoke(runner, "kelly", "--corpus", "xor", "--wire", "s9")
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "golden, args",
        [
            ("kelly_rdnerr_s2.json", ("--corpus", "rdnerr", "--wire", "s2",
                                      "--races", "200", "--seed", "9")),
            # The wire lists the predictors out of their declared order.
            ("kelly_tbc_s2_s1.json", ("--corpus", "tbc", "--wire", "s2,s1",
                                      "--races", "100", "--seed", "3")),
        ],
    )
    def test_golden_output(self, runner, golden, args):
        result = invoke(runner, "kelly", *args)
        assert result.exit_code == 0
        assert result.output == (GOLDEN / golden).read_text()


class TestVerify:
    def test_passes_on_corpus(self, runner):
        result = invoke(runner, "verify", "--corpus", "tbc")
        assert result.exit_code == 0
        assert "15/15 checks passed" in result.output
        assert "FAIL" not in result.output

    def test_impossible_tolerance_exits_one(self, runner):
        result = invoke(runner, "verify", "--corpus", "and", "--tol", "1e-20")
        assert result.exit_code == 1
        assert "FAIL" in result.output

    def test_json_format(self, runner):
        result = invoke(
            runner, "verify", "--corpus", "xor", "--format", "json"
        )
        payload = json.loads(result.output)
        assert payload["ok"] is True
        assert all(check["ok"] for check in payload["checks"])


class TestBadBase:
    @pytest.mark.parametrize("command", ["decompose", "verify"])
    @pytest.mark.parametrize("base", ["1", "0", "-2", "nan", "inf"])
    def test_invalid_base_exits_two(self, runner, command, base):
        result = invoke(runner, command, "--corpus", "and", "--base", base)
        assert result.exit_code == 2
        assert "error: log base" in result.output
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)


class TestBadTolerance:
    @pytest.mark.parametrize("command", ["verify", "chainrule"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9"])
    def test_invalid_tolerance_exits_two(self, runner, command, tol):
        result = invoke(runner, command, "--corpus", "tbc", "--tol", tol)
        assert result.exit_code == 2
        assert "error: tolerance" in result.output
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)


class TestBadInputFile:
    # Malformed input is bad input on every command: exit 2, no traceback.
    FILES = {
        "total-beyond-float-range.tsv": "1e309\t0\t0\n",
        "total-beyond-float-range.json": '{"mass": [{"outcome": ["0", "0"], "p": 1e400}]}',
        "target-not-a-string.json": (
            '{"schema": {"target": 5}, "mass": [{"outcome": ["0", "0"], "p": "1"}]}'
        ),
        "predictor-not-a-string.json": (
            '{"schema": {"predictors": [1]}, "mass": [{"outcome": ["0", "0"], "p": "1"}]}'
        ),
        "components-not-a-list.json": (
            '{"schema": {"target_components": "ab"},'
            ' "mass": [{"outcome": ["0", "0,1"], "p": "1"}]}'
        ),
        "mass-is-a-boolean.json": '{"mass": [{"outcome": ["0", "0"], "p": true}]}',
        "label-is-null.json": '{"mass": [{"outcome": [null, "0"], "p": "1"}]}',
        "label-is-an-object.json": '{"mass": [{"outcome": ["0", {"a": 1}], "p": "1"}]}',
        "empty-label.tsv": "1/2\t\t0\n1/2\t1\t1\n",
    }

    @pytest.mark.parametrize("command", ["decompose", "verify", "kelly"])
    @pytest.mark.parametrize("name", sorted(FILES))
    def test_exits_two(self, runner, tmp_path, command, name):
        path = tmp_path / name
        path.write_text(self.FILES[name])
        result = invoke(runner, command, "--input", str(path))
        assert result.exit_code == 2
        assert "error: " in result.output
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)


class TestUnwritableOut:
    # Writing the artifact is the last step of every command; a path that
    # cannot be opened is bad input, so it exits 2 like any other.
    COMMANDS = {
        "decompose": ("decompose", "--corpus", "and"),
        "lattice": ("lattice", "2"),
        "chainrule": ("chainrule", "--corpus", "tbc"),
        "corpus": ("corpus", "and"),
        "kelly": ("kelly", "--corpus", "and", "--races", "10"),
        "verify": ("verify", "--corpus", "and"),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("where", ["missing-parent", "directory"])
    def test_unwritable_out_exits_two(self, runner, tmp_path, command, where):
        out = tmp_path / "absent" / "x.out" if where == "missing-parent" else tmp_path
        result = invoke(runner, *self.COMMANDS[command], "--out", str(out))
        assert result.exit_code == 2
        errors = [line for line in result.output.splitlines() if line.startswith("error:")]
        assert errors == [line for line in result.output.splitlines() if line]
        assert len(errors) == 1 and f"cannot write {out}" in errors[0]
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)


class TestDecimalNormalisation:
    # Ingestion accepts a decimal total within 1e-9 of one; every route
    # must then divide by the same total.
    TABLE = (
        "#p\ts1\ts2\tt\n"
        "0.2499999991\t0\t0\t0\n"
        "0.25\t0\t1\t0\n"
        "0.25\t1\t0\t0\n"
        "0.25\t1\t1\t1\n"
    )

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "and.tsv"
        path.write_text(self.TABLE)
        return str(path)

    def test_verify_passes(self, runner, path):
        result = invoke(runner, "verify", "--input", path, "--format", "json")
        assert result.exit_code == 0
        assert all(check["ok"] for check in json.loads(result.output)["checks"])

    def test_kelly_runs(self, runner, path):
        result = invoke(runner, "kelly", "--input", path, "--races", "50")
        assert result.exit_code == 0
        assert json.loads(result.output)["side_information_value"] > 0

    def test_kelly_golden_output(self, runner, path):
        result = invoke(
            runner, "kelly", "--input", path, "--wire", "s2,s1", "--races", "40", "--seed", "5"
        )
        assert result.exit_code == 0
        assert result.output == (GOLDEN / "kelly_decimal_s2_s1.json").read_text()


class TestTinyMass:
    # 1/10**400 rounds to 0.0 as a float, so its logarithm needs the exact parts.
    @pytest.fixture
    def path(self, tmp_path):
        n = 10**400
        path = tmp_path / "tiny.tsv"
        path.write_text(f"#p\ts1\tt\n1/{n}\t0\t0\n{n - 1}/{n}\t1\t1\n")
        return str(path)

    def test_decompose_runs(self, runner, path):
        result = invoke(runner, "decompose", "--input", path, "--format", "json")
        assert result.exit_code == 0
        assert "Traceback" not in result.output
        payload = json.loads(result.output)
        values = [
            value
            for entry in payload["pointwise"]
            for row in entry["atoms"].values()
            for value in row.values()
        ]
        assert all(math.isfinite(value) for value in values)
        assert max(values) > 1300

    def test_verify_passes(self, runner, path):
        result = invoke(runner, "verify", "--input", path, "--format", "json")
        assert result.exit_code == 0
        assert "Traceback" not in result.output
        checks = json.loads(result.output)["checks"]
        assert checks and all(check["ok"] for check in checks)
        assert all(math.isfinite(check["worst"]) for check in checks)

    def test_kelly_runs(self, runner, path):
        # The fair odds on the tiny target event are 10**400 to one.
        result = invoke(runner, "kelly", "--input", path, "--races", "10")
        assert result.exit_code == 0
        assert "Traceback" not in result.output
        assert math.isfinite(json.loads(result.output)["analytic_rate"])


class TestVersion:
    def test_version_flag(self, runner):
        result = invoke(runner, "--version")
        assert result.exit_code == 0
        assert "0.1.0" in result.output
