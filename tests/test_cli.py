"""The command-line front end: output shapes, exit codes, determinism, and
the thread-count environment knob."""

import json

import pytest

import dedekind.cli as cli_module
import dedekind.partition as partition_module
from dedekind.cli import main
from dedekind.poset import Subposet


@pytest.fixture(autouse=True)
def clean_thread_env(monkeypatch):
    monkeypatch.delenv("DEDEKIND_THREADS", raising=False)


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_poset(tmp_path, name: str, S: Subposet) -> str:
    path = tmp_path / name
    path.write_text(S.to_text())
    return str(path)


def stripped(report: dict) -> dict:
    return {k: v for k, v in report.items()
            if k not in ("elapsed_ms", "cache", "threads")}


class TestCount:
    def test_cube_three(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "3")
        assert code == 0
        assert out == "20\n"

    def test_single_point_cube(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "0")
        assert code == 0
        assert out == "2\n"

    def test_poset_file_chain(self, capsys, tmp_path):
        chain4 = Subposet(3, (0, 1, 3, 7))
        path = write_poset(tmp_path, "chain4.txt", chain4)
        code, out, _ = run(capsys, "count", "--poset", path)
        assert code == 0
        assert out == "5\n"

    def test_json_report_round_trips(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "4", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "count"
        assert report["n"] == 4
        assert report["result"] == "168"
        assert int(report["result"]) == 168
        assert report["threads"] == 1
        assert set(report["cache"]) == {"hits", "misses"}
        assert isinstance(report["elapsed_ms"], int)
        assert isinstance(report["input_digest"], str)

    def test_layer_strategy(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "3", "--strategy", "layer")
        assert code == 0
        assert out == "20\n"

    def test_layer_strategy_leaves_the_memo_table_unused(self, capsys):
        # the layer count is the residual-size polynomial at 2: no residual
        # is counted by the engine, so the cache echo reads 0/0
        code, out, _ = run(
            capsys, "count", "--n", "4", "--strategy", "layer", "--format", "json"
        )
        report = json.loads(out)
        assert code == 0
        assert report["result"] == "168"
        assert report["cache"] == {"hits": 0, "misses": 0}

    def test_layer_strategy_needs_full_cube(self, capsys, tmp_path):
        path = write_poset(tmp_path, "notcube.txt", Subposet(2, (0, 1)))
        code, _, err = run(capsys, "count", "--poset", path, "--strategy", "layer")
        assert code == 2
        assert "error:" in err

    def test_input_errors(self, capsys, tmp_path):
        assert run(capsys, "count", "--n", "-3")[0] == 2
        assert run(capsys, "count", "--poset", str(tmp_path / "absent.txt"))[0] == 2
        assert run(capsys, "count", "--n", "2", "--poset", "x.txt")[0] == 2
        assert run(capsys, "count")[0] == 2
        code, _, err = run(capsys, "count", "--n", "13")
        assert code == 2
        assert "[0, 12]" in err
        path = tmp_path / "e13.txt"
        path.write_text("n=13\n" + "0" * 13 + "\n" + "1" * 13 + "\n")
        code, _, err = run(capsys, "count", "--poset", str(path))
        assert code == 2
        assert "[0, 12]" in err

    def test_top_dimension_chain(self, capsys, tmp_path):
        # E^12 is the top of the input range and above the canonical-key
        # dimension, so the engine keys this residual literally
        path = write_poset(tmp_path, "chain12.txt", Subposet(12, (0, (1 << 12) - 1)))
        code, out, _ = run(capsys, "count", "--poset", path)
        assert code == 0
        assert out == "3\n"

    def test_malformed_poset_file(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("n=2\n01\n012\n")
        code, _, err = run(capsys, "count", "--poset", str(path))
        assert code == 2
        assert "error:" in err

    def test_node_budget_exit(self, capsys):
        code, _, err = run(capsys, "count", "--n", "4", "--max-nodes", "10")
        assert code == 3
        assert "budget exceeded" in err

    def test_time_budget_exit(self, capsys):
        code, _, err = run(capsys, "count", "--n", "4", "--budget-seconds", "0")
        assert code == 3
        assert "budget exceeded" in err

    @pytest.mark.parametrize("budget", [
        ("--max-nodes", "-1"),
        ("--budget-seconds", "-1"),
        ("--budget-seconds", "nan"),
    ])
    def test_bad_budget_is_input_error(self, capsys, budget):
        for n in ("3", "0"):
            code, _, err = run(capsys, "count", "--n", n, *budget)
            assert code == 2
            assert "must be >= 0" in err

    def test_no_cache_same_answer(self, capsys):
        assert run(capsys, "count", "--n", "4", "--no-cache")[1] == "168\n"


class TestVerify:
    def test_corollary_split_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "corollary", "--n", "4")
        assert code == 0
        assert "16/16 checks passed" in out
        assert "= 168" in out

    def test_layer_subset_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "lemma3", "--n", "5")
        assert code == 0
        assert "2/2 checks passed" in out
        assert "size=16" in out

    def test_partition_identity_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "1", "--n", "3",
                           "--samples", "50", "--seed", "7")
        assert code == 0
        assert "50/50 checks passed" in out

    def test_equivalence_experiment(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "2", "--n", "3")
        assert code == 0
        assert "256/256" in out
        assert "fully agreeing mode(s): ambient" in out
        assert "package default: ambient" in out

    def test_mirror_construction_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "3", "--n", "4")
        assert code == 0
        assert "8/8 checks passed" in out

    def test_size_law_clean_in_dimension_four(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "lemma2", "--n", "4")
        assert code == 0
        assert "0 size-law violations" in out

    def test_size_law_finds_genuine_counterexamples(self, capsys):
        # the exhaustive sweep at n=3 hits the six complete pivots that sit
        # at the bound while containing a V: a real failure, reported as one
        code, out, _ = run(capsys, "verify", "--theorem", "lemma2", "--n", "3")
        assert code == 1
        assert "6 size-law violations" in out

    def test_decomposition_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "4", "--n", "3")
        assert code == 0
        assert "2/2 checks passed" in out

    def test_dimension_caps(self, capsys):
        assert run(capsys, "verify", "--theorem", "1", "--n", "6")[0] == 2
        assert run(capsys, "verify", "--theorem", "2", "--n", "4")[0] == 2
        assert run(capsys, "verify", "--theorem", "lemma3", "--n", "8")[0] == 2
        assert run(capsys, "verify", "--theorem", "1", "--n", "0")[0] == 2
        assert run(capsys, "verify", "--theorem", "4", "--n", "1")[0] == 2

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_samples_must_be_positive(self, capsys, samples):
        # no suite may pass on zero checks
        code, out, err = run(capsys, "verify", "--theorem", "1", "--n", "3",
                             "--samples", samples)
        assert code == 2
        assert out == ""
        assert "--samples must be >= 1" in err

    def test_json_report_shape(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "corollary", "--n", "3",
                           "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["theorem"] == "corollary"
        assert report["result"] == {"checks": 8, "passed": 8}
        assert report["witnesses"] == []
        assert report["seed"] == 20260819


class TestDecompose:
    def test_square_text(self, capsys):
        code, out, _ = run(capsys, "decompose", "--n", "2", "--format", "text")
        assert code == 0
        assert out == "2*2^0 + 1*2^2 = 6\n"

    def test_three_cube_json(self, capsys):
        code, out, _ = run(capsys, "decompose", "--n", "3", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["polynomial"] == {"0": "4", "1": "4", "3": "1"}
        assert report["result"] == "20"
        assert report["parity"] == "even"
        total = sum(int(c) << int(j) for j, c in report["polynomial"].items())
        assert total == 20

    def test_four_cube_value(self, capsys):
        code, out, _ = run(capsys, "decompose", "--n", "4")
        assert code == 0
        assert out.strip().endswith("= 168")

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "decompose", "--n", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["exponent,coefficient", "0,2", "2,1", "value,6"]

    def test_odd_parity(self, capsys):
        code, out, _ = run(capsys, "decompose", "--n", "3", "--parity", "odd")
        assert code == 0
        assert out.strip().endswith("= 20")

    def test_dimension_range(self, capsys):
        assert run(capsys, "decompose", "--n", "7")[0] == 2
        assert run(capsys, "decompose", "--n", "1")[0] == 2

    def test_budget_exit(self, capsys):
        code, _, err = run(capsys, "decompose", "--n", "3", "--max-nodes", "1")
        assert code == 3
        assert "budget exceeded" in err

    @pytest.mark.parametrize("budget", [
        ("--max-nodes", "-1"),
        ("--budget-seconds", "-1"),
        ("--budget-seconds", "nan"),
    ])
    def test_bad_budget_is_input_error(self, capsys, budget):
        code, _, err = run(capsys, "decompose", "--n", "3", *budget)
        assert code == 2
        assert "must be >= 0" in err

    def test_non_antichain_residual_reported(self, capsys, monkeypatch):
        # force a non-layer pivot through the whole stack: the walk must
        # catch the comparable residual pair and surface it as exit 4
        monkeypatch.setattr(
            partition_module, "construct_layer_subset", lambda n, p: Subposet(2, (2,))
        )
        code, _, err = run(capsys, "decompose", "--n", "2")
        assert code == 4
        assert err.startswith("FALSIFIED:")
        assert "not an antichain" in err


class TestCheckComplete:
    def test_even_layer_of_four_cube(self, capsys, tmp_path):
        from dedekind.partition import construct_layer_subset

        path = write_poset(tmp_path, "even4.txt", construct_layer_subset(4, "even"))
        code, out, _ = run(capsys, "check-complete", "--subset", path)
        assert code == 0
        assert "subset of E^4, size 8" in out
        assert "complete (ambient covers): yes" in out
        assert "classification: minimal" in out

    def test_empty_subset_of_square(self, capsys, tmp_path):
        path = tmp_path / "empty2.txt"
        path.write_text("n=2\n")
        code, out, _ = run(capsys, "check-complete", "--subset", str(path))
        assert code == 0
        assert "complete (ambient covers): no" in out
        assert "apex 00" in out
        assert "classification: not_complete" in out

    def test_full_cube_subset(self, capsys, tmp_path):
        path = write_poset(tmp_path, "cube3.txt", Subposet.cube(3))
        code, out, _ = run(capsys, "check-complete", "--subset", path)
        assert code == 0
        assert "complete (ambient covers): yes" in out
        assert "classification: complete_but_not_minimal" in out

    def test_json_witness_shape(self, capsys, tmp_path):
        path = tmp_path / "empty2.txt"
        path.write_text("n=2\n")
        code, out, _ = run(capsys, "check-complete", "--subset", str(path),
                           "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["result"]["complete"] is False
        assert report["result"]["minimality"] == "not_complete"
        assert report["witnesses"] == [
            {"apex": "00", "arms": ["10", "01"], "orientation": "up"}
        ]

    def test_size_law_counterexample_exits_falsified(self, capsys, tmp_path):
        # genuine end-to-end falsification path, no patching: a complete
        # four-point pivot of the 3-cube containing a V
        path = write_poset(tmp_path, "tight3.txt", Subposet(3, (1, 2, 3, 5)))
        code, _, err = run(capsys, "check-complete", "--subset", path)
        assert code == 4
        assert err.startswith("FALSIFIED:")
        assert "expected > 4" in err

    def test_dimension_cross_check(self, capsys, tmp_path):
        path = write_poset(tmp_path, "even4.txt", Subposet.cube(2))
        assert run(capsys, "check-complete", "--subset", path, "--n", "3")[0] == 2


class TestStoppedRuns:
    @pytest.mark.parametrize("error", [RecursionError, MemoryError, KeyboardInterrupt])
    def test_stop_exits_three_with_one_line(self, capsys, monkeypatch, error):
        # exit 1 means a property failed, so a run that cannot finish must
        # not end there through an uncaught traceback
        def handler(args):
            raise error("deep")

        monkeypatch.setattr(cli_module, "_cmd_count", handler)
        code, out, err = run(capsys, "count", "--n", "3", "--format", "json")
        assert code == 3
        assert out == ""
        assert err == f"stopped: {error.__name__} deep\n"


class TestDeterminism:
    def test_identical_payload_across_repeats(self, capsys):
        _, out1, _ = run(capsys, "count", "--n", "4", "--format", "json")
        _, out2, _ = run(capsys, "count", "--n", "4", "--format", "json")
        a, b = json.loads(out1), json.loads(out2)
        assert stripped(a) == stripped(b)
        assert json.dumps(stripped(a), sort_keys=True) == json.dumps(
            stripped(b), sort_keys=True
        )

    def test_identical_payload_across_thread_counts(self, capsys):
        _, out1, _ = run(capsys, "count", "--n", "4", "--threads", "1",
                         "--format", "json")
        _, out8, _ = run(capsys, "count", "--n", "4", "--threads", "8",
                         "--format", "json")
        assert json.dumps(stripped(json.loads(out1)), sort_keys=True) == json.dumps(
            stripped(json.loads(out8)), sort_keys=True
        )

    def test_verify_payload_stable(self, capsys):
        _, out1, _ = run(capsys, "verify", "--theorem", "corollary", "--n", "3",
                         "--format", "json")
        _, out2, _ = run(capsys, "verify", "--theorem", "corollary", "--n", "3",
                         "--format", "json")
        assert stripped(json.loads(out1)) == stripped(json.loads(out2))


class TestThreadEnvironment:
    def test_env_sets_default(self, capsys, monkeypatch):
        monkeypatch.setenv("DEDEKIND_THREADS", "8")
        _, out, _ = run(capsys, "count", "--n", "3", "--format", "json")
        assert json.loads(out)["threads"] == 8

    def test_flag_wins_over_env(self, capsys, monkeypatch):
        monkeypatch.setenv("DEDEKIND_THREADS", "8")
        _, out, _ = run(capsys, "count", "--n", "3", "--threads", "2",
                        "--format", "json")
        assert json.loads(out)["threads"] == 2

    def test_invalid_env_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("DEDEKIND_THREADS", "many")
        assert run(capsys, "count", "--n", "2")[0] == 2
        monkeypatch.setenv("DEDEKIND_THREADS", "0")
        assert run(capsys, "count", "--n", "2")[0] == 2

    def test_zero_flag_rejected(self, capsys):
        assert run(capsys, "count", "--n", "2", "--threads", "0")[0] == 2

    def test_zero_env_rejected_without_flag(self, capsys, monkeypatch, tmp_path):
        # check-complete has no --threads flag; the env value is still
        # resolved and validated
        monkeypatch.setenv("DEDEKIND_THREADS", "0")
        path = write_poset(tmp_path, "square.txt", Subposet.cube(2))
        assert run(capsys, "check-complete", "--subset", path)[0] == 2

    @pytest.mark.parametrize("argv", [
        ("decompose", "--n", "3"),
        ("verify", "--theorem", "corollary", "--n", "3"),
    ])
    def test_every_subcommand_echoes_env_threads(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("DEDEKIND_THREADS", "8")
        _, out, _ = run(capsys, *argv, "--format", "json")
        assert json.loads(out)["threads"] == 8
