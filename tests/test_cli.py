"""The command-line front end: output shapes, exit codes, determinism, and
the argument shapes the benchmark passes."""

import hashlib
import json

import pytest

import dedekind.cli as cli_module
import dedekind.partition as partition_module
from dedekind.cli import main
from dedekind.poset import Subposet, find_v3


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
            if k not in ("elapsed_ms", "cache")}


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
        assert "threads" not in report
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

    def test_strategies_agree(self, capsys):
        for strategy in ("auto", "single", "layer"):
            assert run(capsys, "count", "--n", "4", "--strategy", strategy)[:2] == (0, "168\n")

    def test_interval_report_identical_across_repeats(self, capsys):
        # the default count of E^5 is the interval sum, which leaves the memo
        # table unused: everything but the elapsed time repeats byte for byte
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, "count", "--n", "5", "--format", "json")
            assert code == 0
            report = json.loads(out)
            del report["elapsed_ms"]
            outs.append(json.dumps(report, sort_keys=True))
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["result"] == "7581"
        assert json.loads(outs[0])["cache"] == {"hits": 0, "misses": 0}


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
        # one density per sampled subset, drawn from [0.2, 0.9]
        code, out, _ = run(capsys, "verify", "--theorem", "lemma2", "--n", "4")
        assert code == 0
        assert "52 sampled subsets: 20 complete partitions, 0 size-law violations" in out

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

    @pytest.mark.parametrize("theorem", tuple(cli_module._VERIFY_RUNNERS))
    def test_dimension_range_of_each_theorem(self, capsys, theorem):
        floor, cap = cli_module._VERIFY_RUNNERS[theorem][2:]
        for n in (floor, cap):
            code, out, _ = run(capsys, "verify", "--theorem", theorem, "--n", str(n),
                               "--samples", "1")
            # lemma2 exits 1 where the size law has genuine counterexamples
            assert code in (0, 1)
            assert out.rstrip().endswith("checks passed")
        for n in (floor - 1, cap + 1):
            code, _, err = run(capsys, "verify", "--theorem", theorem, "--n", str(n))
            assert code == 2
            assert err == (f"error: --theorem {theorem} supports "
                           f"{floor} <= n <= {cap}, got {n}\n")

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

    @pytest.mark.parametrize("mode, searches", [("ambient", 2), ("induced", 3)])
    def test_remainder_searched_once_per_mode(self, capsys, tmp_path, monkeypatch,
                                              mode, searches):
        # ambient: the remainder once, then A itself; induced: the remainder
        # under each reading, then A
        from dedekind.partition import construct_layer_subset

        seen = []

        def spy(S, mode="ambient"):
            seen.append((S.masks, mode))
            return find_v3(S, mode)

        monkeypatch.setattr(cli_module, "find_v3", spy)
        monkeypatch.setattr(partition_module, "find_v3", spy)
        A = construct_layer_subset(4, "even")
        path = write_poset(tmp_path, "even4.txt", A)
        code, out, _ = run(capsys, "check-complete", "--subset", path, "--mode", mode)
        assert code == 0
        assert "classification: minimal" in out
        assert len(seen) == searches
        assert len(set(seen)) == searches
        assert seen[-1] == (A.masks, "ambient")

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

    @pytest.mark.parametrize("argv, digest", [
        (("verify", "--theorem", "1", "--n", "5", "--samples", "20", "--seed", "0"),
         "ab91329aa568387d9226f10eb47e950941c8af6f2a1eb0139d3bb6bb731f1c60"),
        (("verify", "--theorem", "2", "--n", "3"),
         "2addf3bd746fa402ff9f09b4ea38c4a72e1cd9aba12d55ff9836ab14c3503f99"),
    ])
    def test_verify_payload_pinned(self, capsys, argv, digest):
        # sha256 of the stripped report, sorted keys, as computed when the
        # partition terms still came from the enumeration oracle and every
        # residual was counted once per term
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        text = json.dumps(stripped(json.loads(out)), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestBenchmarkArgv:
    # the argument shapes perfbench's cube6_cli runs at n = 6, here at n = 4
    @pytest.mark.parametrize("argv", [
        ("count", "--n", "4", "--threads", "1"),
        ("count", "--n", "4", "--strategy", "layer", "--threads", "1"),
        ("decompose", "--n", "4", "--parity", "even"),
        ("decompose", "--n", "4", "--parity", "odd"),
    ])
    def test_runs_at_n4(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["result"] == "168"
        assert "threads" not in report

    def test_zero_threads_rejected(self, capsys):
        assert run(capsys, "count", "--n", "2", "--threads", "0")[0] == 2
