import json

import pytest

import nilcomm.cli as cli
from nilcomm.cli import build_parser, main
from nilcomm.config import DEFAULT_CONFIG


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_text(capsys):
    code, out, err = run_cli(capsys, "classify", "regular(Z(4))")
    assert code == 0
    assert "semicommutative" in out
    assert "witness (a=1, r=2, m=1)" in out
    assert "nil set: 3 of 4" in out


def test_classify_json_schema(capsys):
    code, out, _ = run_cli(capsys, "classify", "regular(Z(6))", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["tool_version"]
    assert doc["descriptor"] == "regular(Z(6))"
    assert doc["runtime_ms"] == 0
    props = [r["property"] for r in doc["results"] if "property" in r]
    assert props == ["semicommutative", "weakly-semicommutative",
                     "nil-semicommutative", "reduced-i"]
    assert all(r["holds"] for r in doc["results"] if "property" in r)


def test_classify_property_selection(capsys):
    code, out, _ = run_cli(capsys, "classify", "regular(Z(4))",
                           "--properties", "reduced-ii", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    entries = [r for r in doc["results"] if "property" in r]
    assert len(entries) == 1 and entries[0]["property"] == "reduced-ii"
    assert entries[0]["holds"] is False

    code, _, err = run_cli(capsys, "classify", "regular(Z(4))",
                           "--properties", "bogus")
    assert code == 1
    assert "unknown property" in err


def test_classify_output_is_byte_identical_across_runs(capsys):
    args = ("classify", "trimod(2, regular(Z(4)))", "--format", "json")
    runs = [run_cli(capsys, *args) for _ in range(3)]
    assert [code for code, _, _ in runs] == [0, 0, 0]
    first, second, third = (out for _, out, _ in runs)
    assert first and first == second == third


def test_threads_flag_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "classify", "regular(Z(4))",
                             "--threads", "2")
    assert code == 1 and out == ""
    assert "--threads" in err
    with pytest.raises(TypeError):
        DEFAULT_CONFIG.with_overrides(threads=2)


def test_classify_timing_flag(capsys):
    _, out, _ = run_cli(capsys, "classify", "regular(Z(4))", "--format", "json",
                        "--timing")
    doc = json.loads(out)
    assert doc["runtime_ms"] >= 0


def test_classify_rejects_ring_expression(capsys):
    code, _, err = run_cli(capsys, "classify", "Z(4)")
    assert code == 1
    assert "module expression" in err


def test_nilset_command(capsys):
    code, out, _ = run_cli(capsys, "nilset", "regular(Z(12))", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    entry = doc["results"][0]
    assert entry["members"] == [0, 1, 3, 5, 7, 9, 11]
    assert entry["witnesses"]["1"] == {"t": 6, "k": 2}

    code, out, _ = run_cli(capsys, "nilset", "matmod(2, regular(Z(2)))")
    assert code == 0
    assert "16 of 16" in out


def test_parse_error_reports_position(capsys):
    code, _, err = run_cli(capsys, "classify", "Z()")
    assert code == 1
    assert "line 1, column 3" in err


def test_cap_flag_and_env(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "classify", "trimod(2, regular(Z(4)))",
                           "--cap", "100")
    assert code == 1
    assert "exceeds cap 100" in err

    monkeypatch.setenv("NILCOMM_CAP", "100")
    code, _, err = run_cli(capsys, "classify", "trimod(2, regular(Z(4)))")
    assert code == 1
    assert "exceeds cap 100" in err

    # --force lifts the refusal
    code, out, _ = run_cli(capsys, "classify", "trimod(2, regular(Z(4)))",
                           "--cap", "100", "--force", "--format", "json")
    assert code == 0
    monkeypatch.delenv("NILCOMM_CAP")


def test_verify_paper_selection_and_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--only", "lemma_squarefree",
                           "--nmax", "120")
    assert code == 0
    assert "confirmed" in out

    code, out, _ = run_cli(capsys, "verify-paper", "--only",
                           "localization_transfer", "--format", "json")
    assert code == 2
    doc = json.loads(out)
    assert doc["summary"]["refuted"] == 1
    assert doc["results"][0]["status"] == "refuted"

    code, _, err = run_cli(capsys, "verify-paper", "--only", "missing_check")
    assert code == 1


def test_verify_paper_defaults_are_the_harness_options(monkeypatch):
    from nilcomm.harness import HarnessOptions

    args = build_parser().parse_args(["verify-paper"])
    assert (args.nmax, args.samples) == (HarnessOptions().nmax, HarnessOptions().samples)
    # one owner: a moved harness default moves the option's default with it
    monkeypatch.setattr(HarnessOptions, "nmax", 77)
    build_parser.cache_clear()
    try:
        assert build_parser().parse_args(["verify-paper"]).nmax == 77
    finally:
        build_parser.cache_clear()


@pytest.mark.parametrize("argv", [
    ("--only", "matrix_nil_coverage,matrix_semicommutativity", "--samples", "0"),
    ("--samples", "-3"),
    ("--only", "lemma_squarefree", "--nmax", "1"),
])
def test_verify_paper_rejects_vacuous_counts(capsys, argv):
    code, out, err = run_cli(capsys, "verify-paper", *argv, "--format", "json")
    assert code == 1
    assert out == ""
    assert "at least" in err


def test_verify_paper_cap_names_the_first_capped_scan(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--only",
                           "localization_transfer", "--cap", "10",
                           "--format", "json")
    assert code == 0
    (report,) = json.loads(out)["results"]
    assert report["status"] == "skipped"
    assert report["detail"]["reason"].startswith(
        "cap: regular(Z(3)): nil-semicommutative scan of 27")


def test_verify_paper_embeds_version_and_selection(capsys):
    _, out, _ = run_cli(capsys, "verify-paper", "--only", "theta_iso",
                        "--format", "json")
    doc = json.loads(out)
    assert doc["descriptor"] == "checks:theta_iso"
    assert doc["tool_version"]


def test_search_zn_separation(capsys):
    code, out, _ = run_cli(capsys, "search", "zn", "--n", "2..50", "--pattern",
                           "semicommutative & !nil-semicommutative",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    got = sorted(int(d.split("Z(")[1].split(")")[0]) for d in doc["matches"])
    not_square_free = [n for n in range(2, 51)
                       if any(n % (p * p) == 0 for p in range(2, 8))]
    assert got == not_square_free


def test_search_no_weakly_failures_among_zn(capsys):
    code, out, _ = run_cli(capsys, "search", "zn", "--n", "2..50", "--pattern",
                           "!weakly-semicommutative", "--format", "json")
    assert code == 0
    assert json.loads(out)["matches"] == []


def test_search_tn_family(capsys):
    code, out, _ = run_cli(capsys, "search", "tn", "--p", "2", "--n", "2..2",
                           "--pattern", "!nil-semicommutative", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["matches"] == ["trimod(2, regular(Z(2)))"]


def test_search_rejects_a_reversed_range(capsys):
    code, out, err = run_cli(capsys, "search", "zn", "--n", "10..5", "--pattern",
                             "semicommutative", "--format", "json")
    assert code == 1
    assert out == ""
    assert "--n range 10..5 is empty" in err
    # a range of one n still decides that one instance
    code, out, _ = run_cli(capsys, "search", "zn", "--n", "5..5", "--pattern",
                           "semicommutative", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [e["descriptor"] for e in doc["results"]] == ["regular(Z(5))"]
    assert doc["matches"] == ["regular(Z(5))"]


@pytest.mark.parametrize("text", ["2..x", "x", "2..3..4"])
def test_search_rejects_a_non_integer_range_end(capsys, text):
    code, out, err = run_cli(capsys, "search", "zn", "--n", text, "--pattern",
                             "semicommutative")
    assert (code, out) == (1, "")
    assert err == f"nilcomm: error: --n range {text}: each end must be an integer\n"


def test_an_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    def broken(*args):
        raise ValueError("planted fault")

    monkeypatch.setattr(cli, "decide", broken)
    with pytest.raises(ValueError, match="planted fault"):
        main(["classify", "regular(Z(4))"])


def test_search_bad_pattern(capsys):
    code, _, err = run_cli(capsys, "search", "zn", "--n", "2..5",
                           "--pattern", "semicommutative &")
    assert code == 1
    assert "pattern" in err


@pytest.mark.parametrize("pattern,message", [
    ("semicommutative @ reduced-i", "bad pattern character '@'"),
    ("(semicommutative", "unbalanced parenthesis in pattern"),
    ("semicommutative & !", "pattern expected a property name"),
    ("semi", "unknown property 'semi' in pattern; choose from semicommutative, "
             "weakly-semicommutative, nil-semicommutative, reduced-i, reduced-ii"),
    ("(semicommutative))", "trailing tokens in pattern"),
])
def test_search_pattern_errors(capsys, pattern, message):
    code, out, err = run_cli(capsys, "search", "zn", "--n", "2..5",
                             "--pattern", pattern)
    assert (code, out) == (1, "")
    assert err == f"nilcomm: error: {message}\n"


def test_search_notes_capped_instances(capsys):
    code, out, _ = run_cli(capsys, "search", "tn", "--p", "2", "--n", "2..3",
                           "--pattern", "!nil-semicommutative",
                           "--cap", "5000", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    skipped = [e for e in doc["results"] if "skipped" in e]
    assert skipped and "exceeds cap" in skipped[0]["skipped"]


def test_invalid_cap_env_value(capsys, monkeypatch):
    monkeypatch.setenv("NILCOMM_CAP", "not-a-number")
    code, _, err = run_cli(capsys, "classify", "regular(Z(4))")
    assert code == 1
    assert "NILCOMM_CAP" in err


def test_usage_error_exit_code(capsys):
    assert main(["classify"]) == 1
    capsys.readouterr()
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    out = capsys.readouterr().out
    assert "nilcomm" in out


def test_one_parser_serves_every_call_as_a_fresh_one_would(capsys):
    argvs = [("classify", "trimod(2, regular(Z(2)))", "--format", "json"),
             ("search", "zn", "--n", "2..12", "--pattern", "semicommutative & !reduced-i"),
             ("classify", "regular(Z(4))", "--threads", "2"),  # a usage error
             ("--version",),
             ("classify", "regular(Z(6))", "--properties", "reduced-ii")]

    def runs(fresh):
        results = []
        for argv in argvs:
            if fresh:
                build_parser.cache_clear()
            results.append(run_cli(capsys, *argv))
        return results

    fresh = runs(fresh=True)
    assert [code for code, _, _ in fresh] == [0, 0, 1, 0, 0]
    assert build_parser() is build_parser()
    assert runs(fresh=False) == fresh
