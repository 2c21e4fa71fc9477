import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import everywhere
from zfpoly import parallel, sweeps
from zfpoly.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poly_pretty_wheel(capsys):
    code, out, _ = run(capsys, "poly", "--family", "wheel:5", "--pretty")
    assert code == 0
    assert out.strip() == "8x^3 + 5x^4 + x^5"


def test_poly_json_single_vertex_path(capsys):
    code, out, _ = run(capsys, "poly", "--family", "path:1")
    assert code == 0
    assert json.loads(out) == {"n": 1, "coeffs": ["0", "1"]}


def test_poly_methods_agree(capsys, tmp_path):
    el = tmp_path / "p4.el"
    el.write_text("4 3\n0 1\n1 2\n2 3\n")
    code, brute, _ = run(capsys, "poly", "--edge-list", str(el), "--method", "brute")
    assert code == 0
    code, closed, _ = run(capsys, "poly", "--family", "path:4", "--method", "closed")
    assert code == 0
    assert json.loads(brute) == json.loads(closed)


@pytest.mark.parametrize(
    "family",
    ["path:12", "cycle:12", "complete:12", "wheel:12", "multipartite:3,4,5",
     "threshold:110011011"],
)
def test_brute_and_closed_methods_agree(capsys, family):
    code, brute, _ = run(capsys, "poly", "--family", family, "--method", "brute")
    assert code == 0
    code, closed, _ = run(capsys, "poly", "--family", family, "--method", "closed")
    assert code == 0
    assert json.loads(brute) == json.loads(closed)


def test_poly_components_method(capsys):
    code, out, _ = run(capsys, "poly", "--graph6", "A?", "--method", "components")
    assert code == 0
    assert json.loads(out) == {"n": 2, "coeffs": ["0", "0", "1"]}


def test_poly_requires_one_source(capsys):
    code, _, err = run(capsys, "poly", "--family", "path:3", "--graph6", "Bg")
    assert code == 2 and "exactly one" in err


def test_poly_closed_rejects_plain_graphs(capsys):
    code, _, err = run(capsys, "poly", "--graph6", "Bg", "--method", "closed")
    assert code == 4


def test_poly_closed_rejects_family_without_formula(capsys):
    code, _, err = run(capsys, "poly", "--family", "star:4", "--method", "closed")
    assert code == 4


@pytest.mark.parametrize(
    "family,code",
    [
        # the builder accepts these, the closed form does not cover them
        ("threshold:10", 4),
        ("threshold:1100", 4),
        ("wheel:4", 4),
        ("multipartite:1,3", 4),
        ("star:5", 4),
        # well formed but past the builder's cap: a mismatch, not a size error
        ("threshold:10" + "0" * 70 + "1", 4),
        # the builder rejects it too
        ("cycle:2", 2),
        ("threshold:1x11", 2),
        # past the builder's vertex cap, which the closed form does not share
        ("path:100", 0),
    ],
)
def test_poly_closed_exit_codes(capsys, family, code):
    assert run(capsys, "poly", "--family", family, "--method", "closed")[0] == code


def test_poly_graph6_file_input(capsys, tmp_path):
    g6 = tmp_path / "g.g6"
    g6.write_text(">>graph6<<Bg\n")
    code, out, _ = run(capsys, "poly", "--graph6", str(g6))
    assert code == 0
    assert json.loads(out)["coeffs"] == ["0", "2", "3", "1"]


def test_poly_size_cap_exit(capsys, monkeypatch):
    monkeypatch.setenv("ZFPOLY_MAX_N", "3")
    code, _, err = run(capsys, "poly", "--family", "path:4")
    assert code == 3


def test_forts_listing(capsys):
    code, out, _ = run(capsys, "forts", "--family", "path:3")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"n": 3, "forts": [[0, 2], [0, 1, 2]]}


def test_forts_min_cover(capsys):
    code, out, _ = run(capsys, "forts", "--family", "complete:4", "--min-cover")
    assert code == 0
    payload = json.loads(out)
    assert payload["min_cover"]["size"] == 3
    assert len(payload["min_cover"]["witness"]) == 3


def test_forts_invalid_family(capsys):
    code, _, err = run(capsys, "forts", "--family", "cycle:2")
    assert code == 2


def test_eval_examples(capsys):
    code, out, _ = run(capsys, "eval", "--family", "path:4", "--at", "1")
    assert code == 0 and out.strip() == "13"
    code, out, _ = run(capsys, "eval", "--family", "complete:3", "--at", "0")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "eval", "--family", "cycle:4", "--at", "2")
    assert code == 0 and out.strip() == "64"


def test_eval_rational_point(capsys):
    code, out, _ = run(capsys, "eval", "--family", "complete:2", "--at", "1/2")
    assert code == 0 and out.strip() == "5/4"  # 2*(1/2) + (1/2)^2


def test_eval_rejects_bad_point(capsys):
    code, _, err = run(capsys, "eval", "--family", "path:3", "--at", "pi")
    assert code == 2


def test_check_suite_passes(capsys):
    code, out, _ = run(capsys, "check", "--suite", "hall", "--max-n", "4")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    summary = lines[-1]
    assert summary["record"] == "summary"
    assert summary["passed"] is True
    assert summary["failures"] == 0


@pytest.mark.parametrize("jobs", sorted({1, min(2, os.cpu_count() or 1)}))
def test_check_summary_names_the_seed_and_jobs(capsys, jobs):
    code, out, _ = run(capsys, "check", "--suite", "conjectures", "--max-n", "3", "--seed", "5", "--jobs", str(jobs))
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert list(summary) == ["record", "suite", "max_n", "seed", "jobs", "graphs_checked", "failures", "warnings",
                             "passed", "elapsed_s"]
    assert (summary["seed"], summary["jobs"], summary["max_n"]) == (5, jobs, 3)


def _top_coefficient_plus_one(zf, closed, coeffs):
    return zf, closed, [*coeffs[:-1], coeffs[-1] + 1]


def test_check_prints_a_line_per_failure_and_exits_one(capsys, plant):
    plant(everywhere(_top_coefficient_plus_one))
    code, out, _ = run(capsys, "check", "--suite", "extremal", "--max-n", "3")
    assert code == 1
    *lines, summary = [json.loads(line) for line in out.strip().splitlines()]
    assert all(list(line) == ["record", "check", "n", "graph", "detail"] and line["record"] == "failure"
               for line in lines)
    assert lines and len(lines) == summary["failures"]
    assert (summary["record"], summary["passed"], summary["warnings"]) == ("summary", False, 0)


def test_check_warnings_never_fail_the_run(capsys, plant):
    # the raised top coefficient exceeds the path's, a conjecture warning
    plant(everywhere(_top_coefficient_plus_one))
    code, out, _ = run(capsys, "check", "--suite", "conjectures", "--max-n", "3")
    assert code == 0
    *lines, summary = [json.loads(line) for line in out.strip().splitlines()]
    assert lines and {line["record"] for line in lines} == {"warning"}
    assert (len(lines), summary["failures"], summary["passed"]) == (summary["warnings"], 0, True)


def _stub_sweep(monkeypatch):
    """Replace the exhaustive sweep by a recorder of the orders it is asked for."""
    orders = []

    def sweep(checks, max_n, jobs=1):
        orders.append(max_n)
        return 0, []

    monkeypatch.setattr(sweeps, "exhaustive_sweep", sweep)
    return orders


def test_check_rejects_max_n_below_one(capsys, monkeypatch):
    orders = _stub_sweep(monkeypatch)
    code, _, err = run(capsys, "check", "--suite", "hall", "--max-n", "0")
    assert code == 2 and "max_n" in err
    assert orders == []
    code, _, _ = run(capsys, "check", "--suite", "closed-forms", "--max-n", "0")
    assert code == 2


def test_check_reports_clamped_max_n(capsys, monkeypatch):
    orders = _stub_sweep(monkeypatch)
    code, out, _ = run(capsys, "check", "--suite", "hall", "--max-n", "9")
    assert code == 0
    assert orders == [sweeps.EXHAUSTIVE_MAX_N]
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["max_n"] == sweeps.EXHAUSTIVE_MAX_N


@pytest.mark.parametrize("jobs", [0, (os.cpu_count() or 1) + 1])
def test_check_rejects_jobs_out_of_range_before_any_pool(capsys, monkeypatch, jobs):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(parallel, "Pool", no_pool)
    orders = _stub_sweep(monkeypatch)
    code, _, err = run(capsys, "check", "--suite", "hall", "--max-n", "3", "--jobs", str(jobs))
    assert code == 2 and "--jobs" in err
    assert orders == []


@pytest.mark.parametrize("jobs", [0, (os.cpu_count() or 1) + 1])
def test_conjecture_scan_rejects_jobs_out_of_range_before_any_pool(capsys, monkeypatch, jobs):
    script = Path(__file__).resolve().parents[1] / "scripts" / "conjecture_scan.py"
    spec = importlib.util.spec_from_file_location("conjecture_scan", script)
    scan = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scan)

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(parallel, "Pool", no_pool)
    monkeypatch.setattr(sys, "argv", ["conjecture_scan.py", "--count", "40", "--jobs", str(jobs)])
    with pytest.raises(SystemExit) as exc:
        scan.main()
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--count", "-2"], "--count"),
        (["--count", "0"], "--count"),
        (["--min-n", "9", "--max-n", "8"], "--min-n"),
        (["--min-n", "0", "--max-n", "3"], "--min-n"),
        (["--count", "1", "--min-n", "11", "--max-n", "11"], "--max-n"),
    ],
)
def test_conjecture_scan_rejects_bad_parameters_before_any_work(argv, flag):
    # the cap is lowered to 10, so a scan that got past the checks would
    # run only small graphs, and report exit 0 or a traceback
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), ZFPOLY_MAX_N="10")
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "conjecture_scan.py"), *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert flag in proc.stderr and not proc.stdout


def test_check_rejects_unknown_suite(capsys):
    code, _, err = run(capsys, "check", "--suite", "bogus")
    assert code == 2


def test_check_closed_forms_small(capsys):
    code, out, _ = run(capsys, "check", "--suite", "closed-forms", "--max-n", "6")
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["passed"] is True


def test_unknown_family_is_parse_error(capsys):
    code, _, err = run(capsys, "poly", "--family", "moebius:5")
    assert code == 2


@pytest.mark.parametrize("method", ["brute", "closed", "components"])
@pytest.mark.parametrize(
    "spec", ["path:5:9", "cycle-chord:6:0:2:7", "multipartite:2,3:4", "threshold:101:1", "path:", "cycle-chord:6:0"]
)
def test_family_with_wrong_argument_count_is_parse_error(capsys, spec, method):
    # extra arguments were once dropped: path:5:9 printed the polynomial of P_5
    code, out, err = run(capsys, "poly", "--family", spec, "--method", method)
    assert code == 2
    assert out == ""
    assert "argument(s), got" in err


def test_forts_and_eval_reject_extra_family_arguments(capsys):
    assert run(capsys, "forts", "--family", "cycle:5:1")[0] == 2
    assert run(capsys, "eval", "--family", "wheel:6:2", "--at", "1")[0] == 2


def test_malformed_edge_list_is_parse_error(capsys, tmp_path):
    el = tmp_path / "bad.el"
    el.write_text("2 5\n0 1\n")
    code, _, err = run(capsys, "poly", "--edge-list", str(el))
    assert code == 2


def test_missing_file_is_parse_error(capsys):
    code, _, err = run(capsys, "poly", "--edge-list", "/nonexistent/file.el")
    assert code == 2
