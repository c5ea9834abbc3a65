"""Command-line behavior: output schemas, exit codes, reproducibility."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from degpow.claims import CLAIMS
from degpow.cli import main
from degpow.constructions import GPrime, GStar, degree_profile
from degpow.graphs import degree_sequence, from_graph6


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def profile_degrees(spec):
    out = []
    for d, c in degree_profile(spec).counter().items():
        out.extend([d] * c)
    return sorted(out)


ELAPSED = re.compile(r'"elapsed_ms": \d+')


# ---------------------------------------------------------------------------
# construct


def test_construct_graph6_roundtrip(capsys):
    code, out, err = run_cli(capsys, "construct", "turan:n=5,r=2")
    assert code == 0 and err == ""
    assert out.endswith("\n") and out.count("\n") == 1
    g = from_graph6(out.strip())
    assert sorted(degree_sequence(g)) == [2, 2, 2, 3, 3]


def test_construct_json_profile(capsys):
    code, out, _ = run_cli(capsys, "construct", "turan:n=5,r=2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "spec": "turan:n=5,r=2",
        "order": 5,
        "profile": [{"degree": 3, "count": 2}, {"degree": 2, "count": 3}],
    }


def test_construct_hub_variants_match_profiles(capsys):
    code, out, _ = run_cli(capsys, "construct", "gprime:n=12,d=6")
    assert code == 0
    g = from_graph6(out.strip())
    assert sorted(degree_sequence(g)) == profile_degrees(GPrime(12, 6))

    code, out, _ = run_cli(capsys, "construct", "gstar:n=7,d=3")
    assert code == 0
    h = from_graph6(out.strip())
    assert h.order == 7
    assert sorted(degree_sequence(h)) == profile_degrees(GStar(7, 3))


def test_construct_bad_spec_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "construct", "turan:n=5")
    assert code == 2
    assert out == ""
    assert "degpow: error" in err


def test_construct_without_parameters_names_each_key(capsys):
    for spec, keys in (("kbip", "a=..,b=.."), ("gprime", "n=..,d=..")):
        code, out, err = run_cli(capsys, "construct", spec)
        assert code == 2 and out == ""
        assert f"construction {spec!r} needs parameters {keys!r}" in err


def test_construct_capacity_split(capsys):
    # profiles have no order cap; materializing the graph does
    code, out, _ = run_cli(capsys, "construct", "turan:n=70,r=2", "--format", "json")
    assert code == 0
    assert json.loads(out)["order"] == 70
    code, _, err = run_cli(capsys, "construct", "turan:n=70,r=2")
    assert code == 3
    assert "capacity" in err


# ---------------------------------------------------------------------------
# epow


def test_epow_known_value(capsys):
    code, out, _ = run_cli(capsys, "epow", "gprime:n=20,d=10", "--p", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["e_p"] == "1484"
    assert payload["order"] == 20
    assert payload["spec"] == "gprime:n=20,d=10"


def test_epow_huge_order_is_exact(capsys):
    code, out, _ = run_cli(capsys, "epow", "kbip:a=10000,b=10000", "--p", "8")
    assert code == 0
    assert json.loads(out)["e_p"] == str(2 * 10000 * 10000 ** 8)


# ---------------------------------------------------------------------------
# search


def test_search_schema_n4(capsys):
    code, out, _ = run_cli(capsys, "search", "--n", "4", "--p", "2")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["n", "p", "ex_p", "maximizers", "visited", "elapsed_ms"]
    assert payload["n"] == 4 and payload["p"] == 2
    assert payload["ex_p"] == "36"
    assert payload["visited"] == 64
    assert payload["maximizers"] == [
        {"graph6": "C~", "biclique": None, "max_degree": 3}
    ]
    assert isinstance(payload["elapsed_ms"], int)


def test_search_capacity_exit(capsys):
    code, out, err = run_cli(capsys, "search", "--n", "12", "--p", "2")
    assert code == 3
    assert out == ""
    assert "capacity" in err and "--force" in err


def test_search_rejects_bad_exponent(capsys):
    code, _, err = run_cli(capsys, "search", "--n", "5", "--p", "0")
    assert code == 2
    assert "degpow: error" in err


def test_search_worker_count_invisible_in_output(capsys):
    code, serial, _ = run_cli(capsys, "search", "--n", "6", "--p", "2")
    assert code == 0
    code, parallel, _ = run_cli(capsys, "search", "--n", "6", "--p", "2", "--workers", "2")
    assert code == 0
    assert ELAPSED.sub('"elapsed_ms": 0', serial) == ELAPSED.sub('"elapsed_ms": 0', parallel)


@pytest.mark.parametrize("command", [("search", "--n", "4", "--p", "2"), ("sweep",)])
def test_worker_count_below_one_is_a_usage_error(capsys, command):
    code, out, err = run_cli(capsys, *command, "--workers", "0")
    assert code == 2
    assert out == ""
    assert "worker count must be >= 1" in err


@pytest.mark.parametrize("command", [("search", "--n", "4", "--p", "2"), ("verify", "turan-closed-form")])
def test_unwritable_out_path_is_a_usage_error(capsys, tmp_path, command):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, *command, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err == f"degpow: error: cannot write {target}: No such file or directory\n"
    assert not target.exists()


STATS_KEYS = [
    "labeled_prefixes", "orbit_representatives", "prefix_children", "canonical_keyings",
    "leaves_walked", "visits_scored", "visits_counted", "labeled_graphs", "ties_relabeled",
    "classes", "orbit_grouping_s", "walk_s", "merge_dedup_s",
]


@pytest.mark.parametrize(
    "argv",
    [
        ("search", "--n", "8", "--p", "2", "--workers", "2"),
        ("sweep", "--n-min", "4", "--n-max", "8", "--p", "1", "2"),
    ],
)
def test_stats_go_to_stderr_and_leave_the_payload_alone(capsys, argv):
    code, plain, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    code, out, err = run_cli(capsys, *argv, "--stats")
    assert code == 0
    assert ELAPSED.sub('"elapsed_ms": 0', out) == ELAPSED.sub('"elapsed_ms": 0', plain)
    assert err.endswith("\n") and err.count("\n") == 1
    stats = json.loads(err)
    assert list(stats) == STATS_KEYS
    payload = json.loads(out)
    rows = [payload] if argv[0] == "search" else payload["report"][::2]
    assert stats["labeled_graphs"] == sum(row["visited"] for row in rows)
    assert stats["orbit_representatives"] <= stats["labeled_prefixes"]
    assert stats["orbit_representatives"] <= stats["prefix_children"]
    assert 0 < stats["leaves_walked"] < stats["labeled_graphs"]
    # every scored visit walks at least the empty pick of the last vertex
    assert 0 < stats["visits_scored"] <= stats["leaves_walked"]
    # keyed by invariant first, only the children that share one are labeled
    assert 0 < stats["canonical_keyings"] < stats["prefix_children"]
    assert stats["visits_counted"] <= stats["visits_scored"]


# ---------------------------------------------------------------------------
# optimize-c


def test_optimize_c_table(capsys):
    code, out, _ = run_cli(capsys, "optimize-c", "--p", "2..5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p,c,f_c"
    assert len(lines) == 5
    rows = {int(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
    assert abs(rows[2] - 0.5) < 1e-6
    assert abs(rows[3] - 0.5) < 1e-6
    assert abs(rows[4] - (1 + 3 ** -0.5) / 2) < 1e-6
    # c(p) grows toward lopsided splits as p increases
    assert 0.5 < rows[4] < rows[5] < 1


def test_optimize_c_single_p(capsys):
    code, out, _ = run_cli(capsys, "optimize-c", "--p", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2 and lines[1].startswith("1,")
    assert abs(float(lines[1].split(",")[1]) - 0.5) < 1e-6


def test_optimize_c_rejects_bad_range(capsys):
    assert run_cli(capsys, "optimize-c", "--p", "0..3")[0] == 2
    assert run_cli(capsys, "optimize-c", "--p", "5..2")[0] == 2
    assert run_cli(capsys, "optimize-c", "--p", "two")[0] == 2


# ---------------------------------------------------------------------------
# verify


def test_verify_all_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "all")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert len(payload["reports"]) == 11
    assert all(r["pass"] for r in payload["reports"])


def test_verify_all_rejects_foreign_flags(capsys):
    code, _, err = run_cli(capsys, "verify", "all", "--a", "1/2")
    assert code == 2
    assert "only --p" in err


def test_verify_single_claim_with_params(capsys):
    code, out, _ = run_cli(capsys, "verify", "np-coeff", "--p", "5", "--a", "3/5")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["params"] == {"a": "3/5"}


def test_verify_honest_failure_exit(capsys):
    # at n=10 the best integral split is b=9, far from c(6) ~ 0.857
    code, out, _ = run_cli(capsys, "verify", "split-match", "--p", "6", "--n", "10")
    assert code == 1
    payload = json.loads(out)
    assert payload["pass"] is False


def test_verify_unknown_claim(capsys):
    # verify --help does not list the claim ids, so the error must
    code, _, err = run_cli(capsys, "verify", "no-such-claim")
    assert code == 2
    assert "degpow: error" in err
    for cid in CLAIMS:
        assert cid in err


@pytest.mark.parametrize("claim", ["case32", "case33"])
@pytest.mark.parametrize("a", ["1/4", "1"])
def test_verify_hub_fraction_outside_its_domain_is_a_usage_error(capsys, claim, a):
    code, out, err = run_cli(capsys, "verify", claim, "--a", a)
    assert code == 2 and out == ""
    assert "1/2 <= a < 1" in err


@pytest.mark.parametrize("n", ["1", "0"])
def test_verify_turan_closed_form_below_two_vertices_is_a_usage_error(capsys, n):
    code, out, err = run_cli(capsys, "verify", "turan-closed-form", "--n", n)
    assert code == 2 and out == ""
    assert f"order must be >= 2, got {n}" in err


def test_verify_invalid_exponent(capsys):
    assert run_cli(capsys, "verify", "leading-coeff", "--p", "0")[0] == 2


# ---------------------------------------------------------------------------
# sweep


def test_sweep_small_grid(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n-min", "4", "--n-max", "5", "--p", "1", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["n_min"] == 4 and payload["n_max"] == 5
    assert payload["p_values"] == [1, 2]
    assert len(payload["report"]) == 4
    for entry in payload["report"]:
        assert entry["maximizer_classes"]


def test_sweep_lists_a_repeated_exponent_once(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n-min", "4", "--n-max", "4", "--p", "2", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["p_values"] == [2]
    assert [(row["n"], row["p"]) for row in payload["report"]] == [(4, 2)]
    code, out, _ = run_cli(capsys, "sweep", "--n-min", "4", "--n-max", "5", "--p", "3", "1", "3", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["p_values"] == [3, 1]
    assert [(row["n"], row["p"]) for row in payload["report"]] == [(4, 3), (4, 1), (5, 3), (5, 1)]


def test_sweep_rejects_inverted_range(capsys):
    assert run_cli(capsys, "sweep", "--n-min", "6", "--n-max", "4")[0] == 2


# ---------------------------------------------------------------------------
# shared plumbing


def test_out_flag_writes_identical_bytes(capsys, tmp_path):
    target = tmp_path / "profile.json"
    code, out, _ = run_cli(capsys, "construct", "turan:n=5,r=2", "--format", "json")
    assert code == 0
    code2, silent, _ = run_cli(
        capsys, "construct", "turan:n=5,r=2", "--format", "json", "--out", str(target)
    )
    assert code2 == 0 and silent == ""
    assert target.read_text(encoding="utf-8") == out


def test_verify_output_reproducible(capsys):
    first = run_cli(capsys, "verify", "all")[1]
    second = run_cli(capsys, "verify", "all")[1]
    assert first == second


def test_no_subcommand_is_usage_error(capsys):
    assert run_cli(capsys)[0] == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "degpow", "epow", "gprime:n=20,d=10", "--p", "2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["e_p"] == "1484"


def test_console_script_help():
    # run the [project.scripts] target the way the installed wrapper does,
    # so the test needs no installed executable
    root = Path(__file__).resolve().parent.parent
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    module, func = re.search(r'^degpow\s*=\s*"([\w.]+):(\w+)"', scripts, re.M).groups()
    wrapper = (
        f"import sys; from {module} import {func}; "
        f"sys.argv[0] = 'degpow'; sys.exit({func}())"
    )
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "--help"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: degpow ")
    assert "construct" in proc.stdout and "verify" in proc.stdout
