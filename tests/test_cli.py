import json
import os
import subprocess
import sys

import pytest

import lao
from lao.cli import main
from lao.fixtures import fixture_path, fixture_text
from lao.formula import fprint, parse


@pytest.fixture
def gas0_path():
    return fixture_path("gas0")


def test_validate_ok(capsys, gas0_path):
    assert main(["validate", gas0_path]) == 0
    assert "model ok" in capsys.readouterr().out


def test_validate_reports_violations(tmp_path, capsys):
    doc = json.loads(fixture_text("fig1"))
    doc["orgs"][0]["knowPlus"] = {"default": [], "at": {"w0": ["p"]}}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    assert "KnowledgeSoundness" in capsys.readouterr().out


def test_validate_missing_file_is_usage_error(capsys):
    assert main(["validate", "/nonexistent/model.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_check_holds_everywhere(capsys, gas0_path):
    code = main([
        "check", gas0_path,
        "-f", "desire(Ogas, provide_gas) -> I[monopolist] provide_gas",
        "--all",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("true") == 5


def test_check_failing_world_exits_one(capsys):
    code = main(["check", fixture_path("fig1"), "-f", "E[a] p", "--world", "w0"])
    assert code == 1
    assert "w0: false" in capsys.readouterr().out


def test_check_parse_error_exits_two(capsys):
    assert main(["check", fixture_path("fig1"), "-f", "((p"]) == 2
    assert "error" in capsys.readouterr().err


def test_check_with_oracle_agreement(capsys):
    code = main(["check", fixture_path("fig1"), "-f", "AF p", "--all", "--oracle"])
    out = capsys.readouterr().out
    assert code in (0, 1)
    assert "agrees" in out
    assert "DISAGREES" not in out


def test_check_oracle_bound_exceeded(tmp_path, capsys):
    from lao.model import canonical_dict
    from lao.verify import GenParams, generate_model

    m = generate_model(GenParams(seed=11, max_worlds=8))
    # pad the model beyond the oracle bound with disconnected loop worlds
    doc = canonical_dict(m)
    doc["worlds"] = [{"id": w["id"], "facts": w["facts"]} for w in doc["worlds"]]
    extra = [{"id": f"pad{i}", "facts": []} for i in range(9 - len(doc["worlds"]) + 1)]
    doc["worlds"] += extra
    for w in extra:
        doc["transitions"].append({"from": w["id"], "to": w["id"], "labels": []})
    # per-world capability maps from canonical form need flattening to the
    # loader's default/at shape
    for section in ("c", "cn"):
        doc["capabilities"][section] = {
            key: {"at": per_w, "default": []}
            for key, per_w in doc["capabilities"][section].items()
        }
    doc["capabilities"]["cr"] = {}
    for org in doc["orgs"]:
        for key in ("members", "roles", "rea", "dep", "desires", "knowPlus", "knowMinus"):
            org[key] = {"at": org[key], "default": []}
        org["objectives"] = {}
        org["depClosure"] = False
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "-f", "AF p0", "--all", "--oracle"]) == 2
    assert "oracle" in capsys.readouterr().err


def test_analyze_gas0(capsys, gas0_path):
    assert main(["analyze", gas0_path, "--org", "Ogas"]) == 0
    out = capsys.readouterr().out
    assert "well-defined holds" in out
    assert "successful holds" in out
    assert "good holds" in out
    assert "hierarchy" in out


def test_analyze_gas0prime_fails_efficiency(capsys):
    assert main(["analyze", fixture_path("gas0prime"), "--org", "Ogas"]) == 1
    out = capsys.readouterr().out
    assert "efficient fails" in out
    assert "network" in out and "team" in out


def test_analyze_unknown_org(capsys, gas0_path):
    assert main(["analyze", gas0_path, "--org", "Nope"]) == 2
    assert capsys.readouterr().err == "error: unknown organization 'Nope'\n"


def test_analyze_desire_free_toy_all_vacuous(capsys):
    assert main(["analyze", fixture_path("fig1"), "--org", "Oa"]) == 0


def test_axioms_on_fixture(capsys, gas0_path):
    assert main(["axioms", gas0_path]) == 0
    assert "all schemas pass" in capsys.readouterr().out


def test_axioms_random(capsys):
    assert main(["axioms", "--random", "3", "--seed", "7"]) == 0


def test_axioms_zero_bounds_usage_error(capsys):
    assert main(["axioms", "--random", "1", "--seed", "1", "--bounds", "0,1,1,1,1"]) == 2


def test_axioms_needs_model_or_random(capsys):
    assert main(["axioms"]) == 2


@pytest.mark.parametrize("extra", [
    ["--random", "2"],
    ["--random", "2", "--bounds", "1,1,1,1,1"],
    ["--bounds", "1,1,1,1,1"],
])
def test_axioms_model_with_generation_options_is_usage_error(capsys, extra):
    assert main(["axioms", "gas0", *extra]) == 2
    err = capsys.readouterr().err
    assert "not both" in err
    assert "Traceback" not in err


def test_axioms_random_with_pool_is_usage_error(capsys):
    assert main(["axioms", "--random", "1", "--pool", "/nonexistent/pool.json"]) == 2
    err = capsys.readouterr().err
    assert "--pool" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("entry", ["!(provide_gas & buy_gas)", "AF provide_gas", "true"])
def test_axioms_non_literal_pool_entry_is_usage_error(tmp_path, capsys, entry):
    path = tmp_path / "pool.json"
    path.write_text(json.dumps(["provide_gas", entry]))
    assert main(["axioms", "gas0", "--pool", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"pool entry 1 is not a literal conjunction: {fprint(parse(entry))}\n" in err
    assert "Traceback" not in err


def test_axioms_literal_pool(tmp_path, capsys):
    path = tmp_path / "pool.json"
    path.write_text(json.dumps(["provide_gas", "!provide_gas & buy_gas"]))
    assert main(["axioms", "gas0", "--pool", str(path)]) == 0
    assert "all schemas pass" in capsys.readouterr().out


def test_json_report_roundtrip(tmp_path, capsys, gas0_path):
    report_path = tmp_path / "report.json"
    main([
        "check", gas0_path, "-f", "provide_gas", "--all", "--json", str(report_path)
    ])
    rep = json.loads(report_path.read_text())
    assert rep["formula"] == "provide_gas"
    assert set(rep["results"]["worlds"]) == {"g1", "g2", "g3", "g4", "g5"}
    out = capsys.readouterr().out
    for w, entry in rep["results"]["worlds"].items():
        assert f"{w}: {'true' if entry['holds'] else 'false'}" in out


def test_json_report_deterministic_modulo_timing(tmp_path, gas0_path):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["analyze", gas0_path, "--org", "Ogas", "--json", str(p1)])
    main(["analyze", gas0_path, "--org", "Ogas", "--json", str(p2)])
    a = json.loads(p1.read_text())
    b = json.loads(p2.read_text())
    a.pop("timing_s"), b.pop("timing_s")
    assert a == b


def test_bundled_fixture_names_resolve(capsys):
    assert main(["validate", "gas0prime"]) == 0


@pytest.mark.parametrize("doc", [
    {"facts": ["p"], "agents": ["a"], "worlds": [5]},
    {"facts": 5, "agents": ["a"], "worlds": [{"id": "w0"}]},
    {"facts": ["p"], "agents": ["a"], "worlds": [{"id": "w0"}], "capabilities": []},
    {"facts": ["p"], "agents": ["a"], "roles": ["r"], "worlds": [{"id": "w0"}],
     "orgs": [{"id": "O", "roles": ["r"], "dep": [5]}]},
], ids=["world-not-object", "facts-not-list", "capabilities-not-object", "scalar-dep"])
def test_malformed_model_exits_two_without_traceback(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("formula, message", [
    ("C[zz] p", "unknown agent"),
    ("C[zz:r] p", "unknown agent"),
    ("C[a:zz] p", "unknown role"),
])
def test_check_unknown_capability_holder_exits_two(capsys, formula, message):
    assert main(["check", fixture_path("fig1"), "-f", formula]) == 2
    assert message in capsys.readouterr().err


# No organization has an enactor of q, so no holder reaches the goal.
UNENACTED_ROLE = {
    "facts": ["p"], "agents": ["a"], "roles": ["r", "q"],
    "worlds": [{"id": "w0", "facts": []}, {"id": "w1", "facts": ["p"]}],
    "transitions": [{"from": "w0", "to": "w1", "labels": []}],
    "orgs": [{"id": "O", "members": ["a"], "roles": ["r", "q"], "rea": [["a", "r"]]}],
    "config": {"totality": "self-loop"},
}


@pytest.mark.parametrize("model, formula", [
    pytest.param(model, formula, id=formula) for model, formula in [
        ("gas0", "desire(Ogas, zz) | know(Ogas, zz) | incharge(Ogas, trader, zz)"),
        ("gas0", "desire(Ogas, buy_gas & zz)"),
        ("gas0", "know(Ogas, !zz)"),
        ("gas0", "incharge(Ogas, trader, zz)"),
        (UNENACTED_ROLE, "I[q] zz"),
    ]
])
def test_check_unknown_fact_exits_two(tmp_path, capsys, model, formula):
    if isinstance(model, dict):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(model))
        model = str(path)
    assert main(["check", model, "-f", formula, "--all"]) == 2
    err = capsys.readouterr().err
    assert "unknown fact 'zz'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["analyze", "gas0", "--org", "Ogas"],
    ["axioms", "gas0"],
])
def test_non_string_pool_entry_exits_two(tmp_path, capsys, argv):
    pool = tmp_path / "p.json"
    pool.write_text('["provide_gas", 5]')
    assert main(argv + ["--pool", str(pool)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: pool entry 1 ")
    assert "Traceback" not in err


def _lao(argv, hash_seed=0):
    """Run `lao` in a fresh interpreter, so that neither this process's
    hash seed nor its stack depth reaches the command."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lao.__file__)))
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "lao.cli", *argv], env=env, capture_output=True, text=True,
    )


# With several unknown names, the first in field order, a set's names
# sorted and a body's facts in conjunct order, is the one reported.
@pytest.mark.parametrize("formula, message", [
    ("desire(Ogas, zz & yy)", "unknown fact 'zz'"),
    ("incharge(Ogas, trader, zz & yy)", "unknown fact 'zz'"),
    ("I[{zz,yy}] provide_gas", "unknown role 'yy'"),
    ("dep(Ogas, {zz,yy}, trader)", "unknown role 'yy'"),
    ("C[{zz,yy}] provide_gas", "unknown agent 'yy'"),
])
def test_unknown_name_message_does_not_depend_on_hash_seed(formula, message):
    for hash_seed in (0, 123):
        done = _lao(["check", "gas0", "-f", formula], hash_seed)
        assert (done.returncode, done.stderr) == (2, f"error: {message}\n"), hash_seed


@pytest.mark.parametrize("formula, code", [
    ("!" * 450 + "p", 0),
    (" & ".join(["p"] * 450), 0),
    ("!" * 500 + "p", 2),
    (" & ".join(["p"] * 500), 2),
    ("(" * 1100 + "p" + ")" * 1100, 2),
], ids=["450-not", "450-and", "500-not", "500-and", "1100-paren"])
def test_deeply_nested_formula_exits_two_without_traceback(formula, code):
    done = _lao(["check", "fig1", "-f", formula, "--world", "w1"])
    assert done.returncode == code
    if code == 2:
        assert done.stderr == "error: formula nested too deeply\n"
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("argv, message", [
    (["validate", "{deep}"], "model file nested too deeply"),
    (["analyze", "gas0", "--org", "Ogas", "--pool", "{deep}"], "pool file nested too deeply"),
], ids=["model", "pool"])
def test_deeply_nested_json_file_is_not_a_formula_error(tmp_path, argv, message):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    done = _lao([a.format(deep=deep) for a in argv])
    assert (done.returncode, done.stderr) == (2, f"error: {message}\n")
