import json
import subprocess
import sys
from pathlib import Path

import pytest

from smc_kit import cli, smc
from smc_kit.config import InvariantError
from smc_kit.homotopy import hom_window
from smc_kit.cli import (
    build_parser,
    load_workspace,
    main,
    parse_workspace,
    serialize_complex,
)

ROOT = Path(__file__).resolve().parent.parent
A2_WS = str(ROOT / "fixtures" / "a2.json")
TC_WS = str(ROOT / "fixtures" / "two_cycle.json")


def test_fixture_workspaces_parse():
    for path in (A2_WS, TC_WS):
        ws = load_workspace(path)
        assert ws.smc_docs and ws.recollement_docs
        for name in ws.recollement_docs:
            assert ws.recollement(name).validated
        for name, sdoc in ws.smc_docs.items():
            assert len(ws.smc(name)) == len(sdoc["objects"])


def test_round_trip():
    # complexes written back with serialize_complex parse to the same complexes
    ws = load_workspace(TC_WS)
    doc = json.loads(Path(TC_WS).read_text())
    doc["complexes"] = {
        name: {**serialize_complex(ws.resolve_algebra(alg_name),
                                   ws.named_complex(name)),
               "algebra": alg_name}
        for name, (alg_name, _, _) in ws.complex_docs.items()}
    ws2 = parse_workspace(doc)
    assert set(ws2.smc_docs) == set(ws.smc_docs)
    assert set(ws2.complex_docs) == set(ws.complex_docs)
    for name, (alg_name, _, _) in ws.complex_docs.items():
        c1, c2 = ws.named_complex(name), ws2.named_complex(name)
        assert c1.terms == c2.terms and c1.diffs == c2.diffs
        # serialize is stable
        assert serialize_complex(ws2.resolve_algebra(alg_name), c2) == \
            serialize_complex(ws.resolve_algebra(alg_name), c1)


def test_validate_command_exit_codes(capsys):
    assert main(["validate", TC_WS, "standard"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out
    assert main(["validate", TC_WS, "naive_lower"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert main(["validate", TC_WS, "naive_upper"]) == 1


def test_validate_json_output(capsys):
    assert main(["--json", "validate", TC_WS, "standard"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["passed"] is True


def test_validate_corner_and_quotient_algebras_have_no_field_note(capsys):
    for name in ("xstd", "ystd"):
        assert main(["--json", "validate", TC_WS, name]) == 0
        notes = json.loads(capsys.readouterr().out)["report"]["notes"]
        assert not any("structure constants" in note for note in notes)


def test_unknown_names_exit_2(capsys):
    assert main(["validate", TC_WS, "nosuch"]) == 2
    assert main(["glue", TC_WS, "nosuch", "xstd", "ystd"]) == 2


def test_malformed_differential_names_degree(tmp_path, capsys):
    doc = json.loads(Path(TC_WS).read_text())
    # beta then alpha*beta composes to a nonzero path, so d^2 != 0
    doc["complexes"]["bad"] = {
        "algebra": "A",
        "terms": {"0": ["2"], "1": ["1"], "2": ["2"]},
        "diffs": {"0": [["beta"]], "1": [["alpha"]]},
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p), "standard"]) == 2
    err = capsys.readouterr().err
    assert "d^2" in err and "degree" in err


def test_misread_labels_and_zero_denominators_exit_2(tmp_path, capsys):
    # with arrows a, b and a-b, the entry "a-b" used to parse as a - b
    doc = json.loads(Path(A2_WS).read_text())
    doc["algebras"]["A"]["arrows"] = [{"label": lab, "source": "1", "target": "2"}
                                      for lab in ("a", "b", "a-b")]
    doc["complexes"] = {"X": {"algebra": "A", "terms": {"0": ["2"], "1": ["1"]},
                              "diffs": {"0": [["a-b"]]}}}
    p = tmp_path / "labels.json"
    p.write_text(json.dumps(doc))
    assert main(["hom", str(p), "A", "X", "proj:1"]) == 2
    assert "'a-b'" in capsys.readouterr().err
    # a coefficient whose denominator is 0 in the field
    for field, entry in (("32003", "1/0*a"), ("2", "1/2*a"), ("rationals", "1/0*a")):
        doc = json.loads(Path(A2_WS).read_text())
        doc["complexes"] = {"X": {"algebra": "A", "terms": {"0": ["2"], "1": ["1"]},
                                  "diffs": {"0": [[entry]]}}}
        p.write_text(json.dumps(doc))
        assert main(["--field", field, "hom", str(p), "A", "X", "proj:1"]) == 2
        assert "zero denominator" in capsys.readouterr().err


def test_glue_command(capsys):
    assert main(["glue", A2_WS, "R", "xstd", "ystd"]) == 0
    out = capsys.readouterr().out
    assert "validation: pass" in out
    assert "iso to dual route: True" in out
    assert main(["--json", "glue", A2_WS, "R", "xstd", "ystd", "--dual"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["route"] == "dual"
    assert payload["validation"]["passed"] is True
    assert payload["iso_to_other_route"] is True


def test_invariant_error_exits_4(monkeypatch, capsys):
    def breach(S):
        raise InvariantError("forced breach")

    monkeypatch.setattr(cli, "validate_smc", breach)
    assert main(["validate", TC_WS, "standard"]) == 4
    assert "forced breach" in capsys.readouterr().err


def test_order_of_non_collections_is_a_check_failure(tmp_path, capsys):
    # [S1] and [S2] over A_2 dominate each other without being isomorphic:
    # mutual dominance forces isomorphism only between collections, so this
    # says an input is not one, and is no internal bug
    doc = json.loads(Path(A2_WS).read_text())
    doc["smcs"].update({
        "t1": {"algebra": "A", "objects": ["simple:1"]},
        "t2": {"algebra": "A", "objects": ["simple:2"]},
        "t11": {"algebra": "A", "objects": ["simple:1", "simple:1"]},
        "t22": {"algebra": "A", "objects": ["simple:2", "simple:2"]},
    })
    p = tmp_path / "ws.json"
    p.write_text(json.dumps(doc))
    for a, b in (("t1", "t2"), ("t11", "t22")):
        assert main(["order", str(p), a, b]) == 1
        err = capsys.readouterr().err
        assert "not a simple-minded collection" in err and "a bug" not in err
    assert main(["--json", "order", A2_WS, "standard", "glued_order"]) == 0
    assert json.loads(capsys.readouterr().out) == {"relation": "equal"}


def test_mutate_command(capsys):
    assert main(["--json", "mutate", A2_WS, "glued_order", "0", "left"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # {S2, S1} mutates to {S2[1], P1}: second object becomes the projective stalk
    terms = payload["objects"][1]["terms"]
    assert terms == {"0": ["1"]}


def test_mutate_force_required(tmp_path, capsys):
    doc = json.loads(Path(A2_WS).read_text())
    # S1 (+) S1[-1] as one explicit complex: it has a degree-one
    # self-extension, so mutation at it must be refused without force
    doc["complexes"] = {
        "nonrigid_obj": {
            "algebra": "A",
            "terms": {"-1": ["2"], "0": ["1", "2"], "1": ["1"]},
            "diffs": {"-1": [["a"], ["0"]], "0": [["0", "a"]]},
        }
    }
    doc["smcs"]["nonrigid"] = {"algebra": "A", "objects": ["nonrigid_obj"]}
    p = tmp_path / "ws.json"
    p.write_text(json.dumps(doc))
    assert main(["mutate", str(p), "nonrigid", "0", "left"]) == 1
    assert "force" in capsys.readouterr().err
    assert main(["mutate", str(p), "nonrigid", "0", "left", "--force"]) == 0


def _set(path, value):
    """A workspace edit: the a2 fixture with the entry at path set to value."""
    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
    return edit


_X = ("complexes", "X")


@pytest.mark.parametrize("edit, named", [
    (_set(_X, {"algebra": "A", "terms": {"x": ["1"]}}), "degree 'x'"),
    (_set(_X, {"algebra": "A", "terms": {"0": ["2"], "1": ["1"]},
               "diffs": {"one": [["a"]]}}), "degree 'one'"),
    (_set(("algebras", "A", "relations"), [1]), "'relations': entry 1"),
    (_set(("smcs", "standard", "objects"), ["simple:1", 2]), "'objects': entry 2"),
    (_set(("algebras",), []), "'algebras' must be a JSON object"),
    (_set(("smcs",), "standard"), "'smcs' must be a JSON object"),
    (_set(("algebras", "A", "arrows"), ["a"]), "arrow must be a JSON object"),
    (_set(("algebras", "A", "vertices"), "12"), "'vertices' must be a JSON list"),
    (_set(("recollements", "R", "idempotents"), "1"), "'idempotents' must be a JSON list"),
    (_set(("smcs", "standard", "objects"), "simple:1"), "'objects' must be a JSON list"),
    (_set(_X, {"algebra": "A", "terms": {"0": "2"}}), "term '0' must be a JSON list"),
])
def test_workspace_schema_errors_exit_2(tmp_path, capsys, edit, named):
    doc = json.loads(Path(A2_WS).read_text())
    edit(doc)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p), "standard"]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--pd-bound", "-1", "hom", A2_WS, "A", "proj:1", "proj:2"],
    ["truncate", TC_WS, "standard", "S1res", "--threshold", "0", "--strip-cap", "-1"],
    ["truncate", TC_WS, "standard", "S1res", "--strip-cap", "-1"],
])
def test_negative_resource_flags_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "is negative" in capsys.readouterr().err


def test_order_command(capsys):
    assert main(["order", A2_WS, "standard", "glued_order"]) == 0
    out = capsys.readouterr().out
    assert "standard = glued_order" in out


def test_truncate_command(capsys):
    assert main(["--json", "truncate", TC_WS, "standard", "S1res"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["threshold"] == 1
    # S1res is the resolved simple: already in the aisle, nothing stripped
    assert payload["strip_log"] == []


def test_truncate_honours_strip_cap(capsys):
    # threshold 0 strips a layer, which a cap of 0 forbids
    assert main(["truncate", TC_WS, "standard", "S1res", "--threshold", "0",
                 "--strip-cap", "0"]) == 3
    assert "strip cap 0 exceeded" in capsys.readouterr().err


def test_truncate_asks_only_for_degrees_in_the_hom_window(monkeypatch, capsys):
    hom_dims = smc.hom_dims

    def checked(X, Y, degrees):
        # fail at once rather than walk a billion degrees
        lo, hi = hom_window(X, Y)
        assert not degrees or lo <= degrees[0] <= degrees[-1] <= hi, (degrees, lo, hi)
        return hom_dims(X, Y, degrees)

    monkeypatch.setattr(smc, "hom_dims", checked)
    for far, near in (("1000000000", "10"), ("-1000000000", "-10")):
        payloads = []
        for threshold in (far, near):
            assert main(["--json", "truncate", TC_WS, "standard", "S1res",
                         f"--threshold={threshold}"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload.pop("threshold") == int(threshold)
            payloads.append(payload)
        assert payloads[0] == payloads[1]


def test_strip_cap_is_not_a_global_flag():
    # glue truncates with the default cap, so it does not accept the flag
    with pytest.raises(SystemExit) as exc:
        main(["--strip-cap", "0", "glue", A2_WS, "R", "xstd", "ystd"])
    assert exc.value.code == 2


def test_hom_command(capsys):
    assert main(["--json", "hom", TC_WS, "A", "simple:2", "proj:1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dims"].get("0") == 1


@pytest.mark.parametrize("argv, code, builds", [
    (["validate", TC_WS, "standard"], 0, 0),
    (["validate", TC_WS, "naive_lower"], 1, 0),
    (["mutate", A2_WS, "glued_order", "0", "left"], 0, 0),
    (["order", A2_WS, "standard", "glued_order"], 0, 0),
    (["truncate", TC_WS, "standard", "S1res"], 0, 0),
    (["hom", TC_WS, "A", "simple:2", "proj:1"], 0, 0),
    # R is read three times (argument, R.x, R.y) and built once
    (["glue", A2_WS, "R", "xstd", "ystd"], 0, 1),
    (["glue", A2_WS, "R", "xstd", "ystd", "--dual"], 0, 1),
])
def test_recollements_are_built_only_when_read(monkeypatch, capsys, argv, code, builds):
    calls = []
    build = cli.build_recollement

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(cli, "build_recollement", counted)
    assert main(argv) == code
    assert len(calls) == builds


def test_pd_bound_applies_to_what_is_read(capsys):
    # the two-cycle algebra has global dimension 2, so its recollement
    # exceeds the bound, but hom between projective stalks never reads it
    assert main(["--pd-bound", "1", "hom", TC_WS, "A", "proj:1", "proj:2"]) == 0
    capsys.readouterr()
    assert main(["--pd-bound", "1", "glue", TC_WS, "R", "xstd", "ystd"]) == 3
    assert "resource bound exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("complexes, objects", [
    ({}, ["simple:9"]),
    ({"Xbad": {"algebra": "R.x", "terms": {"0": ["9"]}}}, ["Xbad"]),
])
def test_deferred_entry_errors_surface_when_read(tmp_path, capsys, complexes, objects):
    # entries over R.x are built only when read, so only glue meets the error
    doc = json.loads(Path(A2_WS).read_text())
    doc["complexes"] = complexes
    doc["smcs"]["xbad"] = {"algebra": "R.x", "objects": objects}
    p = tmp_path / "xbad.json"
    p.write_text(json.dumps(doc))
    assert main(["glue", str(p), "R", "xbad", "ystd"]) == 2
    assert "unknown vertex '9'" in capsys.readouterr().err
    assert main(["validate", str(p), "standard"]) == 0


def test_pd_bound_reaches_builtin_objects(tmp_path, capsys):
    # no recollement, so only the builtin simple:1 (pd 2) meets the bound
    doc = json.loads(Path(TC_WS).read_text())
    for key in ("recollements", "smcs"):
        del doc[key]
    p = tmp_path / "no_recollement.json"
    p.write_text(json.dumps(doc))
    assert main(["--pd-bound", "1", "hom", str(p), "A", "simple:1", "proj:1"]) == 3
    assert "resource bound" in capsys.readouterr().err
    assert main(["--pd-bound", "2", "hom", str(p), "A", "simple:1", "proj:1"]) == 0


def test_degenerate_workspace_glue_passthrough(tmp_path, capsys):
    doc = json.loads(Path(A2_WS).read_text())
    doc["recollements"]["full"] = {"algebra": "A", "idempotents": ["1", "2"]}
    doc["smcs"]["xempty"] = {"algebra": "full.x", "objects": []}
    doc["smcs"]["yall"] = {"algebra": "full.y", "objects": ["simple:1", "simple:2"]}
    p = tmp_path / "deg.json"
    p.write_text(json.dumps(doc))
    assert main(["--json", "glue", str(p), "full", "xempty", "yall"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["objects"]) == 2
    assert payload["validation"]["passed"] is True


def test_paper_examples_command(capsys):
    assert main(["paper-examples"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out


def test_paper_examples_honours_pd_bound(capsys):
    # the two-cycle fixture algebra has global dimension 2
    assert main(["--pd-bound", "1", "paper-examples"]) == 3
    assert "resource bound" in capsys.readouterr().err
    assert main(["paper-examples"]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_main_is_reentrant_over_the_shared_parser(capsys):
    assert build_parser() is build_parser()
    # a bound of 1 or --json left over from the first call would make the
    # second exit 3 (simple:1 has pd 2) or print JSON
    assert main(["--json", "--pd-bound", "1", "hom", TC_WS, "A", "proj:1", "proj:2"]) == 0
    json.loads(capsys.readouterr().out)
    assert main(["hom", TC_WS, "A", "simple:1", "proj:1"]) == 0
    assert capsys.readouterr().out.startswith("graded Hom dimensions")

    assert main(["glue", A2_WS, "R", "xstd", "ystd", "--dual"]) == 0
    assert "(dual route)" in capsys.readouterr().out
    assert main(["glue", A2_WS, "R", "xstd", "ystd"]) == 0
    assert "(primal route)" in capsys.readouterr().out

    assert main(["truncate", TC_WS, "standard", "S1res", "--threshold", "0",
                 "--strip-cap", "0"]) == 3
    assert main(["truncate", TC_WS, "standard", "S1res"]) == 0

    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["glue"])
        assert exc.value.code == 2


def test_console_script_entry():
    res = subprocess.run([sys.executable, "-m", "smc_kit.cli", "--help"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    assert "glue" in res.stdout
