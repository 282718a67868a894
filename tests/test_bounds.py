"""Resource-bound behaviour: infinite-dimensional inputs, infinite
projective dimension, and their exit codes through the CLI."""

import json
from pathlib import Path

import pytest

import gen
from smc_kit.algebra import global_dimension, projective_dimension
from smc_kit.cli import main, parse_workspace
from smc_kit.config import BoundExceeded
from smc_kit.homotopy import resolve_module
from smc_kit.recollement import build_recollement


def test_infinite_projective_dimension_detected():
    A = gen.self_injective_cycle_algebra()
    assert A.dim == 4
    with pytest.raises(BoundExceeded):
        resolve_module(A.simple_module(0), pd_bound=16)
    assert projective_dimension(A.simple_module(0), 16) is None
    assert global_dimension(A, bound=16) is None


def test_recollement_rejects_infinite_gldim():
    A = gen.self_injective_cycle_algebra()
    with pytest.raises(BoundExceeded):
        build_recollement(A, [0])


def test_cli_exit_3_on_bound(tmp_path, capsys):
    doc = {
        "schema": "smc-kit/1",
        "field": 32003,
        "algebras": {
            "A": {
                "vertices": ["1", "2"],
                "arrows": [
                    {"label": "x", "source": "1", "target": "2"},
                    {"label": "y", "source": "2", "target": "1"},
                ],
                "relations": [],
            }
        },
        "smcs": {"std": {"algebra": "A", "objects": ["simple:1", "simple:2"]}},
    }
    p = tmp_path / "cyclic.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p), "std"]) == 3
    err = capsys.readouterr().err
    assert "resource bound" in err


# Over F_2 the syzygies of the simple at 1 roughly double their projective
# summands every degree, so the summand cap (passed at degree -16), not the
# pd bound of 32, ends the resolution.
GROWTH_WS = {
    "schema": "smc-kit/1",
    "field": 2,
    "algebras": {
        "A": {
            "vertices": ["1", "2", "3", "4"],
            "arrows": [
                {"label": "a", "source": "1", "target": "2"},
                {"label": "b", "source": "1", "target": "3"},
                {"label": "c", "source": "2", "target": "4"},
                {"label": "d", "source": "3", "target": "4"},
                {"label": "x", "source": "4", "target": "1"},
            ],
            "relations": ["a*c*x", "b*d*x", "x*a", "x*b"],
        }
    },
}


def test_cli_exit_3_on_summand_cap(tmp_path, capsys):
    p = tmp_path / "growth.json"
    p.write_text(json.dumps(GROWTH_WS))
    assert main(["hom", str(p), "A", "simple:1", "proj:1"]) == 3
    assert "summand cap" in capsys.readouterr().err


def test_recollement_names_the_summand_cap():
    A = parse_workspace(GROWTH_WS).algebras["A"]
    assert A.dim == 13
    with pytest.raises(BoundExceeded, match="summand cap"):
        build_recollement(A, [0])
