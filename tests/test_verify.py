import random

import pytest

import claims
from smc_kit import verify
from smc_kit.fixtures import a2_fixture, random_recollement, two_cycle_fixture
from smc_kit.exactla import PrimeField
from smc_kit.smc import mutate, standard_smc

A2 = a2_fixture()
TC = two_cycle_fixture()


def test_run_paper_examples_all_pass():
    reports = verify.run_paper_examples()
    for r in reports:
        print(r.line())
    assert all(r.passed for r in reports), [r.line() for r in reports if not r.passed]


@pytest.mark.parametrize("field", [2, 32003, "Q"])
def test_first_paper_example_reads_its_hom_dimensions(field):
    # Hom(S2, eA) and Hom(I1, S2) over the two-cycle algebra, each read as
    # the degree-0 Hom between resolutions
    first = verify.run_paper_examples(field)[0]
    assert first.name == "naive corner images are not a collection"
    assert first.passed
    assert first.witness.startswith("dim Hom(S2,eA)=1, dim Hom(I1,S2)=1;")


def test_order_preservation_trivial_and_mutated():
    r = verify.check_order_preservation(A2.x_smc, A2.x_smc, A2.y_smc, A2.y_smc,
                                        A2.spec)
    assert r.passed
    xp, _ = mutate(A2.x_smc, 0, "left")
    yp, _ = mutate(A2.y_smc, 0, "left")
    r = verify.check_order_preservation(A2.x_smc, xp, A2.y_smc, yp, A2.spec)
    assert r.passed
    # shifted versions over the two-cycle algebra
    r = verify.check_order_preservation(TC.x_smc, TC.x_smc.shifted(1),
                                        TC.y_smc, TC.y_smc.shifted(1), TC.spec)
    assert r.passed


def test_order_preservation_precondition():
    # the shift order runs S[-1] >= S >= S[1]; the reversed pair is not ordered
    r = verify.check_order_preservation(A2.x_smc.shifted(1), A2.x_smc.shifted(-1),
                                        A2.y_smc, A2.y_smc, A2.spec)
    assert r.status == "precondition-failed"


def test_mutation_order_chain():
    for fix in (A2, TC):
        std = fix.standard
        for i in range(len(std)):
            assert claims.check_mutation_order_chain(std, i).passed
    # degenerate one-object collection
    one = standard_smc(A2.spec.y_algebra)
    assert claims.check_mutation_order_chain(one, 0).passed


def test_conditional_order():
    std = A2.standard
    r = claims.check_conditional_order(std, std, 0, 0)
    assert r.status in ("pass", "hypothesis-failed")
    plus, _ = mutate(std, 0, "left")
    r = claims.check_conditional_order(std, plus, 0, 0)
    assert r.status in ("pass", "hypothesis-failed")
    r = claims.check_conditional_order(std, plus, 1, 1)
    assert r.status in ("pass", "hypothesis-failed")


def test_first_m_terms_examples():
    # condition true on the diagram (2) data, false on diagram (3)
    r = claims.check_first_m_terms(A2.x_smc.shifted(1), A2.y_smc.shifted(1),
                                   A2.spec, 0, "left")
    assert r.passed
    r = claims.check_first_m_terms(A2.x_smc.shifted(1), A2.y_smc, A2.spec,
                                   0, "left")
    assert r.passed


def test_intermediate_order_two_cycle():
    r = verify.check_intermediate_order(TC.x_smc, TC.y_smc, TC.spec, "y", 0)
    assert r.passed
    r = verify.check_intermediate_order(TC.x_smc, TC.y_smc, TC.spec, "x", 0)
    assert r.passed


def test_commute_x_side_unconditional():
    for fix in (A2, TC):
        r = verify.check_glue_mutation_commute(fix.x_smc, fix.y_smc, fix.spec,
                                               "x", 0, "left")
        assert r.passed
        r = verify.check_glue_mutation_commute(fix.x_smc, fix.y_smc, fix.spec,
                                               "x", 0, "right")
        assert r.passed


def test_random_recollement_generator():
    rng = random.Random(4)
    spec = random_recollement(PrimeField(32003), rng)
    assert spec is not None
    assert spec.validated


def test_paper_examples_over_rationals_same_pattern():
    over_p = verify.run_paper_examples(32003)
    over_q = verify.run_paper_examples("rationals")
    assert [(r.name, r.status) for r in over_p] == \
        [(r.name, r.status) for r in over_q]
    # determinism over the rationals: identical reports on a re-run
    again = verify.run_paper_examples("rationals")
    assert [(r.name, r.status, r.witness) for r in over_q] == \
        [(r.name, r.status, r.witness) for r in again]


def test_reports_have_witnesses_on_failure():
    # an unordered input produces a finite witness string
    r = verify.check_order_preservation(A2.x_smc.shifted(1), A2.x_smc.shifted(-1),
                                        A2.y_smc, A2.y_smc, A2.spec)
    assert r.witness
    d = r.to_dict()
    assert d["status"] == "precondition-failed"
