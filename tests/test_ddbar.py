import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgkit.ddbar import (
    Bicomplex,
    ddbar_condition_check,
    formality_zigzag,
    homotopy_abelian_verdict,
    induced_differential_triviality,
    is_ddbar_algebra,
    strong_lemma_check,
    sum_twist,
)
from dgkit.errors import PreconditionError
from dgkit.graded import (
    GradedMap,
    GradedSpace,
    StructuredAlgebra,
    algebra_map_witness,
    cohomology,
)
from dgkit.models import dots_squares_model, end_tensor, torus_model, zigzag_model
from dgkit.scalars import ONE, Scalar
from strategies import commutator_lie, graded_maps, graded_spaces, random_algebras



def zero_pair(space_dict, kind="associative", structure=None):
    space = GradedSpace(space_dict)
    zero = GradedMap.zero(space, space, 1)
    alg = StructuredAlgebra(space, kind, {"d0": zero, "d1": zero}, structure or {})
    return Bicomplex(alg, "d0", "d1")


def test_zero_differentials_all_conditions_pass():
    b = zero_pair({0: ["x"], 1: ["y", "z"]})
    v = strong_lemma_check(b)
    assert v.strong_lemma and v.condition_b and v.condition_bstar
    assert v.condition_c and v.condition_cstar


def test_square_model_passes_b_and_bstar(square):
    v = ddbar_condition_check(Bicomplex(square, "d0", "d1"))
    assert v.condition_b and v.condition_bstar and v.strong_lemma


def test_zigzag_fails_with_witness():
    v = strong_lemma_check(zigzag_model(0))
    assert not v.strong_lemma and not v.condition_b
    # the witness is the middle vector of the zigzag
    assert v.witnesses["b"]["vector"][0][0] == "z0b"


def test_conditions_agree_with_subcomplex_route():
    for seed in range(5):
        b = dots_squares_model({0: 1, 1: 2}, [0, 1], seed=seed)
        v = ddbar_condition_check(b)
        for row in v.per_degree:
            assert row.b == row.c and row.bstar == row.cstar


def test_strong_equals_b_and_bstar_on_mixed_models():
    for seed in range(5):
        b = dots_squares_model({0: 1}, [0], [1], seed=seed)
        v = strong_lemma_check(b)
        assert v.strong_lemma == (v.condition_b and v.condition_bstar)


def test_swapping_differentials_preserves_the_lemma():
    b = dots_squares_model({0: 2, 2: 1}, [0, 0, 1], seed=9)
    assert strong_lemma_check(b).strong_lemma
    assert strong_lemma_check(Bicomplex(b.algebra, b.d1_name, b.d0_name)).strong_lemma


def test_invariant_failure_rejected():
    space = GradedSpace({0: ["x"], 1: ["y"], 2: ["z"]})
    d0 = GradedMap.from_entries(space, space, 1, [("x", "y", ONE), ("y", "z", ONE)])
    d1 = GradedMap.zero(space, space, 1)
    alg = StructuredAlgebra(space, "associative", {"d0": d0, "d1": d1}, {})
    with pytest.raises(PreconditionError):
        strong_lemma_check(Bicomplex(alg, "d0", "d1"))


# -- induced differentials ----------------------------------------------------


def test_induced_differentials_vanish_on_strong_models(square):
    rep = induced_differential_triviality(Bicomplex(square, "d0", "d1"))
    assert rep.d0_on_h_d1_zero and rep.d1_on_h_d0_zero


def test_zero_differentials_induce_zero():
    rep = induced_differential_triviality(zero_pair({0: ["x"], 1: ["y"]}))
    assert rep.d0_on_h_d1_zero and rep.d1_on_h_d0_zero


def test_zigzag_induced_map_detected_nonzero():
    rep = induced_differential_triviality(zigzag_model(0))
    assert not rep.condition_b_holds and not rep.d0_on_h_d1_zero
    assert rep.d1_on_h_d0_zero  # b* holds for the zigzag


# -- formality ----------------------------------------------------------------


def test_formality_zero_differentials_identity_zigzag(exterior2):
    space = exterior2.space
    zero = GradedMap.zero(space, space, 1)
    alg = StructuredAlgebra(space, "associative", {"d0": zero, "d1": zero},
                            exterior2.structure)
    zig = formality_zigzag(Bicomplex(alg, "d0", "d1"))
    assert zig.certified
    assert zig.h_d0.dims() == {0: 1, 1: 2, 2: 1}
    # ker(d1) is everything, so the zig-zag collapses to identities
    assert zig.a1_algebra.space.total_dim() == space.total_dim()


def test_formality_dots_squares_dims_are_dot_counts():
    b = dots_squares_model({0: 2, 1: 3}, [0, 1], seed=2)
    zig = formality_zigzag(b)
    # unit + dots survive in cohomology; squares are acyclic for both
    expected = {0: 3, 1: 3}
    assert zig.h_d0.dims() == expected
    assert zig.h_d0_a1.dims() == expected
    assert zig.h_d1.dims() == expected


def test_formality_end_tensor_r2():
    b = end_tensor(dots_squares_model({0: 1, 1: 1}, [0], seed=5), 2)
    zig = formality_zigzag(b)
    assert zig.certified
    assert all(m.passed for m in zig.morphism_checks.checks)


def test_formality_requires_the_strong_lemma():
    with pytest.raises(PreconditionError):
        formality_zigzag(zigzag_model(0))


def test_sum_twist_stays_strong():
    b = dots_squares_model({0: 1, 1: 1}, [0, 1], seed=7)
    twisted = sum_twist(b)
    assert strong_lemma_check(twisted).strong_lemma
    assert twisted.d0 == b.d0.add(b.d1)


def test_sum_twist_rejects_non_strong_input():
    with pytest.raises(PreconditionError):
        sum_twist(zigzag_model(1))


# -- homotopy abelian ---------------------------------------------------------


def test_gl2_formal_but_not_homotopy_abelian(gl2):
    lie = commutator_lie(gl2)
    space = lie.space
    zero = GradedMap.zero(space, space, 1)
    pair = StructuredAlgebra(space, "lie", {"d0": zero, "d1": zero}, lie.structure)
    cert = formality_zigzag(Bicomplex(pair, "d0", "d1"))
    verdict = homotopy_abelian_verdict(lie, "d", cert)
    assert verdict.formal is True
    assert verdict.induced_bracket_trivial is False
    assert verdict.homotopy_abelian is False


def test_dots_only_abelian_model_is_homotopy_abelian():
    b = dots_squares_model({0: 2, 1: 2}, [], seed=0, unit=False)
    lie = commutator_lie(b.algebra)
    cert = formality_zigzag(Bicomplex(lie, "d0", "d1"))
    verdict = homotopy_abelian_verdict(lie, "d0", cert)
    assert verdict.homotopy_abelian is True


def test_missing_certificate_gives_unknown(gl2):
    lie = commutator_lie(gl2)
    verdict = homotopy_abelian_verdict(lie, "d", None)
    assert verdict.homotopy_abelian is None
    assert "unknown" in verdict.note


# -- the former dense algebra-map loops as oracles -------------------------------


def ref_dense_algebra_map_witness(f, src, tgt):
    """The former formality check that f(x*y) = f(x)*f(y) on basis pairs,
    with dense products."""
    labels = [(l, src.space.degree_of(l)) for l in src.space.all_labels()]
    for l1, k1 in labels:
        _, v1 = src.space.basis_vector(l1)
        f1 = f.apply(k1, v1)
        for l2, k2 in labels:
            _, v2 = src.space.basis_vector(l2)
            lhs = f.apply(k1 + k2, src.mul(k1, v1, k2, v2))
            rhs = tgt.mul(k1, f1, k2, f.apply(k2, v2))
            if lhs != rhs:
                return {"pair": [l1, l2]}
    return None


def ref_induced_algebra_map_ok(mats, src_h, tgt_h):
    """Whether the cohomology-level map with blocks mats is an algebra
    morphism, on dense products of unit vectors: the oracle of the theorem
    that a product-preserving chain map induces a product-preserving map on
    cohomology."""
    src_alg = src_h.as_algebra()
    tgt_alg = tgt_h.as_algebra()
    for k1 in src_alg.space.degrees():
        for k2 in src_alg.space.degrees():
            k = k1 + k2
            m1, m2, mk = mats.get(k1), mats.get(k2), mats.get(k)
            for i in range(src_alg.space.dim(k1)):
                for j in range(src_alg.space.dim(k2)):
                    _, vi = src_alg.space.basis_vector(src_alg.space.labels(k1)[i])
                    _, vj = src_alg.space.basis_vector(src_alg.space.labels(k2)[j])
                    prod = src_alg.mul(k1, vi, k2, vj)
                    lhs = mk.apply(prod) if mk is not None else {}
                    fi = m1.column(i) if m1 is not None else {}
                    fj = m2.column(j) if m2 is not None else {}
                    if lhs != tgt_alg.mul(k1, fi, k2, fj):
                        return False
    return True


map_oracle = settings(max_examples=100, deadline=None)


@map_oracle
@given(random_algebras(), st.data())
def test_algebra_map_witness_matches_the_dense_loop(src, data):
    tgt = data.draw(random_algebras(data.draw(graded_spaces("q"))))
    f = data.draw(graded_maps(src.space, tgt.space))
    assert algebra_map_witness(src, f, tgt) == ref_dense_algebra_map_witness(f, src, tgt)


LAST = ("dz1^dz2^dzb1^dzb2|E1_1", "1|E1_1")
UNPAIRED = ("dz2^dzb1^dzb2|E1_1", "dzb2|E1_1")  # no product in the torus


# the identity is multiplicative on every pair but one: a doubled and a
# dropped product fail where the source has a product, an added one where
# only the target has one
@pytest.mark.parametrize("pair, targets", [
    (LAST, {"dz1^dz2^dzb1^dzb2|E1_1": Scalar(2)}),
    (LAST, {}),
    (UNPAIRED, {"dz1^dz2^dzb1^dzb2|E1_1": ONE}),
], ids=["doubled", "dropped", "added"])
def test_algebra_map_witness_finds_a_late_failure_like_the_dense_loop(pair, targets):
    src = torus_model(1).full_model
    structure = dict(src.structure)
    structure[pair] = targets
    tgt = StructuredAlgebra(src.space, "associative", {}, structure)
    f = GradedMap.identity(src.space)
    witness = algebra_map_witness(src, f, tgt)
    assert witness == ref_dense_algebra_map_witness(f, src, tgt) == {"pair": list(pair)}
    assert algebra_map_witness(src, f, src) is None


@pytest.mark.parametrize("b", [
    dots_squares_model({0: 2, 1: 3}, [0, 1], seed=2),
    dots_squares_model({0: 2, 1: 1, 2: 2}, [0], seed=3),
    end_tensor(dots_squares_model({0: 1, 1: 1}, [0], seed=5), 2),
], ids=["ds_2_3", "ds_2_1_2", "end_tensor"])
def test_formality_product_checks_match_the_dense_loops(b):
    zig = formality_zigzag(b)
    checks = {c.name: c.witness for c in zig.morphism_checks.checks}
    assert checks["inclusion preserves product"] is None
    assert checks["projection preserves product"] is None
    assert ref_dense_algebra_map_witness(zig.inclusion, zig.a1_algebra, b.algebra) is None
    assert ref_dense_algebra_map_witness(zig.projection, zig.a1_algebra, zig.h_algebra) is None
    # the induced maps preserve the induced products: a theorem of the two
    # chain-level checks, here checked on dense products
    h_h = cohomology(zig.h_algebra, b.d0_name)
    assert zig.to_json()["product_preserved_on_cohomology"] is True
    assert ref_induced_algebra_map_ok(zig.iota_certificate.matrices, zig.h_d0_a1, zig.h_d0)
    assert ref_induced_algebra_map_ok(zig.rho_certificate.matrices, zig.h_d0_a1, h_h)


# -- one verdict per bicomplex ------------------------------------------------


def test_is_ddbar_algebra_leaves_the_shared_verdict_alone():
    """d0(x) = y with x * x = x is square-zero but no derivation:
    d0(x * x) = y while d0(x) * x + x * d0(x) = 0."""
    space = GradedSpace({0: ["x"], 1: ["y"]})
    d0 = GradedMap.from_entries(space, space, 1, [("x", "y", ONE)])
    alg = StructuredAlgebra(space, "associative",
                            {"d0": d0, "d1": GradedMap.zero(space, space, 1)},
                            StructuredAlgebra.structure_from_triples([("x", "x", "x", ONE)]))
    b = Bicomplex(alg, "d0", "d1")

    def frozen(verdict):  # to_json shares the verdict's witness dict
        return json.dumps(verdict.to_json(), sort_keys=True)

    before = frozen(strong_lemma_check(b))
    got = is_ddbar_algebra(b)
    assert got.is_ddbar_algebra is False
    assert got.witnesses["derivation"]["name"] == "Leibniz(d0)"
    assert frozen(strong_lemma_check(b)) == before
    assert "derivation" not in before and "is_ddbar_algebra" not in before
    assert frozen(is_ddbar_algebra(b)) == frozen(got)
    assert strong_lemma_check(b) is strong_lemma_check(b)
    with pytest.raises(AttributeError):
        got.strong_lemma = True


# sha256 and exit code of the `--format json` reports, run in the directory of
# the model files; recorded before the strong-lemma verdict was cached per
# bicomplex and the complement-and-projection copies were merged
VERDICT_REPORT_SHA256 = {
    ("dgms", "torus_r2.model", "--d0", "del", "--d1", "del_bar"):
        (0, "2fdc5c4e49a2d96db120495263c80f9a8680a3962df69e14e37a0b6437e4cb70"),
    ("spectral", "torus_r2.model"):
        (0, "df2348ed03187f094a0619eb48776c759adc2b16eca79d330c60f590fefc115a"),
    ("qdolbeault", "torus_r2.model", "--phi"):
        (0, "34ae7de969da30d7586b33795ba7020a3b817fc18cc65d83ccb2f727e851f445"),
    ("dgms", "twisted_r2.model", "--d0", "del", "--d1", "del_bar"):
        (1, "77ed8a28493cdde0a4550aebff8cd20ca4a9a63ce7d338c3e34746b275e10b65"),
    ("spectral", "twisted_r2.model"):
        (0, "7f8fd9f66bcd47349b74a33d61565c223b1056cce25e40d7e63df18d4d5c97d5"),
    ("qdolbeault", "twisted_r2.model", "--phi"):
        (0, "d38bae68d966c587fcaf106a0f6499188ea5cd22f88b6a529a263f98a70161b0"),
    ("dgms", "ds.model"):
        (0, "4d19bab40aa11badc0ea4b49aeec143f644a981343787ea05ce7562b1bfde350"),
    ("formality", "ds.model"):
        (0, "d9ba2295088be4ed5a7e723091387a7117903d19278d1d8f13616099d6fd360c"),
    ("cohomology", "ds.model"):
        (0, "f26948889f67c49ca6b4ffb135d6f85895dfea64f195024649555a8739fb360b"),
    # recorded before the axiom checks walked only the tuples with a
    # non-zero side
    ("validate", "torus_r1.model"):
        (0, "93b390f252964bea0507276fff54ec8c2f21256d77e994693b9138bb388a69f2"),
    ("validate", "torus_r2.model"):
        (0, "fca8798310e5d3464f8a8b65e196ad905ccd93860fb22bda865deef708be1984"),
    ("validate", "torus_r3.model"):
        (0, "5e4511622bbb9dffac9149fb4048d074080f87d30d78769aca7da0b53012c25b"),
    ("validate", "twisted_r2.model"):
        (0, "42cf443df9758a6f401a5166303440b0dcbbd52edce015b8d13eb86d6df52e68"),
}


@pytest.fixture(scope="module")
def verdict_models(cli_run):
    """cli_run in a directory holding the rank-1 to rank-3 tori, the rank-2
    nilpotent twist and a gl(2)-tensored dots-squares model."""
    for argv in (("torus", "--rank", "1", "-o", "torus_r1.model"),
                 ("torus", "--rank", "2", "-o", "torus_r2.model"),
                 ("torus", "--rank", "3", "-o", "torus_r3.model"),
                 ("torus", "--rank", "2", "--nilpotent-twist", "-o", "twisted_r2.model"),
                 ("dots-squares", "--dots", "0:1,1:2,2:1", "--squares", "0",
                  "--end-rank", "2", "--seed", "5", "-o", "ds.model")):
        assert cli_run("generate", *argv)[0] == 0
    return cli_run


@pytest.mark.parametrize("argv", list(VERDICT_REPORT_SHA256),
                         ids=[" ".join(a[:2]) for a in VERDICT_REPORT_SHA256])
def test_strong_lemma_reports_are_pinned(verdict_models, argv):
    code, out = verdict_models("--format", "json", *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == VERDICT_REPORT_SHA256[argv]
