import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgkit.ddbar import strong_lemma_check
from dgkit.errors import InternalCheckError, ModelError, PreconditionError
from dgkit.graded import GradedMap, GradedSpace, StructuredAlgebra
from dgkit.linalg import Complement, Matrix, Subspace, add_multiple
from dgkit.models import (
    connection_from_bicomplex,
    dots_squares_model,
    end_tensor,
    nilpotent_torus_model,
    random_connection_model,
    torus_model,
    zigzag_model,
)
from dgkit.qdolbeault import (
    DEL,
    DEL_BAR,
    ConnectionModel,
    PhiCertificate,
    SpectralPages,
    autoduality_check,
    build_quaternionic_complex,
    double_complex_spectral_sequence,
    extended_strong_lemma_interior,
    phi_isomorphism,
    quaternionic_cohomology_check,
)
from dgkit.scalars import ONE, Scalar


def test_zero_operators_are_autodual():
    assert autoduality_check(torus_model(1)).autodual


def test_square_pair_is_autodual():
    m = connection_from_bicomplex(dots_squares_model({}, [0], seed=1, unit=False))
    rep = autoduality_check(m)
    assert rep.autodual


def test_anticommutator_violation_detected_with_witness():
    space = GradedSpace({0: ["a"], 1: ["b"], 2: ["c"]})
    del_bar = GradedMap.from_entries(space, space, 1, [("a", "b", ONE)])
    del_bar_j = GradedMap.from_entries(space, space, 1, [("b", "c", ONE)])
    alg = StructuredAlgebra(space, "associative",
                            {"del_bar": del_bar, "del_bar_J": del_bar_j}, {})
    rep = autoduality_check(ConnectionModel(alg))
    assert not rep.autodual
    failing = rep.relations.failures()
    assert failing and failing[0].witness["label"] == "a"


# -- building the total complex ----------------------------------------------


def test_torus_dims_follow_copy_count():
    q = build_quaternionic_complex(torus_model(1))
    assert {k: q.space.dim(k) for k in q.space.degrees()} == {0: 1, 1: 4, 2: 3}


def test_empty_model_builds_empty_complex():
    space = GradedSpace({})
    alg = StructuredAlgebra(space, "associative",
                            {"del_bar": GradedMap.zero(space, space, 1),
                             "del_bar_J": GradedMap.zero(space, space, 1)}, {})
    q = build_quaternionic_complex(ConnectionModel(alg))
    assert q.space.total_dim() == 0


def test_square_total_differential_squares_to_zero():
    m = connection_from_bicomplex(dots_squares_model({}, [0], seed=2, unit=False))
    q = build_quaternionic_complex(m)
    assert q.total_squares_to_zero()


def test_non_autodual_build_requires_flag():
    m, ok = random_connection_model(1, corrupt=True)
    assert not ok
    with pytest.raises(PreconditionError):
        build_quaternionic_complex(m)
    q = build_quaternionic_complex(m, allow_non_autodual=True)
    assert not q.total_squares_to_zero()


def test_d_squared_iff_autodual_over_seeds():
    for seed in range(12):
        m, expected = random_connection_model(seed, corrupt=(seed % 2 == 0))
        q = build_quaternionic_complex(m, allow_non_autodual=True)
        assert q.total_squares_to_zero() == expected == autoduality_check(m).autodual


def test_product_inherited_with_central_tags():
    q = build_quaternionic_complex(torus_model(1))
    alg = q.algebra
    # (x 1) * (y 1) = xy (1*1) in bidegree (1,1)
    l1 = "x1y0:dzb1|E1_1"
    l2 = "x0y1:dzb2|E1_1"
    prod = alg.mul_labels(l1, l2)
    assert prod == {"x1y1:dzb1^dzb2|E1_1": ONE}
    assert alg.validate_dg_algebra("total").passed


# -- cohomology factorization ---------------------------------------------------


def test_torus_factorization():
    rep = quaternionic_cohomology_check(build_quaternionic_complex(torus_model(1)))
    assert rep.certified and rep.equal
    assert rep.q_dims == {0: 1, 1: 4, 2: 3}


def test_dots_squares_end_factorization():
    b = end_tensor(dots_squares_model({0: 1, 1: 1}, [0], seed=4), 2)
    m = connection_from_bicomplex(b)
    rep = quaternionic_cohomology_check(build_quaternionic_complex(m))
    assert rep.certified and rep.equal


def test_zigzag_factorization_unconditional():
    m = connection_from_bicomplex(zigzag_model(0))
    rep = quaternionic_cohomology_check(build_quaternionic_complex(m))
    assert not rep.certified  # reported without the assertion


# -- spectral pages -------------------------------------------------------------


def test_zero_differentials_degenerate_at_e1():
    pages = double_complex_spectral_sequence(build_quaternionic_complex(torus_model(1)))
    assert pages.degenerate_at_e1 and pages.degenerate_at_e2


def test_square_page_drop_at_first_column():
    m = connection_from_bicomplex(dots_squares_model({}, [0], seed=3, unit=False))
    pages = double_complex_spectral_sequence(build_quaternionic_complex(m))
    assert pages.e1_dims[(1, 0)] == 1 and pages.e2_dims[(1, 0)] == 0
    assert not pages.degenerate_at_e1
    assert pages.e1_ne_e2_witness == (1, 0)
    assert pages.degenerate_at_e2


def test_strong_lemma_fails_on_truncated_total_complex():
    # the first-quadrant total complex of a square model is not strong
    m = connection_from_bicomplex(dots_squares_model({}, [0], seed=3, unit=False))
    q = build_quaternionic_complex(m)
    assert not strong_lemma_check(q.bicomplex).strong_lemma


def test_degeneration_on_certified_models():
    for seed in range(3):
        b = dots_squares_model({0: 1, 1: 1}, [0, 1], seed=seed, unit=False)
        m = connection_from_bicomplex(b)
        pages = double_complex_spectral_sequence(build_quaternionic_complex(m))
        assert pages.degenerate_at_e2


# -- phi --------------------------------------------------------------------


def test_phi_certificate_on_torus():
    cert = phi_isomorphism(torus_model(1))
    assert cert.certified
    assert cert.degree_one_spot_check


def test_phi_requires_full_model():
    m = connection_from_bicomplex(dots_squares_model({0: 1}, [0], seed=1))
    with pytest.raises(ModelError):
        phi_isomorphism(m)


# -- extended window -----------------------------------------------------------


def test_extended_interior_strong_lemma_on_squares():
    m = connection_from_bicomplex(dots_squares_model({0: 1}, [0], seed=2, unit=False))
    q = build_quaternionic_complex(m, window=4)
    rep = extended_strong_lemma_interior(q)
    assert rep.passed
    # uncut to the interior, the truncation artifacts are visible
    b = q.bicomplex
    assert not all(b.d0d1.image(k).contains_subspace(b.strong_lhs(k))
                   for k in q.space.degrees())


def test_interior_check_rejects_standard_build():
    q = build_quaternionic_complex(torus_model(1))
    with pytest.raises(PreconditionError):
        extended_strong_lemma_interior(q)


def test_evaluation_maps_are_dgla_morphisms():
    m = connection_from_bicomplex(
        dots_squares_model({0: 1, 1: 1}, [0], seed=17))
    q = build_quaternionic_complex(m)
    pi_x, pi_y = q.evaluations
    # chain maps: pi_y total = del_bar pi_y and pi_x total = del_bar_J pi_x
    assert pi_y.compose(q.total) == m.del_bar.compose(pi_y)
    assert pi_x.compose(q.total) == m.del_bar_j.compose(pi_x)
    # multiplicative on the algebra (hence bracket-preserving)
    qs = q.algebra.space
    ds = m.dolbeault.space
    for pi in (pi_x, pi_y):
        for l1 in qs.all_labels():
            k1, v1 = qs.basis_vector(l1)
            for l2 in qs.all_labels():
                k2, v2 = qs.basis_vector(l2)
                lhs = pi.apply(k1 + k2, q.algebra.mul(k1, v1, k2, v2))
                rhs = m.dolbeault.mul(k1, pi.apply(k1, v1), k2, pi.apply(k2, v2))
                assert lhs == rhs


def test_extended_interior_on_tensored_model():
    b = end_tensor(dots_squares_model({0: 1}, [0], seed=7, unit=False), 2)
    m = connection_from_bicomplex(b)
    q = build_quaternionic_complex(m, window=3)
    assert extended_strong_lemma_interior(q).passed


# -- phi against the per-label reference ---------------------------------------


def _items(space, k, v):
    return [(space.labels(k)[i], v[i]) for i in sorted(v)]


def _iterate(op, k, v, times):
    for _ in range(times):
        v = op.apply(k, v)
    return v


def ref_phi_isomorphism(m):
    """The former per-label construction of phi, kept as the reference for
    the block one: f^p, e^p, J and the quotient differentials are applied to
    unit vectors, and each entry is placed by its label."""
    if m.full_model is None:
        raise ModelError("phi requires the full model")
    if not m.autoduality.autodual:
        raise PreconditionError("phi requires an autodual model")
    full = m.full_model
    plus = m.plus_quotient
    ideal = plus.ideal
    decomp = m.decomposition
    e_op = full.maps["e"]
    f_op = full.maps["f"]
    d_space = m.dolbeault.space
    q_space = plus.algebra.space

    # quotient-side block coordinates per bidegree
    block_labels: dict[tuple, list[str]] = {}
    for lab, (p, qq) in plus.bidegrees.items():
        block_labels.setdefault((p, qq), []).append(lab)
    for cell in block_labels:
        block_labels[cell].sort(key=lambda l: q_space.label_loc[l][1])

    phi_blocks: dict[tuple, Matrix] = {}
    phi_inv_blocks: dict[tuple, Matrix] = {}
    identities = True
    inverse_ok = True
    spot = True

    for k in d_space.degrees():
        nk = d_space.dim(k)
        if nk == 0:
            continue
        for p in range(0, k + 1):
            qq = k - p
            cell = (p, qq)
            rows = block_labels.get(cell, [])
            coeff = Scalar((-1) ** p).scale(
                Fraction(math.factorial(qq), math.factorial(k)))
            cols = []
            for lab in d_space.labels(k):
                _, fv = full.space.basis_vector(lab)
                w = _iterate(f_op, k, fv, p)
                cls = plus.qmap.apply(k, w)
                cols.append({i: c * coeff for i, c in cls.items()})
            # restrict to the block rows; anything off-block must vanish
            entries = []
            for j, cv in enumerate(cols):
                for lab2, c in _items(q_space, k, cv):
                    if lab2 in rows:
                        entries.append((rows.index(lab2), j, c))
                    else:
                        identities = False
            mat = phi_blocks[cell] = Matrix.from_entries(len(rows), nk, entries)

            inv_coeff = Scalar((-1) ** p).scale(Fraction(1, math.factorial(p)))
            entries = []
            for j, lab in enumerate(rows):
                k_idx = q_space.label_loc[lab][1]
                rep = plus.reps[k][k_idx]
                u = _iterate(e_op, k, rep, p)
                for lab2, c in _items(full.space, k, u):
                    if lab2 in d_space.label_loc:
                        entries.append((d_space.label_loc[lab2][1], j, c * inv_coeff))
                    else:
                        inverse_ok = False
            inv = phi_inv_blocks[cell] = Matrix.from_entries(nk, len(rows), entries)

            if len(rows) != nk:
                identities = False
                continue
            if not (mat * inv == Matrix.identity(len(rows))
                    and inv * mat == Matrix.identity(nk)):
                identities = False

            # representative independence: e^p kills the ideal at this cell
            lam = qq - p
            ik = ideal.get(k)
            if ik is not None and ik.dim:
                eig = decomp.eigenspaces.get((k, lam))
                if eig is not None:
                    for v in ik.intersect(eig).vectors():
                        if _iterate(e_op, k, v, p):
                            inverse_ok = False

    # spot check at (p,q) = (1,0): phi(x * eta) = [J(eta)]
    j = m.j_op
    cell = (1, 0)
    if d_space.dim(1) and cell in phi_blocks:
        for idx, lab in enumerate(d_space.labels(1)):
            _, fv = full.space.basis_vector(lab)
            expected = plus.qmap.apply(1, j.apply(1, fv))
            rows = block_labels.get(cell, [])
            got = {q_space.label_loc[rows[r]][1]: c
                   for r, c in phi_blocks[cell].column(idx).items()}
            if got != expected:
                spot = False
                break

    # intertwining with the quotient differentials, blockwise
    def quotient_block(name: str, src_cell, dst_cell) -> Matrix:
        d = plus.algebra.differential(name)
        src = block_labels.get(src_cell, [])
        dst = block_labels.get(dst_cell, [])
        k = src_cell[0] + src_cell[1]
        return Matrix.from_entries(len(dst), len(src), [
            (dst.index(lab2), jdx, c)
            for jdx, lab in enumerate(src)
            for lab2, c in _items(q_space, k + 1, d.apply(k, q_space.basis_vector(lab)[1]))
            if lab2 in dst])

    inter_h = True
    inter_v = True
    for k in d_space.degrees():
        if d_space.dim(k) == 0 or d_space.dim(k + 1) == 0:
            continue
        for p in range(0, k + 1):
            qq = k - p
            if (p, qq) not in phi_blocks:
                continue
            # horizontal: phi_(p+1,q) o del_bar_J = Del_+ o phi_(p,q)
            if (p + 1, qq) in phi_blocks:
                lhs = phi_blocks[(p + 1, qq)] * m.del_bar_j.block(k)
                rhs = quotient_block(DEL, (p, qq), (p + 1, qq)) * phi_blocks[(p, qq)]
                if lhs != rhs:
                    inter_h = False
            # vertical: phi_(p,q+1) o del_bar = Delbar_+ o phi_(p,q)
            if (p, qq + 1) in phi_blocks:
                lhs = phi_blocks[(p, qq + 1)] * m.del_bar.block(k)
                rhs = quotient_block(DEL_BAR, (p, qq), (p, qq + 1)) * phi_blocks[(p, qq)]
                if lhs != rhs:
                    inter_v = False

    return PhiCertificate(phi_blocks, phi_inv_blocks, identities,
                          inverse_ok, inter_h, inter_v, spot)


FLAGS = ("identities_hold", "inverse_well_defined", "intertwine_horizontal",
         "intertwine_vertical", "degree_one_spot_check")


def _with_quotient(m, **changes):
    """m with its cached quotient F_+ replaced field by field."""
    m.__dict__["plus_quotient"] = dataclasses.replace(m.plus_quotient, **changes)
    return m


def _plus_entry(g, frm, to):
    """g with ONE added at the entry frm -> to."""
    return g.add(GradedMap.from_entries(g.source, g.target, g.shift, [(frm, to, ONE)]))


def _first(m, cell):
    """The first quotient label of the bidegree `cell`."""
    return next(lab for lab in m.plus_quotient.algebra.space.all_labels()
                if m.plus_quotient.bidegrees.get(lab) == cell)


def _quotient_entry(m, name, src_cell, dst_cell):
    """A quotient differential with an entry from one cell to another."""
    alg = m.plus_quotient.algebra
    d = _plus_entry(alg.differential(name), _first(m, src_cell), _first(m, dst_cell))
    return _with_quotient(m, algebra=alg.with_differentials(dict(alg.differentials, **{name: d})))


def _class_off_cell(m):
    """The projection sends a (0,1)-form to a class of the cell (1,0) too."""
    qmap = _plus_entry(m.plus_quotient.qmap, m.dolbeault.space.labels(1)[0], _first(m, (1, 0)))
    return _with_quotient(m, qmap=qmap)


def _rep_change(m, change):
    """The first representative of the cell (0,1), changed."""
    plus = m.plus_quotient
    reps = dict(plus.reps)
    i = plus.algebra.space.label_loc[_first(m, (0, 1))][1]
    reps[1] = [change(v) if t == i else v for t, v in enumerate(reps[1])]
    return _with_quotient(m, reps=reps)


def _rep_off_d(m):
    """A representative with a component off D: e^0 of it leaves D."""
    full = m.full_model.space
    off = next(full.label_loc[lab][1] for lab in full.labels(1)
               if lab not in m.dolbeault.space.label_loc)
    return _rep_change(m, lambda v: add_multiple(dict(v), ONE, {off: ONE}))


def _full_ideal(m):
    ideal = dict(m.plus_quotient.ideal)
    ideal[2] = Subspace.full(m.full_model.space.dim(2))
    return _with_quotient(m, ideal=ideal)


def _with_j(m, change):
    """m with J changed after its quotient was built from the model's own J."""
    m.plus_quotient
    full = m.full_model
    m.full_model = StructuredAlgebra(full.space, full.kind, full.differentials,
                                     full.structure, dict(full.maps, J=change(full.maps["J"])))
    return m


def _j_off_cell(m):
    """J keeps a (0,1)-form: [J eta] gets a component off the cell (1,0)."""
    lab = m.dolbeault.space.labels(1)[0]
    return _with_j(m, lambda j: _plus_entry(j, lab, lab))


# (flag the input turns False, how the torus_model(1) input is changed)
CRAFTED = {
    "rep_scaled": ("identities_hold",
                   lambda m: _rep_change(m, lambda v: {t: Scalar(2) * c for t, c in v.items()})),
    "class_off_cell": ("identities_hold", _class_off_cell),
    "ideal_full": ("inverse_well_defined", _full_ideal),
    "rep_off_d": ("inverse_well_defined", _rep_off_d),
    "del_entry": ("intertwine_horizontal", lambda m: _quotient_entry(m, DEL, (0, 0), (1, 0))),
    "del_bar_entry": ("intertwine_vertical",
                      lambda m: _quotient_entry(m, DEL_BAR, (0, 0), (0, 1))),
    "j_scaled": ("degree_one_spot_check", lambda m: _with_j(m, lambda j: j.scale(Scalar(2)))),
    "j_off_cell": ("degree_one_spot_check", _j_off_cell),
}


def _same_certificate(m):
    got, want = phi_isomorphism(m), ref_phi_isomorphism(m)
    assert list(got.phi_blocks) == list(want.phi_blocks)
    assert got.phi_blocks == want.phi_blocks
    assert got.phi_inv_blocks == want.phi_inv_blocks
    assert {f: getattr(got, f) for f in FLAGS} == {f: getattr(want, f) for f in FLAGS}
    return got


@pytest.mark.parametrize("make", [lambda: torus_model(1), lambda: torus_model(2),
                                  lambda: torus_model(3), lambda: nilpotent_torus_model(2)],
                         ids=["torus1", "torus2", "torus3", "twisted2"])
def test_phi_blocks_equal_the_per_label_reference(make):
    assert _same_certificate(make()).certified


@pytest.mark.parametrize("name", CRAFTED)
def test_each_crafted_input_fails_one_flag(name):
    flag, craft = CRAFTED[name]
    cert = _same_certificate(craft(torus_model(1)))
    assert {f: getattr(cert, f) for f in FLAGS} == {f: f != flag for f in FLAGS}


# -- spectral pages against the per-cell reference -------------------------------


def ref_spectral_pages(q):
    """The former per-cell construction of the pages, kept as the reference
    for the two subquotients: each cell gets its own complement of the image
    from the cell below in the kernel towards the cell above, and each
    horizontal map its own induced matrix and ranks."""
    if not q.total_squares_to_zero():
        raise PreconditionError("total differential does not square to zero")
    d_space = q.model.dolbeault.space
    dbar, dbar_j = q.model.del_bar, q.model.del_bar_j
    cells = set(q.cells)
    complements, e1_dims = {}, {}
    for (p, qq) in q.cells:
        k = p + qq
        n = d_space.dim(k)
        ker = dbar.kernel(k) if (p, qq + 1) in cells else Subspace.full(n)
        im = dbar.image(k) if (p, qq - 1) in cells else Subspace.zero(n)
        complements[(p, qq)] = Complement(im, ker.vectors())
        e1_dims[(p, qq)] = len(complements[(p, qq)].vectors)
    induced = {}
    for (p, qq) in q.cells:
        tgt = (p + 1, qq)
        src_reps = complements[(p, qq)].vectors
        if tgt not in cells or not src_reps:
            continue
        coords = complements[tgt].project([dbar_j.apply(p + qq, r) for r in src_reps])
        if coords is None:
            raise InternalCheckError("induced map image not vertical-closed")
        induced[(p, qq)] = Matrix.from_columns(e1_dims[tgt], coords)
    for (p, qq), m in induced.items():
        nxt = induced.get((p + 1, qq))
        if nxt is not None and not (nxt * m).is_zero():
            raise InternalCheckError("induced E1 differential does not square to zero")
    e2_dims = {}
    for cell in q.cells:
        out, inc = induced.get(cell), induced.get((cell[0] - 1, cell[1]))
        e2_dims[cell] = (e1_dims[cell] - (out.rank() if out is not None else 0)
                         - (inc.rank() if inc is not None else 0))
    witness = next((c for c in sorted(e2_dims) if e2_dims[c] != e1_dims[c]), None)
    total_dims = q.total_cohomology_dims()
    by_degree = {}
    for (p, qq), v in e2_dims.items():
        by_degree[p + qq] = by_degree.get(p + qq, 0) + v
    degenerate = all(m.is_zero() for m in induced.values())
    # the pages keep one flag for degeneration at E1 and for E1 = E2
    assert degenerate == (witness is None)
    return SpectralPages(e1_dims, e2_dims, degenerate, witness,
                         all(by_degree.get(k, 0) == total_dims.get(k, 0)
                             for k in set(by_degree) | set(total_dims)),
                         total_dims)


def _same_pages(m):
    q = build_quaternionic_complex(m)
    got = double_complex_spectral_sequence(q)
    assert dataclasses.asdict(got) == dataclasses.asdict(ref_spectral_pages(q))
    return got


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_spectral_pages_equal_the_per_cell_reference(seed):
    m, autodual = random_connection_model(seed)
    assert autodual
    _same_pages(m)


@pytest.mark.parametrize("make", [lambda: torus_model(1), lambda: torus_model(2),
                                  lambda: nilpotent_torus_model(2),
                                  lambda: nilpotent_torus_model(3)],
                         ids=["torus1", "torus2", "twisted2", "twisted3"])
def test_torus_spectral_pages_equal_the_per_cell_reference(make):
    assert _same_pages(make()).degenerate_at_e2


def test_spectral_pages_refuse_an_extended_complex():
    m = connection_from_bicomplex(dots_squares_model({0: 1}, [0], seed=2, unit=False))
    with pytest.raises(PreconditionError, match="standard complex"):
        double_complex_spectral_sequence(build_quaternionic_complex(m, window=2))
