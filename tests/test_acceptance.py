"""Acceptance suite: one test per criterion, each printing a verdict line.

Everything here is exact arithmetic; there are no tolerances to tune.  The
four named forms are taken in their principal-aligned presentations, where
the grading element of the maximal nilpotent orbit is dominant.
"""

import random
import time
from fractions import Fraction
from itertools import product

from nilcone import bott
from nilcone import grading as gr
from nilcone import linalg as la
from nilcone import oracle as oc
from nilcone import realform as rf
from nilcone import rootdata as rd
from nilcone import series as se
from reference import dual, euler, terms

F = Fraction
FORMS = ("su(1,1)", "su(2,1)", "su(2,2)", "sp(4,R)")
SEED = 7


def _report(name, ok):
    print("[%s] %s" % ("PASS" if ok else "FAIL", name))
    assert ok, name


def _principal_context(form):
    rs, eps, h = rf.principal_presentation(form)
    gd = gr.grade(rs, eps, h)
    kd = gd.k_root_datum()
    pd = gr.parabolic(gd)
    real = oc.realize(form, eps=eps)
    h_mat, x_mat, _ = oc.dense_element(real, h, SEED)
    return rs, eps, gd, kd, pd, real, h_mat, x_mat


def _qk_dominant_sample(rs, pd, kd, bound=4):
    out = []
    for coords in product(range(-bound, bound + 1), repeat=rs.rank):
        lam = rd.Weight(tuple(F(c) for c in coords))
        if not gr.is_QK_dominant(lam, pd, kd):
            continue
        if any(kd.rs.pairing(lam, b) > bound for b in kd.simple_roots):
            continue
        out.append(lam)
    return out


def test_criterion_1_canonical_weight_formula():
    t0 = time.time()
    expected = {"su(1,1)": rd.weight(2), "su(2,1)": rd.weight(0, 0)}
    ok = True
    for form, want in expected.items():
        rs, eps, gd, kd, pd, real, h_mat, x_mat = _principal_context(form)
        combinatorial = pd.canonical_weight
        matrix_side = oc.canonical_weight_from_matrices(real, h_mat)
        ok = ok and combinatorial == want == matrix_side
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    _report("criterion 1: canonical-bundle weight (exact, %.3fs)" % elapsed, ok)


def test_criterion_2_vanishing_positivity():
    t0 = time.time()
    ok = True
    total = 0
    for form in FORMS:
        rs, eps, gd, kd, pd, real, h_mat, x_mat = _principal_context(form)
        for lam in _qk_dominant_sample(rs, pd, kd, bound=4):
            rep = se.verify_vanishing(lam, gd, kd, 6, form=form)
            total += 1
            if rep.status != se.PASS:
                ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 300.0
    _report("criterion 2: vanishing positivity, %d weights over %s (%.1fs)"
            % (total, ", ".join(FORMS), elapsed), ok)


def test_criterion_3_hilbert_series_vs_oracle():
    rs, eps, gd, kd, pd, real, h_mat, x_mat = _principal_context("su(1,1)")
    series_11 = se.hilbert_series(gd, kd, 4)
    oracle_11 = oc.coordinate_ring_dims(real, x_mat, 4, SEED)
    ok = series_11 == oracle_11 == [1, 1, 1, 1, 1]

    rs, eps, gd, kd, pd, real, h_mat, x_mat = _principal_context("su(2,1)")
    series_21 = se.hilbert_series(gd, kd, 4)
    oracle_21 = oc.coordinate_ring_dims(real, x_mat, 4, SEED)
    # degrees 2..4 were pinned from the oracle before the series was trusted
    ok = ok and series_21 == oracle_21 == [1, 4, 9, 16, 25]
    _report("criterion 3: Hilbert series equals oracle coordinate ring "
            "(su(1,1) %s, su(2,1) %s)" % (series_11, series_21), ok)


def test_criterion_4_components_split():
    rs, eps = rf.standard_form_catalog("su(1,1)")
    gd_plus = gr.grade(rs, eps, (2,))
    gd_minus = gr.grade(rs, eps, (-2,))
    kd = gd_plus.k_root_datum()
    result = se.components_split([gd_plus, gd_minus], kd, 4)
    ok = result.total_dims[0] == 2 and result.total_dims[1:] == [2, 2, 2, 2]
    _report("criterion 4: two-component series for su(1,1) = %s"
            % result.total_dims, ok)


def test_criterion_5_sl2_triples_exact():
    rng = random.Random(SEED)
    count = 0
    ok = True
    for form in FORMS:
        real = oc.realize(form)
        for _ in range(25):
            x = oc.random_nilpotent(real, rng)
            triple = oc.ks_normalize(real, oc.jm_triple(real, x))
            count += 1
            if not triple.normalized_identities_hold(real):
                ok = False
    # matrix grading of the pinned principal triples matches the combinatorics
    for form in FORMS:
        rs, eps, gd, kd, pd, real, h_mat, x_mat = _principal_context(form)
        match, _ = oc.verify_grading_dims(real, h_mat, gd)
        ok = ok and match
    _report("criterion 5: %d random normalized triples exact; principal "
            "grading dims match" % count, ok and count == 100)


def test_criterion_6_dense_orbit_lemma():
    nonprincipal = {
        # su(1,1) has no nonzero non-principal nilpotent; zero is the witness
        "su(1,1)": lambda real: la.zeros(real.msize, real.msize),
        "su(2,1)": lambda real: real.root_vector(real.rs.simple_roots[0]),
        "su(2,2)": lambda real: real.root_vector(real.rs.simple_roots[0]),
        "sp(4,R)": lambda real: real.root_vector(real.rs.simple_roots[0]),
    }
    ok = True
    for form in FORMS:
        rs, eps, gd, kd, pd, real, h_mat, x_mat = _principal_context(form)
        layers = oc.ad_layers(real, h_mat)
        if not oc.dense_orbit_check(real, layers, x_mat):
            ok = False
        if oc.dense_orbit_check(real, layers, nonprincipal[form](real)):
            ok = False
    _report("criterion 6: density holds for principal pairs, fails for the "
            "documented non-principal elements", ok)


def test_criterion_7_bott_engine():
    rs1 = rd.build_root_system("A", 1)
    kd1 = rd.Subsystem(rs1, rs1.positive_roots)
    ok = bott.line_cohomology(rd.weight(4), kd1).total_dimension(kd1) == 5
    res = bott.line_cohomology(rd.weight(-3), kd1)
    ok = ok and list(res.per_degree) == [1] and res.total_dimension(kd1) == 2
    ok = ok and bott.line_cohomology(rd.weight(-1), kd1).per_degree == {}

    systems = []
    for trk in [("A", 1), ("A", 2), ("C", 2), ("A", 3)]:
        rs = rd.build_root_system(*trk)
        systems.append(rd.Subsystem(rs, rs.positive_roots))
    rng = random.Random(SEED)
    checked = 0
    for kd in systems:
        sign = -1 if len(kd.positive_roots) % 2 else 1
        two_rho = kd.rho + kd.rho
        for _ in range(50):
            lam = rd.Weight(tuple(F(rng.randint(-6, 6)) for _ in range(kd.rs.rank)))
            res = bott.line_cohomology(lam, kd)
            if len(res.per_degree) > 1:
                ok = False
            rhs = dual(kd, euler([-lam - two_rho], kd))
            if terms(euler([lam], kd)) != {w: sign * m for w, m in rhs.items()}:
                ok = False
            checked += 1
    _report("criterion 7: Borel-Weil pins, concentration, Serre duality on "
            "%d weights" % checked, ok and checked == 200)


def test_criterion_8_blattner_identity():
    ok = True
    for form, h in [("su(1,1)", (2,)), ("su(2,1)", (2, 2))]:
        rs, eps = rf.standard_form_catalog(form)
        gd = gr.grade(rs, eps, h)
        kd = gd.k_root_datum()
        zero = rd.Weight((F(0),) * rs.rank)
        match, mismatches, count = se.blattner_series_identity(gd, kd, zero, 6)
        ok = ok and match and count > 0
    _report("criterion 8: alternating-sum multiplicities match the series "
            "through degree 6 on both pinned forms", ok)


def test_criterion_9_qct_evidence():
    real11 = oc.realize("su(1,1)")
    rep11 = oc.qct_evidence(real11, SEED)
    ok = rep11["label"] == "EVIDENCE"
    ok = ok and rep11["G1_evidence"]["component_count_evidence"] == 2
    ok = ok and rep11["G1_evidence"]["single_component_evidence"] is False

    rs, eps, h = rf.principal_presentation("su(2,2)")
    real22 = oc.realize("su(2,2)", eps=eps)
    rep22 = oc.qct_evidence(real22, SEED)
    ok = ok and rep22["label"] == "EVIDENCE"
    # evenness is asserted only for the pinned principal orbits; lower orbits
    # of su(2,2) are genuinely odd dimensional (3 and 5 occur), so the rest
    # of the dimension data is reported as a parity table
    ok = ok and rep22["G1_evidence"]["principal_orbit_dim"] % 2 == 0
    ok = ok and rep22["G2_evidence"]["parity_table"]
    ok = ok and rep22["G2_evidence"]["even_grading_orbit_dims"] != []

    rs, eps, h = rf.principal_presentation("sp(4,R)")
    real4 = oc.realize("sp(4,R)", eps=eps)
    rep4 = oc.qct_evidence(real4, SEED)
    ok = ok and rep4["G1_evidence"]["principal_orbit_dim"] % 2 == 0
    _report("criterion 9: su(1,1) not a single closure (2 components); "
            "even principal orbit dims and parity tables reported for "
            "su(2,2) and sp(4,R)", ok)
