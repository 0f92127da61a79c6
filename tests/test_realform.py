import pytest

from nilcone import realform as rf
from nilcone import rootdata as rd
from nilcone.errors import InputError, OutOfScopeError


def test_catalog_pins():
    rs, eps = rf.standard_form_catalog("su(1,1)")
    assert (rs.type_label, rs.rank, eps.epsilon) == ("A", 1, (-1,))
    rs, eps = rf.standard_form_catalog("su(2,1)")
    assert (rs.rank, eps.epsilon) == (2, (-1, -1))
    rs, eps = rf.standard_form_catalog("su(2,2)")
    assert (rs.rank, eps.epsilon) == (3, (-1, -1, -1))
    rs, eps = rf.standard_form_catalog("sp(4,R)")
    assert (rs.type_label, eps.epsilon) == ("C", (-1, -1))
    rs, eps = rf.standard_form_catalog("sp(1,1)")
    assert (rs.type_label, eps.epsilon) == ("C", (-1, 1))
    rs, eps = rf.standard_form_catalog("so*(6)")
    assert (rs.type_label, eps.epsilon) == ("D", (1, 1, -1))


def test_catalog_accepts_unicode_and_spacing():
    rs, eps = rf.standard_form_catalog("sp(4, ℝ)")
    assert eps.epsilon == (-1, -1)
    # each spelling of a pinned form gets its one convention and its H
    for name in ("sp(4,r)", "SP(4,R)"):
        rs, eps, h = rf.principal_presentation(name)
        assert (eps.epsilon, h) == ((-1, -1), (2, 2))


@pytest.mark.parametrize("name", [
    "sl(3,R)", "sl(2,H)", "gl(4,H)", "sl(3,C)", "so(3,2)", "e6", "frobnicate",
])
def test_out_of_scope_forms(name):
    with pytest.raises(OutOfScopeError):
        rf.standard_form_catalog(name)


def test_bad_parameters():
    with pytest.raises(InputError):
        rf.standard_form_catalog("su(0,1)")
    with pytest.raises(InputError):
        rf.standard_form_catalog("sp(3,R)")
    with pytest.raises(InputError):
        rf.standard_form_catalog("so*(4)")


def test_involution_validation():
    with pytest.raises(InputError):
        rf.EqualRankInvolution((1, 0))
    with pytest.raises(InputError):
        rf.EqualRankInvolution(())


def test_cartan_decomposition_compact_a1():
    rs = rd.build_root_system("A", 1)
    cd = rf.cartan_decomposition(rs, rf.EqualRankInvolution((1,)))
    assert len(cd.k_roots) == 2
    assert (cd.k_dim, cd.p_dim) == (3, 0)


def test_cartan_decomposition_su11():
    rs, eps = rf.standard_form_catalog("su(1,1)")
    cd = rf.cartan_decomposition(rs, eps)
    assert not cd.k_roots
    assert (cd.k_dim, cd.p_dim) == (1, 2)


def test_cartan_decomposition_su21():
    rs, eps = rf.standard_form_catalog("su(2,1)")
    cd = rf.cartan_decomposition(rs, eps)
    assert {r.coords for r in cd.k_roots} == {(1, 1), (-1, -1)}
    assert (cd.k_dim, cd.p_dim) == (4, 4)


@pytest.mark.parametrize("name", [
    "su(1,1)", "su(2,1)", "su(2,2)", "su(3,2)", "sp(4,R)", "sp(6,R)",
    "sp(1,1)", "sp(2,1)", "so*(6)", "so*(8)",
])
def test_epsilon_multiplicative_and_dims(name):
    rs, eps = rf.standard_form_catalog(name)
    cd = rf.cartan_decomposition(rs, eps)
    roots = rs.all_roots()
    for a in roots:
        for b in roots:
            s = rd.Root(tuple(x + y for x, y in zip(a.coords, b.coords)))
            if rs.is_root(s):
                assert eps.sign(s) == eps.sign(a) * eps.sign(b)
    assert cd.k_dim + cd.p_dim == rs.rank + len(roots)


def test_k_root_datum_su11_is_torus():
    rs, eps = rf.standard_form_catalog("su(1,1)")
    kd = rf.k_root_datum(rf.cartan_decomposition(rs, eps))
    assert kd.positive_roots == ()
    assert kd.rho == rd.weight(0)
    assert kd.simple_roots == ()


def test_k_root_datum_su21():
    rs, eps = rf.standard_form_catalog("su(2,1)")
    kd = rf.k_root_datum(rf.cartan_decomposition(rs, eps))
    assert kd.__class__ is rd.Subsystem
    assert [r.coords for r in kd.positive_roots] == [(1, 1)]
    # rho_K is half the sum of the positive compact roots
    from fractions import Fraction as F
    assert kd.rho == rd.Weight((F(1, 2), F(1, 2)))
    assert kd.rho + kd.rho == rs.root_fw(rd.Root((1, 1)))


def test_k_root_datum_compact_is_full():
    rs = rd.build_root_system("A", 2)
    kd = rf.k_root_datum(rf.cartan_decomposition(rs, rf.EqualRankInvolution((1, 1))))
    assert set(kd.positive_roots) == set(rs.positive_roots)
    assert kd.rho == rd.weight(1, 1)  # rho is the sum of the fundamental weights


def test_principal_presentations():
    for name in ("sp(4,R)", "su(1,1)", "su(2,1)", "su(2,2)"):
        rs, eps, h = rf.principal_presentation(name)
        assert len(eps.epsilon) == rs.rank == len(h)
    assert rf.principal_presentation("su(2,2)")[1].epsilon == (-1, -1, -1)
    assert rf.principal_presentation("sp(4,R)")[2] == (2, 2)
    with pytest.raises(OutOfScopeError):
        rf.principal_presentation("so*(6)")
