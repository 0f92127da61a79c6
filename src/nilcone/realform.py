"""Equal-rank Cartan involutions as multiplicative signs on roots.

theta acts trivially on the Cartan subalgebra, so the whole involution is
a choice of sign per simple root; the sign of any root is the product over
its simple coordinates.  +1 roots span k, -1 roots span p.  The positive
system of K is inherited from the ambient positive roots, which realizes a
theta-stable Borel with B cap K Borel in K.
"""

import re
from dataclasses import dataclass

from .errors import ConsistencyError, InputError, OutOfScopeError
from .rootdata import Subsystem, build_root_system

# The pinned principal grading H of four forms.  The catalog gives them the
# principal-aligned convention, every simple root noncompact, so each form
# has one sign convention in every command.
_PRINCIPAL_PRESENTATIONS = {
    "su(1,1)": (2,),
    "su(2,1)": (2, 2),
    "su(2,2)": (2, 2, 2),
    "sp(4,R)": (2, 2),
}


@dataclass(frozen=True)
class EqualRankInvolution:
    """Signs per simple root; -1 marks a noncompact simple root."""

    epsilon: tuple

    def __post_init__(self):
        if not self.epsilon or any(e not in (1, -1) for e in self.epsilon):
            raise InputError("epsilon must be a nonempty vector of +-1")

    def sign(self, root):
        odd = sum(c for c, e in zip(root.coords, self.epsilon) if e == -1)
        return -1 if odd % 2 else 1


@dataclass
class CartanDecomposition:
    rs: object
    k_roots: tuple  # all roots with sign +1, both signs of the root
    k_dim: int
    p_dim: int


def cartan_decomposition(rs, eps):
    """The compact roots (those spanning k with the Cartan) and dim k, dim p."""
    if len(eps.epsilon) != rs.rank:
        raise InputError("epsilon length %d != rank %d" % (len(eps.epsilon), rs.rank))
    roots = rs.all_roots()
    k_roots = tuple(r for r in roots if eps.sign(r) == 1)
    return CartanDecomposition(rs, k_roots, k_dim=rs.rank + len(k_roots),
                               p_dim=len(roots) - len(k_roots))


def k_root_datum(cd):
    """The root datum of K: the compact roots, inherited positives; rho is rho_K."""
    positives = [r for r in cd.k_roots if r.is_positive]
    try:
        return Subsystem(cd.rs, positives)
    except InputError as exc:  # should be impossible: inherited positives are valid
        raise ConsistencyError("inherited K positive system invalid: %s" % exc) from exc


def _normalize_name(name):
    if not isinstance(name, str):
        raise InputError("a form name must be a string, got %r" % (name,))
    name = name.strip().replace(" ", "")
    name = name.replace("ℝ", "R").replace("ℂ", "C").replace("ℍ", "H")
    return re.sub(r"(?i)^sp\((\d+),r\)$", r"sp(\1,R)", name)


_OUT_OF_SCOPE_PATTERNS = (
    (r"^sl\(\d+,R\)$", "split special linear forms are not equal rank"),
    (r"^(sl|gl|psl)\(\d+,H\)$", "quaternionic linear forms are not equal rank"),
    (r"^\w+\(\d+,C\)$", "complex groups viewed as real groups are not equal rank"),
    (r"^so\(\d+,\d+\)$", "indefinite orthogonal forms are outside this catalog"),
    (r"^e6", "exceptional forms are outside this catalog"),
)


def standard_form_catalog(name):
    """Named equal-rank real forms: su(p,q), sp(p,q), sp(2n,R), so*(2n).

    Returns (RootSystem, EqualRankInvolution) in the form's one sign
    convention: every simple root noncompact for a pinned form, else the
    one noncompact simple root of its Vogan diagram.  Non-equal-rank or
    unrecognized names raise OutOfScopeError.
    """
    norm = _normalize_name(name)
    for pattern, why in _OUT_OF_SCOPE_PATTERNS:
        if re.match(pattern, norm, re.IGNORECASE):
            raise OutOfScopeError("out of scope: %s (%s)" % (name, why))

    if m := re.match(r"^su\((\d+),(\d+)\)$", norm):
        p, q = int(m[1]), int(m[2])
        if p < 1 or q < 1:
            raise InputError("su(p,q) needs p, q >= 1")
        rs, noncompact = build_root_system("A", p + q - 1), p
    elif m := re.match(r"^sp\((\d+),R\)$", norm):
        two_n = int(m[1])
        if two_n % 2 or two_n < 4:
            raise InputError("sp(2n,R) needs even 2n >= 4")
        rs, noncompact = build_root_system("C", two_n // 2), two_n // 2
    elif m := re.match(r"^sp\((\d+),(\d+)\)$", norm):
        p, q = int(m[1]), int(m[2])
        if p < 1 or q < 1:
            raise InputError("sp(p,q) needs p, q >= 1")
        rs, noncompact = build_root_system("C", p + q), p
    elif m := re.match(r"^so\*\((\d+)\)$", norm):
        two_n = int(m[1])
        if two_n % 2 or two_n < 6:
            raise InputError("so*(2n) needs even 2n >= 6")
        rs, noncompact = build_root_system("D", two_n // 2), two_n // 2
    else:
        raise OutOfScopeError("out of scope: unrecognized form %r" % (name,))
    if norm in _PRINCIPAL_PRESENTATIONS:
        eps = (-1,) * rs.rank
    else:
        eps = tuple(-1 if i == noncompact else 1 for i in range(1, rs.rank + 1))
    return rs, EqualRankInvolution(eps)


def principal_presentation(name):
    """The catalog's (RootSystem, EqualRankInvolution) and the pinned
    h_values of a pinned form; others go through the even-grading search."""
    h = _PRINCIPAL_PRESENTATIONS.get(_normalize_name(name))
    if h is None:
        raise OutOfScopeError("no pinned principal presentation for %r" % (name,))
    return (*standard_form_catalog(name), h)

