"""The record types keep their constructors, equality, hashing,
immutability, copies and reprs.

Equality and hashing are structural over the listed fields and refuse
other types; the frozen records refuse assignment and deletion with
AttributeError, and the mutable ones (the chain records, the state and
the threshold index) are unhashable.  Each constructor's refusals keep
their type and message.  One base in ``values`` writes that policy; a
hash is the hash of the tuple of the public fields, and a static scan
finds every class that restates the policy.
"""
import ast
import copy
import re
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import pytest

import valgen
from valgen import (
    GeneratorSet,
    GrRelation,
    LaurentPoly,
    PairVec,
    PJump,
    RadicalBasis,
    RedundancyCertificate,
    SearchBounds,
    SemigroupSlice,
    SequenceReport,
    TJump,
    ValuationModel,
    Value,
    build_state,
    ideal_generators,
    parse_polynomial,
    parse_value,
)
from valgen._golden import parsed_example
from valgen.outputs import _ThresholdIndex

B2 = RadicalBasis((1, 2))
NAMES = ("u1", "u2")


def model(values=("1", "sqrt(2)")):
    images = {"x": parse_polynomial("u1", NAMES), "y": parse_polynomial("u2", NAMES)}
    vals = tuple(parse_value(text, B2) for text in values)
    return ValuationModel(B2, NAMES, vals, images)


def instances():
    """(twin a, twin b, different) per hashable record type: a and b are
    built apart from equal fields."""
    v = Value(B2, (1, 2), 3)
    return {
        "RadicalBasis": (RadicalBasis((1, 2)), RadicalBasis([1, 2]), RadicalBasis((1, 3))),
        "Value": (Value(B2, (2, 4), 6), Value(B2, [-1, -2], -3), Value(B2, (1, 2), 5)),
        "SearchBounds": (
            SearchBounds(max_value=v), SearchBounds(64, Value(B2, (1, 2), 3)),
            SearchBounds(max_value=v, d_coord_cap=3),
        ),
        "PairVec": (PairVec((1, 0), ()), PairVec((1,), (0, 0)), PairVec((), (1,))),
        "GeneratorSet": (
            GeneratorSet((PairVec((1,), ()),), True),
            GeneratorSet((PairVec((1, 0), ()),), True),
            GeneratorSet((PairVec((1,), ()),), False),
        ),
        "LaurentPoly": (
            parse_polynomial("u1 + 1/2*u2", NAMES),
            LaurentPoly(NAMES, [((0, 1), Fraction(1, 2)), ((1, 0), 1)]),
            parse_polynomial("u1 + u2", NAMES),
        ),
        "ValuationModel": (model(), model(), model(("1", "2*sqrt(2)"))),
        "RedundancyCertificate": (
            RedundancyCertificate(3, "certified", ((Fraction(1), PairVec((1,), ())),)),
            RedundancyCertificate(3, "certified", ((1, PairVec((1, 0), ())),)),
            RedundancyCertificate(3, "undecided"),
        ),
        "SequenceReport": (
            SequenceReport((1, 2), (1,), True),
            SequenceReport((1, 2), (1,), True),
            SequenceReport((1, 2), (1,), False),
        ),
        "GrRelation": (
            GrRelation(PairVec((2,), ()), PairVec((0, 1), ()), Fraction(1, 2)),
            GrRelation(PairVec((2, 0), ()), PairVec((0, 1), ()), Fraction(2, 4)),
            GrRelation(PairVec((2,), ()), PairVec((0, 1), ()), Fraction(1)),
        ),
        "SemigroupSlice": (
            SemigroupSlice(v, (B2.zero(), v), True),
            SemigroupSlice(Value(B2, (1, 2), 3), (B2.zero(), v), True),
            SemigroupSlice(v, (B2.zero(),), True),
        ),
    }


@pytest.mark.parametrize("name", sorted(instances()))
def test_equality_and_hashing_are_structural(name):
    a, b, other = instances()[name]
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other and not a == other
    # another type is never equal, even with the same fields
    assert a != object() and a.__eq__(object()) is NotImplemented


def test_trailing_zeros_do_not_tell_pair_vectors_apart():
    a, b = PairVec((1, 0), ()), PairVec((1,), ())
    assert a == b and hash(a) == hash(b)
    assert (a.p, a.t) == ((1,), ())


FROZEN_FIELDS = {
    "RadicalBasis": "radicands",
    "Value": "nums",
    "SearchBounds": "max_t_index",
    "PairVec": "p",
    "GeneratorSet": "complete",
    "LaurentPoly": "vars",
    "ValuationModel": "images",
    "RedundancyCertificate": "status",
    "SequenceReport": "certified",
    "GrRelation": "scalar",
    "SemigroupSlice": "cap",
}


@pytest.mark.parametrize("name", sorted(FROZEN_FIELDS))
def test_frozen_records_refuse_assignment(name):
    rec = instances()[name][0]
    field = FROZEN_FIELDS[name]
    before = getattr(rec, field)
    with pytest.raises(AttributeError):
        setattr(rec, field, None)
    with pytest.raises(AttributeError):
        delattr(rec, field)
    assert getattr(rec, field) == before
    assert copy.copy(rec) == rec and copy.deepcopy(rec) == rec


def test_the_flags_are_frozen_and_compared_by_identity(state):
    flags = state.flags
    with pytest.raises(AttributeError):
        flags.state = None
    assert flags.state is state
    assert flags != state.flags and hash(flags) != hash(state.flags)
    assert repr(flags) == "Flags()"


def threshold_index(st):
    """A threshold index of st topped at 2, built apart from st's own."""
    rows = st.coordinates(len(st.p_chain), len(st.t_chain))
    return _ThresholdIndex.build(st, rows, st.basis.rational(2))


def test_mutable_records_are_unhashable(state, second_state):
    index = threshold_index(second_state)
    for rec in (state.p_chain[0], state.t_chain[0], state, index):
        with pytest.raises(TypeError, match="unhashable type"):
            hash(rec)


def test_mutable_records_compare_their_fields(state, second_state):
    p, t = state.p_chain[0], state.t_chain[0]
    assert p == PJump(p.index, p.poly, p.image, p.beta, p.q, p.L_vec, p.lam)
    assert p != PJump(p.index, p.poly, p.image, p.beta, lam=Fraction(1))
    twin = TJump(
        t.index, t.poly, t.image, t.gamma, t.status, t.s, t.m, t.D,
        t.parent, t.mu, t.LN,
    )
    assert t == twin and t != state.t_chain[1]
    twin.status = "pending"
    assert t != twin
    assert copy.copy(state) == state and state != second_state
    assert threshold_index(second_state) == threshold_index(second_state)


def test_defaults():
    b = SearchBounds()
    assert (b.max_t_index, b.max_value, b.d_layer_cap, b.d_coord_cap) == (
        64, None, 16, 16,
    )
    poly = parse_polynomial("u1", NAMES)
    v = B2.rational(1)
    p = PJump(1, poly, poly, v)
    assert (p.q, p.L_vec, p.lam) == (None, None, None)
    t = TJump(1, poly, poly, v)
    assert t.status == "pending"
    assert (t.s, t.m, t.D, t.parent, t.mu, t.LN) == (None,) * 6
    assert RedundancyCertificate(1, "zero").combo is None


def fields_repr(rec, *names):
    args = ", ".join(f"{n}={getattr(rec, n)!r}" for n in names)
    return f"{type(rec).__name__}({args})"


def test_reprs_name_the_fields(state, second_state):
    v = Value(B2, (1, 2), 3)
    assert repr(v) == "Value(2/3*sqrt(2) + 1/3)"
    assert repr(B2) == "RadicalBasis(radicands=(1, 2))"
    assert repr(PairVec((1, 0), (2,))) == "PairVec(p=(1,), t=(2,))"
    assert repr(SearchBounds()) == (
        "SearchBounds(max_t_index=64, max_value=None, d_layer_cap=16, "
        "d_coord_cap=16)"
    )
    assert repr(GeneratorSet((), True)) == "GeneratorSet(members=(), complete=True)"
    assert repr(RedundancyCertificate(2, "zero")) == (
        "RedundancyCertificate(target=2, status='zero', combo=None)"
    )
    assert repr(SequenceReport((1,), (), False)) == (
        "SequenceReport(kept_p=(1,), kept_t=(), certified=False)"
    )
    rel = GrRelation(PairVec((2,), ()), PairVec((0, 1), ()), Fraction(1, 2))
    assert repr(rel) == (
        "GrRelation(lhs=PairVec(p=(2,), t=()), rhs=PairVec(p=(0, 1), t=()), "
        "scalar=Fraction(1, 2))"
    )
    sl = SemigroupSlice(v, (), True)
    assert repr(sl) == f"SemigroupSlice(cap={v!r}, values=(), complete=True)"
    m = model()
    assert repr(m) == fields_repr(m, "basis", "ambient_vars", "ambient_values", "images")
    p, t = state.p_chain[-1], state.t_chain[-1]
    assert repr(p) == fields_repr(p, "index", "poly", "image", "beta", "q", "L_vec", "lam")
    assert repr(t) == fields_repr(
        t, "index", "poly", "image", "gamma", "status", "s", "m", "D", "parent",
        "mu", "LN",
    )
    assert repr(state) == fields_repr(state, "model", "bounds", "p_chain", "t_chain")
    index = threshold_index(second_state)
    assert repr(index) == fields_repr(
        index, "rows", "top", "zero", "values", "den", "highs", "lows", "starts",
        "entries", "row_of", "vecs",
    )


REFUSALS = [
    (lambda: RadicalBasis((1, True)), TypeError,
     "radicands must be integers, got (1, True)"),
    (lambda: RadicalBasis(()), ValueError, "radicands must start with 1"),
    (lambda: RadicalBasis((2, 3)), ValueError, "radicands must start with 1"),
    (lambda: RadicalBasis((1, 3, 2)), ValueError,
     "radicands must be strictly increasing"),
    (lambda: RadicalBasis((1, 2**32 + 1)), ValueError,
     "radicand 4294967297 exceeds 2**32"),
    (lambda: RadicalBasis((1, 4)), ValueError, "radicand 4 is not squarefree"),
    (lambda: Value(B2, (1, 2), True), TypeError, "den must be an integer, got True"),
    (lambda: Value(B2, (1, 2.0), 1), TypeError,
     "nums must be integers, got (1, 2.0)"),
    (lambda: Value(B2, (1,), 1), ValueError, "expected 2 coefficients, got 1"),
    (lambda: Value(B2, (1, 2), 0), ValueError, "zero denominator"),
    (lambda: SearchBounds(max_t_index=0), ValueError,
     "max_t_index: expected a positive integer"),
    (lambda: SearchBounds(d_layer_cap=True), ValueError,
     "d_layer_cap: expected a positive integer"),
    (lambda: SearchBounds(d_coord_cap=2.0), ValueError,
     "d_coord_cap: expected a positive integer"),
    (lambda: SearchBounds(max_value=3), ValueError,
     "max_value: expected a Value or None"),
    (lambda: PairVec((1, True), ()), TypeError,
     "PairVec entries must be integers, got (1, True), ()"),
    (lambda: PairVec((1,), (-1,)), ValueError, "PairVec entries must be nonnegative"),
    (lambda: ValuationModel(B2, ("u1",), (B2.rational(1),) * 2, {}), ValueError,
     "one value per ambient variable, please"),
]


@pytest.mark.parametrize("make,kind,message", REFUSALS)
def test_constructors_refuse_with_their_messages(make, kind, message):
    with pytest.raises(kind, match=f"^{re.escape(message)}$"):
        make()


def test_constructors_normalize_their_fields():
    v = Value(B2, [-2, -4], -6)
    assert (v.nums, v.den) == ((1, 2), 3) and type(v.nums) is tuple
    assert RadicalBasis([1, 2]).radicands == (1, 2)
    vec = PairVec([1, 0], [0])
    assert (vec.p, vec.t) == ((1,), ())
    m = model()
    listed = ValuationModel(
        B2, list(m.ambient_vars), list(m.ambient_values), MappingProxyType(m.images)
    )
    assert listed == m
    assert type(listed.ambient_vars) is tuple
    assert type(listed.ambient_values) is tuple
    assert type(listed.images) is dict


# the public fields of each hashable record, in the order its hash reads
# them; a one-field record hashes a 1-tuple: hash(B2) == hash((B2.radicands,))
PUBLIC_FIELDS = {
    "RadicalBasis": ("radicands",),
    "Value": ("basis", "nums", "den"),
    "SearchBounds": ("max_t_index", "max_value", "d_layer_cap", "d_coord_cap"),
    "GeneratorSet": ("members", "complete"),
    "PairVec": ("p", "t"),
    "RedundancyCertificate": ("target", "status", "combo"),
    "SequenceReport": ("kept_p", "kept_t", "certified"),
    "GrRelation": ("lhs", "rhs", "scalar"),
    "SemigroupSlice": ("cap", "values", "complete"),
}


@pytest.mark.parametrize("name", sorted(PUBLIC_FIELDS))
def test_a_hash_is_the_hash_of_the_public_field_tuple(name):
    for rec in instances()[name]:
        assert hash(rec) == hash(tuple(getattr(rec, f) for f in PUBLIC_FIELDS[name]))


def test_a_state_equals_its_twin_whatever_either_cached(state, second_state):
    model, bounds, _, _ = parsed_example()
    built, twin = build_state(model, bounds), build_state(model, bounds)
    assert built._solvers and built == twin and not built != twin
    # fill the products and the threshold index of one twin only
    before = len(built._products)
    built.image_of(PairVec((2, 1), (3,)))
    ideal_generators(built, built.basis.rational(4))
    assert len(built._products) > before and built._thresholds is not None
    assert twin._thresholds is None
    assert built == twin and twin == built
    assert built == state and state != second_state


# the definitions of the record policy each class may hold: the base's,
# and the overrides of the text forms, the dict-holding model's hash and
# the identity of the flags
POLICY = {"__eq__", "__hash__", "__repr__", "_key"}
OVERRIDES = {
    "Record": {"__eq__", "__hash__", "__repr__"},
    "Frozen": {"__hash__"},
    "Value": {"__repr__"},
    "LaurentPoly": {"__repr__"},
    "ValuationModel": {"__hash__"},
    "Flags": {"__eq__", "__hash__", "__repr__"},
}


def policy_defs(tree):
    """{class name: names in POLICY its body defines or assigns}, for the
    classes of a parsed module that define any."""
    found = {}
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        names = set()
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    elts = target.elts if isinstance(target, ast.Tuple) else [target]
                    names.update(e.id for e in elts if isinstance(e, ast.Name))
        if names & POLICY:
            found[cls.name] = names & POLICY
    return found


def test_the_policy_scan_sees_every_kind():
    src = (
        "class A:\n    def __eq__(self, o): pass\n    __hash__ = None\n"
        "class B:\n    __eq__, __hash__ = object.__eq__, object.__hash__\n"
        "class C:\n    _key = property(get)\n    def __str__(self): pass\n"
        "class D:\n    def method(self):\n        __repr__ = 1\n"
    )
    assert policy_defs(ast.parse(src)) == {
        "A": {"__eq__", "__hash__"}, "B": {"__eq__", "__hash__"}, "C": {"_key"},
    }


def test_the_record_policy_is_written_once():
    found = {}
    for path in sorted(Path(valgen.__file__).parent.glob("*.py")):
        for name, defs in policy_defs(ast.parse(path.read_text(), str(path))).items():
            found[f"{path.stem}.{name}"] = defs
    assert found == {
        f"{module}.{name}": OVERRIDES[name]
        for module, names in (
            ("values", ("Record", "Frozen", "Value")),
            ("laurent", ("LaurentPoly",)),
            ("valmodel", ("ValuationModel",)),
            ("jumpseq", ("Flags",)),
        )
        for name in names
    }
