"""The contract of the value classes: equal values compare equal and hash
alike, values of two classes never compare equal, fields cannot be
assigned, and the orders and option tables that callers rely on hold."""

from fractions import Fraction

import pytest

from dualcircle.abgroups import FGAbGroup, GradedGroup, GroupExpr
from dualcircle.cyclic import EquivariantCellComplex, GradedModule, lambda_cell_model
from dualcircle.matrices import IntMatrix, SmithDecomposition, smith_normal_form
from dualcircle.operads import CubePoint, OperadPoint, SuspensionActionMap
from dualcircle.qspaces import SymbolicQSpace
from dualcircle.report import RunConfig
from dualcircle.spectra import (CountableWedge, CPInf, Shift, Sphere, SuspCircle, Wedge,
                                WedgeCircleTransfer)
from dualcircle.tc import (CoassemblyVerdict, LevelMap, NormalMap, SummandRoute, Table2,
                           coassembly_conclusion, frobenius_map, table2)


def _cell_model():
    c = lambda_cell_model(3)
    return EquivariantCellComplex(c.group_order, c.cells, c.boundaries, c.actions,
                                  c.orbit_reps)


# class -> a function that builds a fresh value of it
VALUES = {
    FGAbGroup: lambda: FGAbGroup.from_orders([0, 4, 6]),
    GroupExpr: lambda: GroupExpr.cyclic(12).plus(GroupExpr.countable_free()),
    GradedGroup: lambda: GradedGroup.from_dict({0: GroupExpr.free(2)}, (0, 3)),
    GradedModule: lambda: GradedModule(((0, 0), (1, 2))),
    EquivariantCellComplex: _cell_model,
    IntMatrix: lambda: IntMatrix.from_rows([[1, 2], [3, 4]]),
    SmithDecomposition: lambda: smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]])),
    OperadPoint: lambda: OperadPoint((Fraction(1, 2), 3)),
    SuspensionActionMap: lambda: SuspensionActionMap((Fraction(1, 2), 0)),
    CubePoint: lambda: CubePoint((Fraction(1, 3),), 2),
    SymbolicQSpace: lambda: SymbolicQSpace.make(q=1, b=2),
    Sphere: Sphere,
    SuspCircle: SuspCircle,
    CPInf: CPInf,
    Shift: lambda: Shift(-1, SuspCircle()),
    Wedge: lambda: Wedge((Sphere(), Shift(1, CPInf()))),
    CountableWedge: lambda: CountableWedge(("bcyc_ppowers", 3)),
    WedgeCircleTransfer: lambda: WedgeCircleTransfer(3),
    NormalMap: lambda: NormalMap.make(transfer=(2, 1), relabels=1),
    SummandRoute: lambda: frobenius_map(3, 2).routes[0],
    LevelMap: lambda: frobenius_map(3, 2),
    Table2: lambda: table2(7),
    CoassemblyVerdict: lambda: coassembly_conclusion(1, 5, True),
}
# values whose fields hold dicts, so that, as before, they cannot be hashed
UNHASHABLE = {EquivariantCellComplex, Table2, CoassemblyVerdict}


@pytest.mark.parametrize("cls", VALUES, ids=lambda c: c.__name__)
def test_equal_values_compare_equal_and_hash_alike(cls):
    a, b = VALUES[cls](), VALUES[cls]()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("cls", VALUES, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned(cls):
    value = VALUES[cls]()
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("cls", VALUES, ids=lambda c: c.__name__)
def test_repr_names_the_class(cls):
    assert repr(VALUES[cls]()).startswith(cls.__name__ + "(")


def test_repr_names_every_field():
    assert repr(Shift(-1, SuspCircle())) == "Shift(k=-1, inner=SuspCircle())"
    assert repr(FGAbGroup(1, (2,))) == "FGAbGroup(free_rank=1, torsion=(2,))"


def test_values_of_two_classes_with_equal_fields_differ():
    atoms = [Sphere(), SuspCircle(), CPInf()]
    assert all((a == b) == (i == j) for i, a in enumerate(atoms) for j, b in enumerate(atoms))
    assert len(set(atoms)) == 3
    assert Wedge(("orbits_all",)) != CountableWedge(("orbits_all",))
    assert OperadPoint((1, 0)) != SuspensionActionMap((1, 0))
    assert FGAbGroup(0, ()) != (0, ()) and GradedModule(()) != ()
    assert FGAbGroup.zero() != GroupExpr.zero()


def test_wrong_field_count_is_refused():
    with pytest.raises(TypeError):
        Shift(1)
    with pytest.raises(TypeError):
        WedgeCircleTransfer(3, 5)


def test_groups_sort_by_free_rank_then_torsion():
    groups = [FGAbGroup(1, (2,)), FGAbGroup(0, (3,)), FGAbGroup(1, ()),
              FGAbGroup(0, (2, 4)), FGAbGroup(2, ()), FGAbGroup(0, ())]
    assert [str(g) for g in sorted(groups)] == [
        "0", "Z/2 + Z/4", "Z/3", "Z", "Z + Z/2", "Z^2"]
    assert FGAbGroup(0, (3,)) > FGAbGroup(0, (2, 4))
    assert max(groups) == FGAbGroup(2, ())


def test_config_echo_keeps_its_keys_and_their_order():
    assert list(RunConfig().echo().items()) == [
        ("p", "2"), ("min_deg", "-2"), ("max_deg", "4"), ("seed", "0"),
        ("trials", "1000"), ("fixture_path", None), ("fmt", "markdown"),
        ("assume_regular", False), ("check_regularity", False),
        ("truncate_out_of_range", False), ("max_weight", "5"), ("max_degree", "6")]
    assert RunConfig(p=7, fixture_path="f.json").echo()["p"] == "7"
    with pytest.raises(TypeError):
        RunConfig(prime=7)


def test_config_file_values_take_the_type_of_their_default(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("p = 7\nmin_deg = -1\nmax_deg = 3\nseed = 9\ntrials = 4\n"
                    "fixture_path = f.json\nformat = json\nassume_regular = yes\n"
                    "check_regularity = 1\ntruncate_out_of_range = off\n"
                    "max_weight = 2\nmax_degree = 1\n")
    cfg = RunConfig.from_key_value_file(str(path))
    values = {name: getattr(cfg, name) for name in RunConfig.FIELDS}
    assert values == {"p": 7, "min_deg": -1, "max_deg": 3, "seed": 9, "trials": 4,
                      "fixture_path": "f.json", "fmt": "json", "assume_regular": True,
                      "check_regularity": True, "truncate_out_of_range": False,
                      "max_weight": 2, "max_degree": 1}
    assert all(type(values[name]) is type(default) or default is None
               for name, default in RunConfig.FIELDS.items())
