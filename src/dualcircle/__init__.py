"""Exact computer algebra for operadic square-zero structures, weight-split
cyclic homology, and the homology / rational-homotopy tables of the dual
circle."""

# public name -> the module that defines it; ``__getattr__`` loads that
# module on first use, so ``import dualcircle`` loads no submodule
_HOMES = {
    "FGAbGroup": "abgroups",
    "GradedGroup": "abgroups",
    "GradedModule": "cyclic",
    "GroupExpr": "abgroups",
    "OperadPoint": "operads",
    "SymbolicQSpace": "qspaces",
    "bousfield_pi_q": "qspaces",
    "coassembly_conclusion": "tc",
    "compose": "operads",
    "e_homology": "tc",
    "ext_pinf_q": "qspaces",
    "is_member": "operads",
    "table1": "tc",
    "table2": "tc",
    "thh_homology_square_zero": "cyclic",
}

__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
