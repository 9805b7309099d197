"""torstab: exact GIT stability for torus representations, Kempf-Ness
minimization, one-parameter-subgroup stratification, system-of-Hodge-bundles
combinatorics, and a finite-dimensional graded Kuranishi solver.

Every exported name is resolved on first use (PEP 562), so importing one
submodule loads only what that submodule needs: the exact layers load no
numpy, and numpy arrives with `kempf_ness` or `graded_kuranishi`."""

import sys
from importlib import import_module
from types import ModuleType

_EXPORTS = {
    "errors": ("NotStableError", "StratifyInternalError", "TorstabError",
               "ValidationError", "ZeroVectorError"),
    "graded_kuranishi": ("GradedComplex", "GreensOperator", "greens_operator",
                         "kuranishi_forward", "kuranishi_inverse_graded",
                         "obstruction", "random_graded_complex"),
    "kempf_ness": ("KNProblem", "KNResult", "kn_eval", "kn_minimize"),
    "polytope": ("PolytopeQ", "RayInterval", "hull_position", "minimal_face",
                 "ray_intersect", "solve_mixed_system"),
    "qexact": ("Lattice", "saturated_kernel", "smith_normal_form"),
    "shb_model": ("ConformalDegreeTable", "PartitionP", "SHBSpec", "StableBlock",
                  "automorphism_torus", "conformal_degree_table",
                  "cyclic_phi_weights", "expected_dim_central_locus",
                  "partition_dim", "partitions_with_order",
                  "positive_slice_lines", "slice_vector"),
    "stability": ("StabilityResult", "classify", "destabilizer_bruteforce"),
    "stratify": ("StratifyResult", "stage_kn_minimizers", "stratify",
                 "verify_decomposition"),
    "torus_rep": ("RepVector", "Subtorus", "WeightLine"),
}

_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{mod}", __name__), name)
    globals()[name] = value
    return value


class _Package(ModuleType):
    """Loading a submodule binds it as an attribute of its package.  Skip
    that binding where the name is an export: `stratify` names both a
    submodule and the function this package exports."""

    def __setattr__(self, name, value):
        if not (name in _MODULE_OF and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
