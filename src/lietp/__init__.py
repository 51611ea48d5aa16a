"""Exact arithmetic for half-derivations and transposed Poisson structures
on Lie incidence algebras of finite connected posets.

The namespace is lazy (PEP 562): ``import lietp`` loads no submodule.  Each
name in the table below, and each of its modules by name, loads on first use.
"""

import sys

_EXPORTS = {
    "algebra": """IncidenceElement commutator diag_unit element from_records
        identity minmax_pairs multiply to_records unit zero""",
    "errors": """CycleInOrder LietpError NotCentralInCommutator NotConnected
        NotExtreme NotHalfDerivation NotTransposedPoisson OwnerMismatch
        ParseError ReconstructionMismatch RedundantCover TooLarge TooSmall
        UnknownElement""",
    "halfder": """CentralElement HalfDerDecomposition KappaMap LinearOperator
        SigmaMap central_valued decompose decomposition_report
        half_derivation_space inner is_half_derivation operator_from_images
        phi_sigma sigma_from_map zero_operator""",
    "poset": """Poset blocks_and_bridges build_poset enumerate_cycles
        extreme_pairs min_max pair_classes parse_poset sign_and_vset""",
    "tpstruct": """LambdaMap MuMap NuElement TPDecomposition TPProduct
        decompose_tp lambda_structure mutational normalize_nu poisson_type
        random_tp_components sum_products tp_from_table tp_passes
        transport_product verify_tp""",
}
_HOME = {name: mod for mod, names in _EXPORTS.items()
         for name in names.split()}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    home = _HOME.get(name, name)
    if home not in _EXPORTS:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    # __import__, unlike importlib.import_module, is logged by -X importtime
    __import__(__name__ + "." + home)
    value = sys.modules[__name__ + "." + home]
    if name != home:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
