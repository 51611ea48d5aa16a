"""Exact arithmetic for half-derivations and transposed Poisson structures
on Lie incidence algebras of finite connected posets."""

from .algebra import (IncidenceElement, commutator, diag_unit, element,
                      from_records, identity, minmax_pairs, multiply,
                      to_records, unit, zero)
from .errors import (CycleInOrder, LietpError, NotCentralInCommutator,
                     NotConnected, NotExtreme, NotHalfDerivation,
                     NotTransposedPoisson, OwnerMismatch, ParseError,
                     ReconstructionMismatch, RedundantCover, TooLarge,
                     TooSmall, UnknownElement)
from .halfder import (CentralElement, HalfDerDecomposition, KappaMap,
                      LinearOperator, SigmaMap, central_valued, decompose,
                      decomposition_report, half_derivation_space, inner,
                      is_half_derivation, operator_from_images, phi_sigma,
                      sigma_from_map, zero_operator)
from .poset import (Poset, blocks_and_bridges, build_poset, enumerate_cycles,
                    extreme_pairs, min_max, pair_classes, parse_poset,
                    sign_and_vset)
from .tpstruct import (LambdaMap, MuMap, NuElement, TPDecomposition,
                       TPProduct, decompose_tp, lambda_structure, mutational,
                       normalize_nu, poisson_type, random_tp,
                       random_tp_components, sum_products, tp_from_table,
                       tp_passes, transport_product, verify_tp, zero_product)

__version__ = "0.1.0"
