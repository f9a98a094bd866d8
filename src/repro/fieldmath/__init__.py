"""Finite-field substrate: ``F_p`` arithmetic, linear algebra, seeded sampling.

The public surface of this subpackage is:

* :class:`~repro.fieldmath.prime.PrimeField` — element-wise field ops;
* :func:`~repro.fieldmath.linalg.field_matmul`,
  :func:`~repro.fieldmath.linalg.field_matmul_stacked`,
  :func:`~repro.fieldmath.linalg.field_matmul_public` and friends —
  overflow-safe matrix algebra mod ``p``;
* :class:`~repro.fieldmath.random.FieldRng` — seeded mask/coefficient sampling;
* :mod:`~repro.fieldmath.kernels` — the field-op backends, objects their
  owner holds: :class:`LimbBackend` runs ``field_matmul`` as float64 BLAS
  GEMMs over 13-bit limbs with Barrett reduction, bit-identical to the
  :class:`GenericBackend` oracle, and a
  :class:`~repro.fieldmath.kernels.PublicOperand` of small centred
  magnitude contracts in one GEMM.  Each GPU cluster owns a limb backend;
  a product called without one runs on the enclave's; pass
  ``GenericBackend()`` for the oracle.
"""

from repro.fieldmath.kernels import (
    BarrettReducer,
    GenericBackend,
    LimbBackend,
    PublicOperand,
)
from repro.fieldmath.linalg import (
    all_column_subsets_full_rank,
    determinant,
    field_matmul,
    field_matmul_public,
    field_matmul_stacked,
    inverse,
    is_invertible,
    rank,
    solve,
)
from repro.fieldmath.prime import DEFAULT_PRIME, PrimeField
from repro.fieldmath.random import FieldRng

__all__ = [
    "DEFAULT_PRIME",
    "PrimeField",
    "FieldRng",
    "field_matmul",
    "field_matmul_stacked",
    "field_matmul_public",
    "inverse",
    "solve",
    "rank",
    "determinant",
    "is_invertible",
    "all_column_subsets_full_rank",
    "BarrettReducer",
    "GenericBackend",
    "LimbBackend",
    "PublicOperand",
]
