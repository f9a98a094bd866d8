"""Finite-field substrate: ``F_p`` arithmetic, linear algebra, seeded sampling.

The public surface of this subpackage is:

* :class:`~repro.fieldmath.prime.PrimeField` — element-wise field ops;
* :func:`~repro.fieldmath.linalg.field_matmul`,
  :func:`~repro.fieldmath.linalg.field_matmul_stacked` and friends —
  overflow-safe matrix algebra mod ``p``;
* :class:`~repro.fieldmath.random.FieldRng` — seeded mask/coefficient sampling;
* :mod:`~repro.fieldmath.kernels` — pluggable field-op backends (the default
  ``"limb"`` backend runs ``field_matmul`` as float64 BLAS GEMMs over 13-bit
  limbs with Barrett reduction, bit-identical to the ``"generic"`` oracle).
"""

from repro.fieldmath.kernels import (
    BarrettReducer,
    default_backend_name,
    get_backend,
    set_default_backend,
    use_backend,
)
from repro.fieldmath.linalg import (
    all_column_subsets_full_rank,
    determinant,
    field_dot,
    field_matmul,
    field_matmul_stacked,
    inverse,
    is_invertible,
    rank,
    solve,
    vandermonde,
)
from repro.fieldmath.prime import DEFAULT_PRIME, SAFE_ACCUMULATION, PrimeField
from repro.fieldmath.random import FieldRng

__all__ = [
    "DEFAULT_PRIME",
    "SAFE_ACCUMULATION",
    "PrimeField",
    "FieldRng",
    "field_matmul",
    "field_matmul_stacked",
    "field_dot",
    "inverse",
    "solve",
    "rank",
    "determinant",
    "is_invertible",
    "vandermonde",
    "all_column_subsets_full_rank",
    "BarrettReducer",
    "default_backend_name",
    "get_backend",
    "set_default_backend",
    "use_backend",
]
