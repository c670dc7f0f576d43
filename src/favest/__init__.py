"""Fast forward and adjoint vector spherical harmonic transforms.

Tangent fields on the unit 2-sphere are decomposed into divergence-free and
curl-free harmonic families; both analysis (samples -> coefficients) and
synthesis (coefficients -> samples) reduce to a handful of scalar transforms
glued together with Clebsch-Gordan weights, giving fast paths on iso-latitude
tensor grids and a NUFFT route (or, for small problems, direct sums) for
scattered points.
"""

from .core import (
    QuadratureRule,
    ScalarCoefficients,
    TangentFieldSamples,
    TensorGrid,
    VectorCoefficients,
    degrees_orders,
    flat_index,
    flat_size,
    from_spherical,
    to_spherical,
)
from .coupling import (
    CGTables,
    apply_coupling,
    build_adjoint_coupling,
    build_cg_tables,
    cg_explicit,
    clebsch_gordan,
    coupling_weight_c,
    coupling_weight_d,
    wigner_3j,
)
from .diagnostics import (
    BenchRecord,
    StabilityReport,
    bench,
    component_envelope_check,
    error_metrics,
    stability_ratios,
)
from .fields import (
    FIELD_A,
    FIELD_B,
    FIELD_C,
    TANGENT_FIELDS,
    TangentField,
    field_a,
    field_b,
    field_c,
    get_field,
)
from .legendre import eval_ylm, legendre_table, ylm_table
from .quadrature import bundled_design, gen_gl_tensor, load_design, verify_exactness
from .scalar import adjoint_sht, forward_sht
from .transforms import (
    RepeatErrors,
    RoundtripResult,
    adjoint_favest,
    forward_favest,
    repeat_transform_errors,
    roundtrip,
)
from .vsh import VshValue, adjoint_vsht_direct, eval_vsh, forward_vsht_direct

__version__ = "0.1.0"

__all__ = [
    "BenchRecord",
    "CGTables",
    "FIELD_A",
    "FIELD_B",
    "FIELD_C",
    "QuadratureRule",
    "RepeatErrors",
    "RoundtripResult",
    "ScalarCoefficients",
    "StabilityReport",
    "TANGENT_FIELDS",
    "TangentField",
    "TangentFieldSamples",
    "TensorGrid",
    "VectorCoefficients",
    "VshValue",
    "adjoint_favest",
    "adjoint_sht",
    "adjoint_vsht_direct",
    "apply_coupling",
    "bench",
    "build_adjoint_coupling",
    "build_cg_tables",
    "bundled_design",
    "cg_explicit",
    "clebsch_gordan",
    "component_envelope_check",
    "coupling_weight_c",
    "coupling_weight_d",
    "degrees_orders",
    "error_metrics",
    "eval_vsh",
    "eval_ylm",
    "field_a",
    "field_b",
    "field_c",
    "flat_index",
    "flat_size",
    "forward_favest",
    "forward_sht",
    "forward_vsht_direct",
    "from_spherical",
    "gen_gl_tensor",
    "get_field",
    "legendre_table",
    "load_design",
    "repeat_transform_errors",
    "roundtrip",
    "stability_ratios",
    "to_spherical",
    "verify_exactness",
    "wigner_3j",
    "ylm_table",
]
