"""Hardware functional models: baseline Tensor Core MXU and M3XU."""

from .baseline import TensorCoreMXU
from .bitlevel import BitAccumulator, bit_level_chain
from .config import (
    AMPERE_MXU,
    M3XU_CONFIG,
    M3XU_PIPELINED_CONFIG,
    MXUConfig,
    TileShape,
)
from .dataflow import lane_products, resolve_parts, verify_plan_weights
from .faults import (
    FaultImpact,
    FaultSite,
    FaultSpec,
    FaultStage,
    FaultyM3XU,
    inject_operand_fault,
    inject_register_fault,
    inject_shift_align_fault,
    inject_sign_flip_fault,
    slice_fault_study,
)
from .extension import DesignPoint, MultiStepScheme, composed_gemm, design_space
from .isa import MMA_DESCRIPTORS, EmulationCosts, MmaDescriptor, emulation_costs
from .m3xu import M3XU
from .modes import MODE_INFO, MXUMode, Step, StepPlan, StepProduct, step_plan
from .vectorized import (
    BITLEVEL_ENV,
    BitLevelMXU,
    NonFiniteOperandError,
    ProductFault,
    chained_vector,
    fp32_bit_fields,
    product_slot_count,
    resolve_bitlevel_engine,
    sharded_bitlevel_gemm,
    split_fp32_fields,
)

__all__ = [
    "TensorCoreMXU",
    "BitAccumulator",
    "bit_level_chain",
    "BITLEVEL_ENV",
    "BitLevelMXU",
    "sharded_bitlevel_gemm",
    "NonFiniteOperandError",
    "ProductFault",
    "chained_vector",
    "fp32_bit_fields",
    "product_slot_count",
    "resolve_bitlevel_engine",
    "split_fp32_fields",
    "MultiStepScheme",
    "composed_gemm",
    "design_space",
    "DesignPoint",
    "MmaDescriptor",
    "MMA_DESCRIPTORS",
    "EmulationCosts",
    "emulation_costs",
    "FaultSite",
    "FaultStage",
    "FaultSpec",
    "FaultyM3XU",
    "FaultImpact",
    "inject_operand_fault",
    "inject_register_fault",
    "inject_shift_align_fault",
    "inject_sign_flip_fault",
    "slice_fault_study",
    "M3XU",
    "MXUConfig",
    "TileShape",
    "AMPERE_MXU",
    "M3XU_CONFIG",
    "M3XU_PIPELINED_CONFIG",
    "MXUMode",
    "MODE_INFO",
    "StepPlan",
    "Step",
    "StepProduct",
    "step_plan",
    "lane_products",
    "resolve_parts",
    "verify_plan_weights",
]
