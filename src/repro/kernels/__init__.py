"""Computational kernels with roofline cost models (system S8)."""

from .blas import (ddot_cost, ddot_partial, grid_sum_cost, grid_sum_partial,
                   waxpby, waxpby_cost)
from .partition import split_blocks, split_range
from .pic import (charge_cost, charge_deposit, field_cost, push_cost,
                  push_particles, solve_field)
from .spmv import (OFFSETS_27, OFFSETS_7, CsrMatrix, build_27pt, build_7pt,
                   build_stencil_csr, clear_csr_cache, csr_cache_info,
                   make_spmv_task, spmv_cost, spmv_rows)
from .stencil import (apply_27pt, apply_27pt_matvec, apply_7pt,
                      clear_stencil_scratch, stencil27_cost,
                      stencil27_matvec_cost, stencil7_cost)

__all__ = [
    "CsrMatrix", "OFFSETS_27", "OFFSETS_7", "apply_27pt",
    "apply_27pt_matvec", "apply_7pt", "build_27pt", "build_7pt",
    "build_stencil_csr", "charge_cost", "charge_deposit",
    "clear_csr_cache", "clear_stencil_scratch", "csr_cache_info",
    "ddot_cost", "ddot_partial", "field_cost", "grid_sum_cost",
    "grid_sum_partial", "make_spmv_task", "push_cost", "push_particles",
    "solve_field", "spmv_cost", "spmv_rows",
    "split_blocks", "split_range", "stencil27_cost",
    "stencil27_matvec_cost", "stencil7_cost", "waxpby", "waxpby_cost",
]
