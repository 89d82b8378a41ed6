"""Dense numerical kernels: LP (two-phase simplex), the theta-program SDP
(primal-dual interior point with certified bound pairs), complex matrix
helpers."""

from .cmat import is_hermitian, is_projector, tensor_product
from .lp import LinearProgram, LpError, LpResult, lp_solve
from .sdp import SdpError, SdpResult, sdp_solve

__all__ = [
    "is_hermitian",
    "is_projector",
    "tensor_product",
    "LinearProgram",
    "LpError",
    "LpResult",
    "lp_solve",
    "SdpError",
    "SdpResult",
    "sdp_solve",
]
