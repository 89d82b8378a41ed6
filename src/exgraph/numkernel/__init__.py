"""Dense numerical kernels: LP (two-phase simplex, for one program or a
lockstep stack of right-hand sides), the theta-program SDP
(primal-dual interior point with certified bound pairs, for one program or
a lockstep stack of programs on one graph), complex matrix helpers."""

from .cmat import is_hermitian, is_projector, tensor_product
from .lp import LinearProgram, LpError, LpResult, lp_solve, lp_solve_many, replays
from .sdp import SdpError, SdpResult, sdp_solve, sdp_solve_many

__all__ = [
    "is_hermitian",
    "is_projector",
    "tensor_product",
    "LinearProgram",
    "LpError",
    "LpResult",
    "lp_solve",
    "lp_solve_many",
    "replays",
    "SdpError",
    "SdpResult",
    "sdp_solve",
    "sdp_solve_many",
]
