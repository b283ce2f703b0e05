"""The fused Wilson stencil on halo-extended blocks.

This is the per-rank kernel of the domain-decomposed Dslash: the same
sparse spin projection, SU(3) colour multiply and in-place reconstruction
as :class:`repro.kernels.fused.FusedHopping`, but neighbour gathers are
plain displaced slices into the ghost-extended block — a rank never wraps,
it reads the ghost shells its communicator filled.  Every rank of every
communicator backend runs this one stencil over its whole interior after
the halo exchange, so the decomposed apply is bit-identical to the
single-domain :class:`~repro.dirac.WilsonDirac` on every rank grid.

The backward links are pre-daggered once per gauge field
(:func:`dagger_halo_links`) into a table indexed at the *site* — the halo
analogue of the fused kernel's cached ``udag`` — so the per-apply
conj-transpose of the gauge block disappears from the hot loop.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.color import color_mul_into
from repro.kernels.spin import project_into, reconstruct_accumulate
from repro.kernels.workspace import Workspace

__all__ = ["HaloStencil", "dagger_halo_links"]


def dagger_halo_links(u_halo: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``out[mu][x] = U_mu(x - e_mu)^dag`` on the halo-extended grid.

    ``u_halo`` has shape ``(4,) + ext + (3, 3)`` with ghost-filled site
    axes.  The first slab along each ``mu`` has no ``-mu`` neighbour in
    the array and is left untouched (never read: the stencil only indexes
    the table at interior sites, which start at ``width >= 1``).
    """
    if out is None:
        out = np.empty_like(u_halo)
    for mu in range(4):
        src_idx = [slice(None)] * u_halo[mu].ndim
        dst_idx = [slice(None)] * u_halo[mu].ndim
        src_idx[mu] = slice(None, -1)
        dst_idx[mu] = slice(1, None)
        np.conjugate(
            u_halo[mu][tuple(src_idx)].swapaxes(-1, -2), out=out[mu][tuple(dst_idx)]
        )
    return out


def _interior_view(arr: np.ndarray, width: int, mu: int | None = None, d: int = 0) -> np.ndarray:
    """View of a halo-extended array's interior, optionally displaced by
    ``d`` sites along site axis ``mu`` (site axes lead)."""
    idx = [slice(width, -width)] * 4
    if mu is not None:
        idx[mu] = slice(width + d, d - width or None)
    return arr[tuple(idx)]


class HaloStencil:
    """Stateful fused Wilson stencil over halo-extended rank blocks.

    One instance per rank executor: the workspace hands out one set of
    scratch buffers per block shape, so solver hot loops allocate on the
    first application only.
    """

    name = "fused-halo"

    def __init__(self, color_backend: str = "einsum") -> None:
        self.workspace = Workspace()
        self.color_backend = color_backend

    def wilson_into(
        self,
        out_block: np.ndarray,
        u_halo: np.ndarray,
        udag_halo: np.ndarray,
        psi_halo: np.ndarray,
        width: int,
        diag: float,
    ) -> np.ndarray:
        """``out = diag * psi - 0.5 * hop`` over the interior of one block.

        ``out_block`` is the ghost-free local block; the ghost shells of
        ``psi_halo`` must have been filled by a halo exchange.  Term order
        matches :func:`repro.dirac.hopping.hopping_term` (per ``mu``:
        forward then backward), so the sums are bit-identical to it.
        """
        ws = self.workspace
        dtype = psi_halo.dtype
        acc = ws.zeros(out_block.shape, dtype, "halo.acc")
        hshape = acc.shape[:-2] + (2, acc.shape[-1])
        half = ws.get(hshape, dtype, "halo.half")
        uh = ws.get(hshape, dtype, "halo.uh")
        scratch = ws.get(hshape, dtype, "halo.scratch")
        for mu in range(4):
            # Forward: (1 - gamma_mu) U_mu(x) psi(x + mu).
            project_into(half, _interior_view(psi_halo, width, mu, +1), mu, -1)
            color_mul_into(uh, _interior_view(u_halo[mu], width), half, self.color_backend)
            reconstruct_accumulate(acc, uh, mu, -1, scratch)
            # Backward: (1 + gamma_mu) U_mu(x - mu)^dag psi(x - mu).
            project_into(half, _interior_view(psi_halo, width, mu, -1), mu, +1)
            color_mul_into(uh, _interior_view(udag_halo[mu], width), half, self.color_backend)
            reconstruct_accumulate(acc, uh, mu, +1, scratch)
        np.multiply(_interior_view(psi_halo, width), diag, out=out_block)
        acc *= 0.5
        out_block -= acc
        return out_block
