"""The domain-decomposed Wilson operator — the paper's parallel data path.

Each application: scatter into rank-local halo blocks, exchange fermion
ghosts through the communicator, apply the identical spin-projected stencil
to every rank's interior, gather.  The result is bit-identical to
:class:`~repro.dirac.WilsonDirac` for every rank grid — that equivalence is
the core correctness test of the communication substrate, and the recorded
trace is what the machine model scales to petascale node counts.

There is one executor for every backend.  The fermion, gauge and result
blocks live in the communicator's per-rank block storage, and one
``run_dslash`` command makes every rank run
:meth:`~repro.comm.executor.RankExecutor.dslash` on its own block:
exchange the ghost shells, then stencil the whole interior.  ``virtual``
runs its ranks one after another in this process; shm, tcp and mpi run
them as processes (see :mod:`repro.comm`).
"""

from __future__ import annotations

import numpy as np

from repro.dirac.hopping import DEFAULT_FERMION_PHASES
from repro.dirac.operator import LinearOperator
from repro.fields import GaugeField
from repro.gammas import apply_gamma5
from repro.util.flops import WILSON_DSLASH_FLOPS_PER_SITE

__all__ = ["DecomposedWilsonDirac"]


class DecomposedWilsonDirac(LinearOperator):
    """Wilson operator evaluated SPMD over a rank grid.

    ``comm`` may be any communicator backend (:func:`repro.comm.make_comm`);
    every backend runs the same rank executor on the same blocks.  Fields
    must be ``complex128``.
    """

    _WIDTH = 1

    def __init__(
        self,
        gauge: GaugeField,
        mass: float,
        comm,
        phases: tuple[complex, complex, complex, complex] = DEFAULT_FERMION_PHASES,
    ) -> None:
        super().__init__()
        self.gauge = gauge
        self.mass = float(mass)
        self.comm = comm
        self.phases = tuple(phases)
        self.decomp = comm.decompose(gauge.lattice)
        self.flops_per_apply = (
            WILSON_DSLASH_FLOPS_PER_SITE + 8 * 12
        ) * gauge.lattice.volume
        self.telemetry_label = "dslash_wilson_spmd"
        self.telemetry_sites = gauge.lattice.volume

        w = self._WIDTH
        local = self.decomp.local_shape
        self._interior_idx = tuple(slice(w, -w) for _ in range(4))
        halo_sites = tuple(n + 2 * w for n in local)

        # Gauge halos are filled once: links are constant during a solve and
        # strictly periodic (no fermion phases).
        self._u_key = comm.new_key("u")
        u_views = comm.alloc_blocks(self._u_key, (4,) + halo_sites + (3, 3), np.complex128)
        for r, b in enumerate(self.decomp.scatter(gauge.u, site_axis_start=1)):
            u_views[r][(slice(None),) + self._interior_idx] = b
        comm.exchange_shared(self._u_key, width=w, site_axis_start=1, phases=None)
        self._udag_key = comm.new_key("udag")
        comm.alloc_blocks(self._udag_key, (4,) + halo_sites + (3, 3), np.complex128)
        comm.dagger_shared(self._u_key, self._udag_key)
        self._psi_key = comm.new_key("psi")
        self._psi_views = comm.alloc_blocks(self._psi_key, halo_sites + (4, 3), np.complex128)
        self._out_key = comm.new_key("out")
        self._out_views = comm.alloc_blocks(self._out_key, local + (4, 3), np.complex128)

    @property
    def lattice(self):
        return self.gauge.lattice

    @property
    def diag(self) -> float:
        return self.mass + 4.0

    def _check_fermion(self, psi: np.ndarray) -> None:
        if psi.dtype != np.complex128:
            raise TypeError(
                f"{type(self).__name__} needs a complex128 field, got {psi.dtype}"
            )
        want = self.lattice.shape + (4, 3)
        if psi.shape != want:
            raise ValueError(f"fermion shape {psi.shape} != {want}")

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """Full decomposed cycle: scatter, exchange, stencil, gather."""
        self._check_fermion(psi)
        for r in self.comm.grid.all_ranks():
            self._psi_views[r][self._interior_idx] = psi[self.decomp.block_slices(r)]
        self.comm.run_dslash(
            self._psi_key,
            self._out_key,
            self._u_key,
            self._udag_key,
            self.phases,
            self.diag,
            width=self._WIDTH,
        )
        self.comm.record_compute("wilson_dslash", self.flops_per_apply // self.comm.nranks)
        return self.decomp.gather(self._out_views)

    def apply_dagger(self, psi: np.ndarray) -> np.ndarray:
        return apply_gamma5(self.apply(apply_gamma5(psi)))
