"""Structural model of an HBM2E memory subsystem.

This package provides the hardware substrate the paper's prediction method
operates on: the full device hierarchy (node -> NPU -> HBM -> SID -> channel
-> pseudo-channel -> bank group -> bank -> row/column), the ECC error model
that turns raw bit faults into CE/UEO/UER events, and the sparing
(isolation) mechanisms whose coverage Cordial is evaluated on.
"""

from repro.hbm.geometry import HBMGeometry, FleetGeometry
from repro.hbm.address import DeviceAddress, MicroLevel
from repro.hbm.ecc import ECCConfig, ECCModel, ECCOutcome
from repro.hbm.sparing import (
    RowSparingController,
    BankSparingController,
    PageOfflineManager,
    SparingExhaustedError,
)
from repro.hbm.addressmap import AddressLayout, AddressMapper, default_hbm2e_mapper

__all__ = [
    "HBMGeometry",
    "FleetGeometry",
    "DeviceAddress",
    "MicroLevel",
    "ECCConfig",
    "ECCModel",
    "ECCOutcome",
    "RowSparingController",
    "BankSparingController",
    "PageOfflineManager",
    "SparingExhaustedError",
    "AddressLayout",
    "AddressMapper",
    "default_hbm2e_mapper",
]
