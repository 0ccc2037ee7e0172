"""cordial-repro: a from-scratch reproduction of Cordial (DSN-S 2025).

Cordial is a cross-row failure-prediction method for High Bandwidth
Memory: classify a failing bank's pattern from its first three
uncorrectable errors, then predict which 8-row blocks around the last
failure will fail next and spare them preemptively.

Subpackages, bottom-up (see docs/ARCHITECTURE.md):

* :mod:`repro.hbm` — the HBM2E hardware model (hierarchy, ECC, sparing);
* :mod:`repro.telemetry` — MCE logs, the indexed error store, the
  streaming BMC collector;
* :mod:`repro.faults` — physical fault models and fleet placement;
* :mod:`repro.datasets` — the calibrated synthetic fleet generator;
* :mod:`repro.ml` — tree-based learning implemented on numpy alone;
* :mod:`repro.core` — the Cordial method, baselines and operations layer;
* :mod:`repro.analysis` — the paper's empirical study;
* :mod:`repro.experiments` — one entry point per table/figure.

Console script: ``cordial-repro`` reproduces the paper's evaluation; its
subcommands run the operator workflow over MCE log files (``generate``,
``train``, ``evaluate``, ``analyze``, ``serve-replay --pipeline --log``)
and the online serving harnesses (``serve-replay``, ``chaos``,
``obs-report``).
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
